"""Heat-kernel tour: dual evaluation routes, upper/lower bounds, identities.

Run:  python demos/01_kernel_bounds.py
"""

import numpy as np

from sheatlab import kernel as K

spec = K.KernelSpec()  # Dirichlet, nu = 1/2, tol = 1e-12

print("Dirichlet heat kernel on [0,1], nu =", spec.nu)
print()
print("Two independent representations, one value:")
times = np.array([1e-3, 0.05, 1.0])
n_terms, use_series, n_images = K.truncation_plan(spec, times)
for t, n, on_series, m in zip(times, n_terms, use_series, n_images):
    series = K.eval_kernel_series(spec, t, 0.3, 0.7,
                                  n_terms=K._series_terms(spec.nu, t, 1e-13)[0])
    images = K.eval_kernel_images(spec, t, 0.3, 0.7)
    route = f"series({n})" if on_series else f"images({m})"
    print(f"  t={t:7g}: series {series: .12e}  images {images: .12e}"
          f"   |diff| {abs(series - images):.1e}   eval_kernel uses {route}")
print()

print(f"upper bounds at (t,x,y)=(1, 1/2, 1/2): free kernel"
      f" {K.free_kernel(spec.nu, 1.0, 0.5, 0.5):.6f},")
print(f"  long-time K3 e^(-nu pi^2 t) with K3 = {K.k3_constant(spec):.6f}")
print(f"  actual g_D = {K.eval_kernel(spec, 1.0, 0.5, 0.5):.6f}")
print()

print("calibrating the interior Gaussian lower bound on [0.2, 0.8] ...")
lb = K.calibrate_lower_bound(spec, gamma=0.2)
print(f"  kappa1 = {lb.kappa1:.6f}   (compare (4 pi nu)^(-1/2) ="
      f" {(4 * np.pi * spec.nu) ** -0.5:.6f})")
print(f"  kappa2 = {lb.kappa2:.6f}   (compare 1/(4 nu) = {1 / (4 * spec.nu):.3f})")
print()

sg = K.semigroup_check(spec, 0.05, 0.08, 0.3, 0.6, n_quad=2048)
print(f"semigroup identity residual      : {sg.residual_convolution:.2e}")
print(f"squared-kernel identity residual : {sg.residual_square:.2e}")
print(f"Dirichlet mass at (t,x)=(0.1, 0.5): {K.kernel_mass(spec, 0.1, 0.5):.6f} (< 1)")
nspec = K.KernelSpec(boundary=K.NEUMANN)
print(f"Neumann   mass at (t,x)=(0.1, 0.5): {K.kernel_mass(nspec, 0.1, 0.5):.6f} (= 1)")
