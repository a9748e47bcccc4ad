"""Garsia-Rodemich-Rumsey machinery on closed forms and simulated paths.

Run:  python demos/05_grr_modulus.py
"""

import numpy as np

from sheatlab import regularity as R
from sheatlab.noise import GridSpec
from sheatlab.solver import InitialData, SimulationConfig, simulate_paths

params = R.GrrParams(p=2, delta=1, eps=0.5)
print(f"GRR constants at (p, delta, eps) = (2, 1, 1/2): kappa = {params.kappa}")
print()

g = R.grr_functional(np.linspace(0, 1, 1025), params)
print(f"B for f(x) = x: {g.value:.8f}  (closed form 8/3 = {8 / 3:.8f},"
      f" cutoff sensitivity {g.sensitivity:.1e})")

pinv, phi = R.power_law_pair(params)
got = R.grr_general(pinv, phi, 8.0 / 3.0, 0.5)
want = R.closed_form_bound(params, 8.0 / 3.0, 0.5)
print(f"general Stieltjes integral vs closed form at |x-y| = 1/2: "
      f"{got:.10f} vs {want:.10f}")
print()

print("simulated rough paths, modulus parameters (p, delta, eps) = (8, 1, 1/4):")
rough = R.GrrParams(p=8, delta=1, eps=0.25)
grid = GridSpec(n_interior=127, dt=2e-4, horizon=0.1)
cfg = SimulationConfig(grid=grid, lam=1.0, master_seed=5,
                       u0=InitialData.bump(0.2), observation_times=(0.1,))
print(f"{'sample':>7} {'B':>12} {'max ratio':>10} {'violations':>11}")
ens = simulate_paths(cfg, range(5))
for sample, u in zip(ens.samples, ens.field_at(0.1)):
    prof = np.concatenate([[0.0], u, [0.0]])
    gb = R.grr_functional(prof, rough)
    rep = R.holder_bound_check(prof, rough)
    print(f"{sample:7d} {gb.value:12.4g} {rep.max_ratio:10.3f} "
          f"{rep.n_violations:11d}")
print()
print("white noise is too rough for these exponents and gets flagged:")
noisy = R.grr_functional(np.random.default_rng(0).standard_normal(256), params)
print(f"  divergent = {noisy.divergent}")
