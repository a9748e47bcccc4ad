"""Noise-intensity dichotomy: small lambda dies, large lambda explodes.

The deterministic second-moment oracle (exact for linear sigma) fits the
late-time rate of h(t) = inf_x E[u(t,x)^2] across a lambda grid. Under
Dirichlet conditions the spectral gap wins at small lambda and the noise
wins at large lambda; under Neumann there is no gap and no decay.

Run:  python demos/03_dichotomy.py   (about 5 seconds)
"""

import math

from sheatlab.analysis import oracle_threshold_scan
from sheatlab.oracle import OracleConfig
from sheatlab.solver import InitialData

lams = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
print("Dirichlet, u0 = bump(0.2), horizon T = 4, oracle backend (p = 2)")
base = OracleConfig(lam=0.0, u0=InitialData.bump(0.2), horizon=4.0,
                    n_time_panels=2000, n_x=31)
scan = oracle_threshold_scan(base, lams)
print(f"{'lambda':>8} {'rate of log h':>14}   verdict")
for lam, fit in zip(scan.lams, scan.fits):
    verdict = ("decays" if fit.significantly_negative
               else "grows" if fit.significantly_positive else "unresolved")
    print(f"{lam:8g} {fit.slope:14.2f}   {verdict}")
print()
print(f"empirical bracket: lambda_L = {scan.lambda_l_hat},"
      f" lambda_U = {scan.lambda_u_hat}")
print(f"(deterministic decay rate would be -2 nu pi^2 = {-math.pi ** 2:.2f})")
print()

print("Neumann contrast at lambda = 0.25 (no spectral gap):")
nbase = OracleConfig(lam=0.0, u0=InitialData.bump(0.2), horizon=2.0,
                     boundary="neumann", n_time_panels=800, n_x=31)
nscan = oracle_threshold_scan(nbase, [0.25])
fit = nscan.fits[0]
print(f"  fitted rate {fit.slope:+.4f} +/- {fit.slope_ci:.4f} "
      f"-> not significantly negative: {not fit.significantly_negative}")
