"""Noise-excitation index: log E_2(t, lambda) grows like lambda^4.

The oracle solves the second-moment Volterra equation on a window that
resolves each growth rate and continues log-linearly to the target time;
the index is the slope of log log E_2 against log lambda.

Run:  python demos/04_excitation_index.py   (about 3 seconds)
"""

from sheatlab.analysis import energy_at, excitation_index
from sheatlab.oracle import OracleConfig, predicted_rate
from sheatlab.solver import InitialData

lams = [8.0, 16.0, 32.0, 64.0]
t_star = 0.1
points = []
print(f"{'lambda':>8} {'log E_2(0.1)':>14} {'fitted rate':>12} {'rate theory':>12}")
for lam in lams:
    cfg = OracleConfig(lam=lam, u0=InitialData.bump(0.2), horizon=t_star,
                       n_time_panels=2500, n_x=31)
    pt = energy_at(cfg, t_star)
    points.append(pt)
    print(f"{lam:8g} {pt.log_energy:14.1f} {pt.rate:12.4g} "
          f"{predicted_rate(lam, 1.0, 0.5):12.4g}")

fit = excitation_index(lams, [p.log_energy for p in points], p=2.0)
print()
print(f"excitation index e2_hat = {fit.e_p_hat:.4f}   (the quartic law gives 4)")
print(f"R^2 of log E_2 against lambda^4: {fit.r2_quartic:.8f}")
print(f"R^2 of log E_2 against lambda^2: {fit.r2_quadratic:.4f}")
