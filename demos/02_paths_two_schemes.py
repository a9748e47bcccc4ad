"""Simulate one noisy trajectory with both schemes sharing a noise stream.

Run:  python demos/02_paths_two_schemes.py
"""

import numpy as np

from sheatlab.noise import GridSpec
from sheatlab.solver import InitialData, SimulationConfig, simulate_paths

grid = GridSpec(n_interior=63, dt=2.5e-4, horizon=0.25)
base = dict(grid=grid, lam=1.0, master_seed=7, u0=InitialData.sine(1),
            observation_times=(0.05, 0.25))

# sample 0 of each scheme: row 0 of each one-sample ensemble
pf = simulate_paths(SimulationConfig(scheme="semi_implicit", **base), [0])
ps = simulate_paths(SimulationConfig(scheme="spectral", **base), [0])

print("stochastic heat equation, lambda = 1, sigma(u) = u, Dirichlet")
print(f"grid: {grid.n_interior} interior nodes, dt = {grid.dt}, T = {grid.horizon}")
print()
for t in (0.05, 0.25):
    uf, us = pf.field_at(t)[0], ps.field_at(t)[0]
    print(f"t = {t}:")
    print(f"  semi-implicit: max u = {uf.max(): .5f}  at x = "
          f"{grid.x[np.argmax(uf)]:.3f}")
    print(f"  spectral     : max u = {us.max(): .5f}  at x = "
          f"{grid.x[np.argmax(us)]:.3f}")
    print(f"  pathwise sup difference (shared noise): {np.max(np.abs(uf - us)):.2e}")
print()

print("the deterministic limit decays on the first eigenmode exactly:")
quiet = SimulationConfig(lam=0.0, **{k: v for k, v in base.items() if k != "lam"})
decay = simulate_paths(quiet, [0]).field_at(0.25)[0].max()
print(f"  max u(0.25) = {decay:.6f}  vs exp(-nu pi^2 t) = "
      f"{np.exp(-0.5 * np.pi ** 2 * 0.25):.6f}")
print()

print("reproducibility: same (config, sample) twice, any batch shape:")
again = simulate_paths(SimulationConfig(scheme="semi_implicit", **base), [0])
print("  bit-identical:", np.array_equal(pf.values, again.values))
