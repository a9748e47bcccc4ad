"""Per-sample references for the batch engine, used only by the tests.

sample_increments draws one step's cell increments by random access into a
sample's noise stream; step_semi_implicit and step_spectral advance one
sample by one step, the latter on sine-mode coefficients instead of the
nodal field. simulate_paths must reproduce them.
"""

import math

import numpy as np

from sheatlab.noise import NoiseDomainError, NoiseStream, sample_block
from sheatlab.solver import (DIRICHLET, ConfigError, PathDivergedError, SimulationConfig,
                             UnsupportedSchemeError, _implicit_factor, _implicit_solve,
                             _mode_decay, sine_transform)


def sample_increments(stream: NoiseStream, step_index: int):
    """Increment vector dW for one time step, Normal(0, dt*dx) per cell.

    Deterministic in (master_seed, sample_index, step_index, cell): the
    stream prefix is regenerated, so random access costs O(step_index).
    """
    if not (0 <= step_index < stream.grid.n_steps):
        raise NoiseDomainError(
            f"step_index {step_index} outside [0, {stream.grid.n_steps})")
    block, _ = sample_block(stream, step_index + 1)
    return block[step_index]


def step_semi_implicit(state, stream: NoiseStream, step_index, cfg: SimulationConfig,
                       factor=None):
    """One semi-implicit step: solve (I - nu dt L) u' = u + lam sigma(u) dW/dx.

    Random access into the stream costs O(step_index); ensemble drivers use
    the contiguous block path instead and produce identical values.
    """
    state = np.asarray(state, dtype=float)
    if not np.all(np.isfinite(state)):
        raise PathDivergedError(step_index, stream.sample_index)
    if factor is None:
        factor = _implicit_factor(cfg)
    rhs = state.copy()
    if cfg.lam != 0.0:
        dw = sample_increments(stream, step_index)
        rhs += cfg.lam * cfg.sigma(state) * dw / cfg.grid.dx
    out = _implicit_solve(factor, rhs)
    if not np.all(np.isfinite(out)):
        raise PathDivergedError(step_index, stream.sample_index)
    return out


def step_spectral(coeffs, stream: NoiseStream, step_index, cfg: SimulationConfig):
    """One exponential Euler step on sine-mode coefficients (Dirichlet).

    a' = exp(-nu n^2 pi^2 dt) (a + lam <sigma(u), e_n> dW-projection), with
    sigma evaluated in physical space via the DST round trip.
    """
    if cfg.boundary != DIRICHLET:
        raise UnsupportedSchemeError("spectral scheme is Dirichlet only")
    coeffs = np.asarray(coeffs, dtype=float)
    n_modes = coeffs.shape[0]
    if n_modes > cfg.grid.n_interior:
        raise ConfigError("n_modes cannot exceed n_interior")
    if not np.all(np.isfinite(coeffs)):
        raise PathDivergedError(step_index, stream.sample_index)
    decay = _mode_decay(cfg, n_modes)
    sq = math.sqrt(cfg.grid.dx)
    if cfg.lam == 0.0:
        return decay * coeffs
    full = np.zeros(cfg.grid.n_interior)
    full[:n_modes] = coeffs
    u_phys = sine_transform(full) / sq
    dw = sample_increments(stream, step_index)
    modal = sine_transform(cfg.sigma(u_phys) * dw)[:n_modes] / sq
    out = decay * (coeffs + cfg.lam * modal)
    if not np.all(np.isfinite(out)):
        raise PathDivergedError(step_index, stream.sample_index)
    return out
