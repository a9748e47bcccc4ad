"""Reproducible discrete space-time white noise on a uniform lattice.

Cell increments dW_{k,j} are independent Normal(0, dt*dx), one per time step
k and interior cell j. Generation is counter-based (numpy Philox): the key
carries the master seed, counter word 3 carries the sample index, and within
a sample the stream is consumed in a fixed (step, cell) order. Every value is
therefore a pure function of (master_seed, sample_index, step_index, cell),
bit-identical across runs, worker counts, and batch layouts; distinct samples
occupy disjoint counter blocks and are independent. The module needs numpy
only: the sine transform that the spectral scheme applies to the state lives
beside its propagator, as solver.sine_transform.
"""

import math
from dataclasses import dataclass

import numpy as np

_KEY_SALT = 0x9E3779B97F4A7C15  # fixed second key word


class NoiseDomainError(ValueError):
    """Step index or parameter outside the stream's domain."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time lattice for paths on [0,1] x [0,horizon].

    n_interior interior nodes x_j = j*dx with dx = 1/(n_interior+1);
    n_steps = ceil(horizon/dt) time steps of size dt.
    """

    n_interior: int
    dt: float
    horizon: float

    def __post_init__(self):
        # one rule per message, which starts with the field it names
        if self.n_interior < 1:
            raise NoiseDomainError("n_interior must be >= 1")
        if not self.dt > 0:
            raise NoiseDomainError("dt must be > 0")
        if not self.horizon > 0:
            raise NoiseDomainError("horizon must be > 0")

    @property
    def dx(self):
        return 1.0 / (self.n_interior + 1)

    @property
    def n_steps(self):
        return math.ceil(self.horizon / self.dt - 1e-12)

    @property
    def x(self):
        """Interior node positions."""
        return np.arange(1, self.n_interior + 1) * self.dx

    def cfl_ratio(self, nu):
        """Diffusion number nu*dt/dx^2, recorded in run manifests."""
        return nu * self.dt / self.dx ** 2


@dataclass(frozen=True)
class NoiseStream:
    """One ensemble member's noise source on a grid."""

    master_seed: int
    sample_index: int
    grid: GridSpec

    def __post_init__(self):
        if not (0 <= self.sample_index < 2 ** 63):
            raise NoiseDomainError("sample_index out of range")

    def _generator(self):
        key = np.array([self.master_seed & 0xFFFFFFFFFFFFFFFF, _KEY_SALT],
                       dtype=np.uint64)
        counter = np.array([0, 0, 0, self.sample_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))


def sample_block(stream: NoiseStream, n_steps: int, generator=None, out=None):
    """Cell increments for n_steps consecutive steps, shape (n_steps, n_interior).

    Consumes the stream contiguously; pass the returned generator back in to
    continue from where the block ended (the solver's chunked time loop).
    out, a C-contiguous float (n_steps, n_interior) array, is filled in place
    with the same values; returns (block, generator).
    """
    g = generator if generator is not None else stream._generator()
    shape = (n_steps, stream.grid.n_interior)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise NoiseDomainError(f"out has shape {out.shape}, not {shape}")
    g.standard_normal(out=out)
    out *= math.sqrt(stream.grid.dt * stream.grid.dx)
    return out, g

