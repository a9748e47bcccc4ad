"""Time stepping for the stochastic heat equation on [0,1].

    du = nu u_xx dt + lambda sigma(u) dW,   Dirichlet or Neumann boundary.

Both schemes take the same step map on the physical nodal field,

    u' = P (u + lambda sigma(u) dW / dx),

with sigma and the cell noise applied explicitly at the previous step, and
differ only in the one-step semigroup P:

* semi-implicit finite differences: P = (I - nu dt L)^{-1}, backward Euler
  in the diffusion (one LDL^T factor per config, a LAPACK dpttrs solve per
  step);
* spectral exponential Euler (Dirichlet only): P = S diag(exp(-nu n^2 pi^2
  dt)) S, S the orthonormal sine transform, exact on each eigenmode.

A batch of samples is stepped as one (k, n) array, one contiguous row per
sample, in chunks of steps. Each sample's noise is drawn straight into its
row of one of two (k, chunk, n) buffers: a producer thread fills the next
chunk into one while the march steps the other (numpy draws without the
GIL), and the march, its chunk stepped, draws the samples the producer has
not reached. Each sample's generator still consumes its stream in order,
so values depend neither on the chunk length nor on which thread drew.
The batch is returned as one Ensemble: snapshots at the configured
observation times only, values of shape (k, n_obs, n) filled in place at
each observation step. ens[i] is sample i as a SolutionPath view (no
copy). Large noise intensities drive |u| past float range; for linear
sigma the step map is homogeneous in u, so each sample carries an exact log
scale offset (values * exp(log_scale) is the physical field). Non-finite
states abort the batch with the offending step and sample reported;
clamping would silently distort genuine moment blow-up.
"""

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpttrs

from .noise import GridSpec, NoiseStream, sample_block, sine_transform

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

RENORM_THRESHOLD = 1e100
_RENORM_CHECK_EVERY = 32


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class UnsupportedSchemeError(ConfigError):
    """Scheme/boundary combination outside the supported set."""


class PathDivergedError(RuntimeError):
    """Non-finite state encountered; carries step and sample indices."""

    def __init__(self, step_index, sample_index=None):
        super().__init__(
            f"non-finite state at step {step_index}"
            + ("" if sample_index is None else f", sample {sample_index}"))
        self.step_index = step_index
        self.sample_index = sample_index


@dataclass(frozen=True)
class SigmaSpec:
    """Multiplicative nonlinearity with certified Lipschitz constants.

    kind "linear": sigma(u) = k u, K_U = K_L = k.
    kind "linear_plus_sine": sigma(u) = c u + d sin(u) with c > d >= 0,
    K_U = c + d and K_L = c - d (|sin u| <= |u| gives both constants).
    Both satisfy sigma(0) = 0.
    """

    kind: str = "linear"
    k: float = 1.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if self.kind == "linear":
            if self.k <= 0:
                raise ConfigError("linear sigma needs k > 0")
        elif self.kind == "linear_plus_sine":
            if not (self.c > self.d >= 0):
                raise ConfigError("linear_plus_sine needs c > d >= 0")
        else:
            raise ConfigError(f"unknown sigma kind {self.kind!r}")

    @classmethod
    def linear(cls, k=1.0):
        return cls(kind="linear", k=k)

    @classmethod
    def linear_plus_sine(cls, c, d):
        return cls(kind="linear_plus_sine", c=c, d=d)

    @property
    def lipschitz_upper(self):
        """K_U with |sigma(u) - sigma(v)| <= K_U |u - v|."""
        return self.k if self.kind == "linear" else self.c + self.d

    @property
    def lower_constant(self):
        """K_L with |sigma(u)| >= K_L |u|."""
        return self.k if self.kind == "linear" else self.c - self.d

    @property
    def is_homogeneous(self):
        """True when sigma commutes with scaling (exact path renormalization)."""
        return self.kind == "linear"

    def __call__(self, u):
        if self.kind == "linear":
            return self.k * u
        return self.c * u + self.d * np.sin(u)


@dataclass(frozen=True)
class InitialData:
    """Initial profile: a sine eigenmode, an interior bump, or a node table,
    values at x = j/(len+1), linearly interpolated (constant outside)."""

    kind: str
    mode: int = 1
    gamma: float = 0.2
    values: tuple = ()

    @classmethod
    def sine(cls, mode=1):
        if mode < 1:
            raise ConfigError("sine mode must be >= 1")
        return cls(kind="sine", mode=mode)

    @classmethod
    def bump(cls, gamma=0.2):
        if not (0 < gamma < 0.5):
            raise ConfigError("bump gamma must lie in (0, 1/2)")
        return cls(kind="bump", gamma=gamma)

    @classmethod
    def table(cls, values):
        return cls(kind="table", values=tuple(float(v) for v in values))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "sine":
            return np.sin(self.mode * math.pi * x)
        if self.kind == "bump":
            # standard mollifier rescaled to [gamma, 1-gamma], peak 1 at 1/2
            s = (2.0 * x - 1.0) / (1.0 - 2.0 * self.gamma)
            out = np.zeros_like(s)
            inside = np.abs(s) < 1.0
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
            return out
        nodes = np.arange(1, len(self.values) + 1) / (len(self.values) + 1.0)
        return np.interp(x, nodes, self.values)


def project_initial(u0: InitialData, grid: GridSpec):
    """Nodal evaluation of the initial profile on the interior grid."""
    if u0.kind == "table":
        vals = np.asarray(u0.values, dtype=float)
        if vals.shape != (grid.n_interior,):
            raise ConfigError(
                f"table length {vals.size} != n_interior {grid.n_interior}")
        return vals.copy()
    return u0(grid.x)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything determining one path law (and, with a sample index, one path)."""

    grid: GridSpec
    lam: float
    sigma: SigmaSpec = field(default_factory=SigmaSpec.linear)
    u0: InitialData = field(default_factory=InitialData.bump)
    nu: float = 0.5
    boundary: str = DIRICHLET
    scheme: str = "semi_implicit"
    master_seed: int = 0
    observation_times: tuple = ()

    def __post_init__(self):
        if self.boundary not in (DIRICHLET, NEUMANN):
            raise ConfigError(f"unknown boundary {self.boundary!r}")
        if self.scheme not in ("semi_implicit", "spectral"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "spectral" and self.boundary == NEUMANN:
            raise UnsupportedSchemeError("spectral scheme is Dirichlet only")
        if self.nu <= 0:
            raise ConfigError("nu must be positive")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.grid.dt > self.grid.dx * (1 + 1e-12):
            raise ConfigError(
                "dt <= dx required: per-node noise variance dt/dx must stay <= 1")

    def observation_steps(self):
        """Observation times snapped to the step grid (deduplicated, sorted)."""
        dt = self.grid.dt
        steps = sorted({int(round(t / dt)) for t in self.observation_times})
        for k in steps:
            if not (0 <= k <= self.grid.n_steps):
                raise ConfigError(f"observation time {k * dt:g} outside horizon")
        return steps


class _Observed:
    """Time lookup shared by Ensemble and its SolutionPath views."""

    def time_index(self, t):
        """Row of observation time t (matched to within half a step)."""
        hits = np.nonzero(np.isclose(self.times, t, rtol=0, atol=self.config.grid.dt / 2))[0]
        if hits.size == 0:
            raise ConfigError(f"time {t:g} not among observation times")
        return int(hits[0])


@dataclass
class Ensemble(_Observed):
    """Snapshots of a batch of trajectories at the observation times: values
    (k, n_obs, n) and log_scale (k, n_obs), with physical field values[i, j]
    * exp(log_scale[i, j]); log_scale is nonzero only where renormalization
    fired. ens[i] is sample i as a SolutionPath view, ens[lo:hi] samples lo
    to hi - 1 as an Ensemble view."""

    config: SimulationConfig
    samples: np.ndarray
    times: np.ndarray
    values: np.ndarray
    log_scale: np.ndarray

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, samples=self.samples[i], values=self.values[i],
                           log_scale=self.log_scale[i])
        return SolutionPath(config=self.config, sample_index=int(self.samples[i]),
                            times=self.times, values=self.values[i],
                            log_scale=self.log_scale[i])


@dataclass
class SolutionPath(_Observed):
    """One sample of an Ensemble (array views, no copy); the physical field
    at row i is values[i] * exp(log_scale[i])."""

    config: SimulationConfig
    sample_index: int
    times: np.ndarray
    values: np.ndarray
    log_scale: np.ndarray

    def field_at(self, t):
        """u per node; +-inf where |u| leaves float range."""
        i = self.time_index(t)
        try:
            return self.values[i] * math.exp(self.log_scale[i])
        except OverflowError:    # exp(log_scale) alone overflows; |u| may not
            with np.errstate(over="ignore"):
                return np.sign(self.values[i]) * np.exp(self.log_abs_at(t))

    def log_abs_at(self, t):
        """log |u| per node, safe at any scale; -inf where u = 0."""
        i = self.time_index(t)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.values[i])) + self.log_scale[i]


def _implicit_factor(cfg: SimulationConfig):
    """LDL^T factor (d, e) of the tridiagonal I - nu dt L, as LAPACK dpttrf
    returns it; L is the second difference with the Dirichlet closure or the
    Neumann mirror ghost closure.

    The pivot recurrence runs in long double and is rounded once. dpttrf's
    rounding at every pivot biases each solve of the Neumann constant mode,
    which no step damps, by about 4e-16: on n = 127, dt = 2.5e-4 the path
    drifted 1.1e-12 from an extended-precision march in 2000 steps, against
    1.9e-13 with this factor.
    """
    n, dx, dt = cfg.grid.n_interior, cfg.grid.dx, cfg.grid.dt
    main = np.full(n, -2.0) / dx ** 2
    if cfg.boundary == NEUMANN:
        main[0] = main[-1] = -1.0 / dx ** 2  # mirror ghost closure
    off = np.full(n - 1, 1.0) / dx ** 2
    diag = (1.0 - cfg.nu * dt * main).astype(np.longdouble)
    sub = (-cfg.nu * dt * off).astype(np.longdouble)
    d, e = diag.copy(), np.empty_like(sub)
    for i in range(n - 1):
        e[i] = sub[i] / d[i]
        d[i + 1] -= e[i] * sub[i]
    if not np.all(d > 0):
        raise ConfigError("I - nu dt L is not positive definite")
    return d.astype(float), e.astype(float)


def _implicit_solve(factor, b):
    """Solve (I - nu dt L) x = b in place; b is (n,) or Fortran (n, k)."""
    x, info = dpttrs(*factor, b, overwrite_b=1)
    if info != 0:
        raise ConfigError(f"dpttrs rejected its arguments (info {info})")
    return x


def _mode_decay(cfg: SimulationConfig, n_modes):
    n = np.arange(1, n_modes + 1)
    return np.exp(-cfg.nu * (n * math.pi) ** 2 * cfg.grid.dt)


def _propagator(cfg: SimulationConfig):
    """The scheme's one-step semigroup P, acting on physical (k, n) states,
    one C-contiguous row per sample; the semi-implicit P overwrites its input.

    Spectral: P = S diag(exp(-nu n^2 pi^2 dt)) S, S the orthonormal DST-I
    along the rows. Semi-implicit: P = (I - nu dt L)^{-1} by dpttrs on
    u.T, the Fortran (n, k) view of the same memory.
    """
    if cfg.scheme == "spectral":
        decay = _mode_decay(cfg, cfg.grid.n_interior)
        return lambda u: sine_transform(decay * sine_transform(u))
    factor = _implicit_factor(cfg)
    return lambda u: _implicit_solve(factor, u.T).T


def simulate_paths(cfg: SimulationConfig, sample_indices, chunk_steps=128) -> Ensemble:
    """Simulate a batch of paths; returns one Ensemble in sample order.

    Pure function of (cfg, sample_index): results are bit-identical however
    samples are grouped into batches or distributed over workers. Diverging
    samples raise PathDivergedError; with linear sigma the state is instead
    rescaled in place (exact homogeneity) and the log offset accumulated.
    chunk_steps (>= 1) steps of noise are drawn at a time; it sets the
    buffers' size, never the values.
    """
    if chunk_steps < 1:
        raise ConfigError(f"chunk_steps must be >= 1, not {chunk_steps}")
    samples = list(sample_indices)
    grid = cfg.grid
    n, k = grid.n_interior, len(samples)
    obs_steps = cfg.observation_steps()
    if not obs_steps:
        raise ConfigError("no observation times configured")
    obs_row = {step: j for j, step in enumerate(obs_steps)}
    ens = Ensemble(config=cfg, samples=np.array(samples, dtype=np.int64),
                   times=np.array(obs_steps) * grid.dt,
                   values=np.empty((k, len(obs_steps), n)),
                   log_scale=np.empty((k, len(obs_steps))))

    state = np.repeat(project_initial(cfg.u0, grid)[None, :], k, axis=0)
    propagate = _propagator(cfg)

    log_offset = np.zeros(k)
    streams = [NoiseStream(cfg.master_seed, s, grid) for s in samples]
    gens = [st._generator() for st in streams]
    can_renorm = cfg.sigma.is_homogeneous

    def record(step):
        j = obs_row[step]
        ens.values[:, j, :] = state
        ens.log_scale[:, j] = log_offset

    if 0 in obs_row:
        record(0)

    last_step = max(obs_steps)
    lengths = [min(chunk_steps, last_step - lo) for lo in range(0, last_step, chunk_steps)]
    noisy = cfg.lam != 0.0
    scale = cfg.lam / grid.dx
    # two buffers: the producer fills one while the march steps the other
    # (with one chunk the second is never touched and costs no memory)
    buffers = [np.empty((k, min(chunk_steps, last_step), n)) for _ in range(2)]

    def fill(c, todo):
        """Draw chunk c's noise for each sample taken from todo, a deque the
        producer and the march may both take from (popleft is atomic)."""
        noise, length = buffers[c % 2], lengths[c]
        while True:
            try:
                i = todo.popleft()
            except IndexError:
                return noise
            _, gens[i] = sample_block(streams[i], length, generator=gens[i],
                                      out=noise[i, :length])
            # a separate multiply after sample_block's sqrt(dt dx) scaling,
            # so the increments round exactly as dW * (lam / dx)
            noise[i, :length] *= scale

    step = 0
    todo, pending = deque(range(k)), None
    # the pool starts its thread at the first submit, so lam = 0 or a single
    # chunk starts none
    with ThreadPoolExecutor(max_workers=1) as producer:
        for c, block_len in enumerate(lengths):
            if noisy:
                # the producer has been drawing chunk c since chunk c - 1 was
                # stepped; the march draws the samples it has not reached yet,
                # then waits for the one it is drawing
                noise = fill(c, todo)
                if pending is not None:
                    pending.result()
                if c + 1 < len(lengths):
                    todo = deque(range(k))
                    pending = producer.submit(fill, c + 1, todo)
            for local in range(block_len):
                # overflow to inf is legitimate here: the periodic check below
                # converts it into a PathDivergedError with the step reported
                with np.errstate(over="ignore", invalid="ignore"):
                    if noisy:
                        state += cfg.sigma(state) * noise[:, local]
                    state = propagate(state)
                step += 1
                if step % _RENORM_CHECK_EVERY == 0 or step in obs_row:
                    peak = np.max(np.abs(state), axis=1)
                    bad = ~np.isfinite(peak)
                    if np.any(bad):
                        raise PathDivergedError(step, samples[int(np.argmax(bad))])
                    if can_renorm:
                        hot = peak > RENORM_THRESHOLD
                        if np.any(hot):
                            state[hot] /= peak[hot, None]
                            log_offset[hot] += np.log(peak[hot])
                if step in obs_row:
                    record(step)
    return ens


def simulate_path(cfg: SimulationConfig, sample_index) -> SolutionPath:
    """Single realized trajectory; see simulate_paths."""
    return simulate_paths(cfg, [sample_index])[0]
