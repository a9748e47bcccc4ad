"""Time stepping for the stochastic heat equation on [0,1].

    du = nu u_xx dt + lambda sigma(u) dW,   Dirichlet or Neumann boundary,

with sigma from the one family sigma(u) = c u + d sin(u), c > d >= 0
(SigmaSpec); d = 0 is the linear sigma(u) = c u.

Both schemes take the same step map on the physical nodal field,

    u' = P (u + lambda sigma(u) dW / dx),

with sigma and the cell noise applied explicitly at the previous step, and
differ only in the one-step semigroup P:

* semi-implicit finite differences: P = (I - nu dt L)^{-1}, backward Euler
  in the diffusion (one LDL^T factor per config, a LAPACK dpttrs solve per
  step);
* spectral exponential Euler (Dirichlet only): P = S diag(exp(-nu n^2 pi^2
  dt)) S, S the orthonormal sine transform (sine_transform), exact on each
  eigenmode.

These two kernels, scipy.fft's DST-I behind sine_transform and
scipy.linalg.lapack's dpttrs, are the package's only use of scipy.
load_kernels imports both together when a march first builds its P, before
the march allocates its arrays; importing this module loads no scipy.

A batch of samples is stepped as one (k, n) array, one contiguous row per
sample, in chunks of steps. Each sample's noise is drawn straight into its
row of one of two (k, chunk, n) buffers: a producer thread fills the next
chunk into one while the march steps the other (numpy draws without the
GIL), and the march, its chunk stepped, draws the samples the producer has
not reached. The buffers are sized in bytes, not steps: a chunk is
max(1, NOISE_BUFFER_BYTES // (8 k n)) steps, so a march holds at most
2 x NOISE_BUFFER_BYTES of noise whatever its batch, except a batch too
large for one step per buffer, whose one-step buffers are each the size
of its own state. Each sample's generator still consumes its stream in
order, so values depend neither on the chunk length nor on which thread
drew.

Configs that differ only in lambda share their noise, so simulate_group
marches such a group as one (n_lam k, n) state, one block of k rows per
lambda: the buffers hold dW, drawn once per sample for the whole group,
and each block scales it by its own lambda / dx inside the step, rounding
as a lone run does. simulate_paths is the group of one. Each member is
returned as one Ensemble: snapshots at the configured observation times
only, values of shape (k, n_obs, n) filled in place at each observation
step, read as whole (k, n) arrays per time (field_at, log_abs_at). Large
noise intensities drive |u| past float range; for linear sigma (d = 0) the
step map is homogeneous in u, so each sample carries an exact log scale
offset (values * exp(log_scale) is the physical field). A non-finite state
ends its block's march with the offending step and sample reported, as the
PathDivergedError a lone run raises, while the other blocks step on;
clamping would silently distort genuine moment blow-up.
"""

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .kernel import DIRICHLET, NEUMANN
from .noise import GridSpec, NoiseStream, sample_block

RENORM_THRESHOLD = 1e100
_RENORM_CHECK_EVERY = 32
# bytes of each of the two noise buffers: their size, never the values
NOISE_BUFFER_BYTES = 4 << 20


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

    def __reduce__(self):
        # the default would call cls(message): a worker's error reads garbled
        return type(self), (self.step_index, self.sample_index)


@dataclass(frozen=True)
class SigmaSpec:
    """Multiplicative nonlinearity sigma(u) = c u + d sin(u), c > d >= 0,
    with certified constants K_U = c + d and K_L = c - d (|sin u| <= |u|
    gives both); sigma(0) = 0. d = 0 is the linear sigma(u) = c u.
    """

    c: float = 1.0
    d: float = 0.0

    def __post_init__(self):
        if not (self.c > self.d >= 0):
            raise ConfigError("sigma needs c > d >= 0")

    @property
    def lipschitz_upper(self):
        """K_U with |sigma(u) - sigma(v)| <= K_U |u - v|."""
        return self.c + self.d

    @property
    def lower_constant(self):
        """K_L with |sigma(u)| >= K_L |u|."""
        return self.c - self.d

    @property
    def is_homogeneous(self):
        """True when sigma commutes with scaling (exact path renormalization)."""
        return self.d == 0

    def __call__(self, u):
        if self.d == 0:
            return self.c * u
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
    sigma: SigmaSpec = field(default_factory=SigmaSpec)
    u0: InitialData = field(default_factory=InitialData.bump)
    nu: float = 0.5
    boundary: str = DIRICHLET
    scheme: str = "semi_implicit"
    master_seed: int = 0
    observation_times: tuple = ()

    def __post_init__(self):
        # one rule per message, which starts with the field it names
        for field_name, ok, rule in (
                ("boundary", self.boundary in (DIRICHLET, NEUMANN), "dirichlet or neumann"),
                ("scheme", self.scheme in ("semi_implicit", "spectral"),
                 "semi_implicit or spectral"),
                ("nu", self.nu > 0, "> 0"),
                ("lam", self.lam >= 0, ">= 0"),
                ("dt", self.grid.dt <= self.grid.dx * (1 + 1e-12),
                 "<= dx: per-node noise variance dt/dx must stay <= 1")):
            if not ok:
                raise ConfigError(f"{field_name} must be {rule}")
        if self.scheme == "spectral" and self.boundary == NEUMANN:
            raise UnsupportedSchemeError("scheme spectral is Dirichlet only")
        outside = [t for t in self.observation_times
                   if not 0 <= round(t / self.grid.dt) <= self.grid.n_steps]
        if outside:
            raise ConfigError(f"observation_times must lie in [0, horizon]: "
                              f"{outside[0]:g} does not")

    def observation_steps(self):
        """Observation times snapped to the step grid (deduplicated, sorted)."""
        return sorted({int(round(t / self.grid.dt)) for t in self.observation_times})


@dataclass
class Ensemble:
    """Snapshots of a batch of trajectories at the observation times: values
    (k, n_obs, n) and log_scale (k, n_obs), with physical field values[i, j]
    * exp(log_scale[i, j]); log_scale is nonzero only where renormalization
    fired. ens[lo:hi] is samples lo to hi - 1 as an Ensemble view (no copy);
    an int index is a TypeError, as every reader takes whole arrays."""

    config: SimulationConfig
    samples: np.ndarray
    times: np.ndarray
    values: np.ndarray
    log_scale: np.ndarray

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, rows):
        if not isinstance(rows, slice):
            raise TypeError(f"an Ensemble is indexed by slices, not {type(rows).__name__}")
        return replace(self, samples=self.samples[rows], values=self.values[rows],
                       log_scale=self.log_scale[rows])

    def time_index(self, t):
        """Row of observation time t (matched to within half a step)."""
        hits = np.nonzero(np.isclose(self.times, t, rtol=0, atol=self.config.grid.dt / 2))[0]
        if hits.size == 0:
            raise ConfigError(f"time {t:g} not among observation times")
        return int(hits[0])

    def log_abs_at(self, t):
        """log |u| per sample and node at time t, shape (k, n), safe at any
        scale, -inf where u = 0."""
        i = self.time_index(t)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.values[:, i])) + self.log_scale[:, i, None]

    def field_at(self, t):
        """u per sample and node at time t, shape (k, n); +-inf where |u|
        leaves float range."""
        i = self.time_index(t)
        out = self.values[:, i].copy()
        for row, log_scale in enumerate(self.log_scale[:, i]):
            try:
                out[row] *= math.exp(log_scale)
            except OverflowError:    # exp(log_scale) alone overflows; |u| may not
                with np.errstate(divide="ignore", over="ignore"):
                    out[row] = np.sign(out[row]) * np.exp(np.log(np.abs(out[row])) + log_scale)
        return out


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


@functools.cache
def load_kernels():
    """Import both of the march's scipy kernels, whichever the scheme
    needs, so a later march of the other scheme imports nothing; returns
    dpttrs."""
    import scipy.fft  # sine_transform's DST-I
    from scipy.linalg.lapack import dpttrs
    return dpttrs


def sine_transform(values):
    """Orthonormal DST-I along the last axis; its own inverse. Basis rows
    are sin(m pi x_j). scipy.fft is imported on the first call; a march
    has imported it already (load_kernels)."""
    import scipy.fft
    return scipy.fft.dst(values, type=1, norm="ortho")


def _implicit_solve(factor, b):
    """Solve (I - nu dt L) x = b in place; b is (n,) or Fortran (n, k)."""
    x, info = load_kernels()(*factor, b, overwrite_b=1)
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
    u.T, the Fortran (n, k) view of the same memory. Loads both scipy
    kernels (load_kernels).
    """
    load_kernels()
    if cfg.scheme == "spectral":
        decay = _mode_decay(cfg, cfg.grid.n_interior)
        return lambda u: sine_transform(decay * sine_transform(u))
    factor = _implicit_factor(cfg)
    return lambda u: _implicit_solve(factor, u.T).T


def simulate_group(cfgs, sample_indices):
    """March configs that differ only in lam over the same samples as one
    (len(cfgs) k, n) state, one block of k rows per member.

    Each sample's noise is drawn once for the whole group: the buffers hold
    dW, and each member scales it by its own lam / dx inside the step, which
    rounds as a lone run's increments do. Returns, per config, its Ensemble
    (bit-identical to a run of that config alone) or the PathDivergedError
    such a run raises; a diverged member leaves the march and the others
    keep stepping.

    Noise is drawn max(1, NOISE_BUFFER_BYTES // (8 k n)) steps at a time
    for k samples of n nodes, into two buffers of at most
    NOISE_BUFFER_BYTES each. A batch with 8 k n > NOISE_BUFFER_BYTES draws
    one step at a time: its buffers are each the size of its (k, n) state,
    and it makes one generator call per sample per step.
    """
    cfgs = list(cfgs)
    cfg = cfgs[0]
    if any(replace(other, lam=cfg.lam) != cfg for other in cfgs[1:]):
        raise ConfigError("the configs of one group may differ only in lam")
    samples = list(sample_indices)
    grid = cfg.grid
    n, k = grid.n_interior, len(samples)
    obs_steps = cfg.observation_steps()
    if not obs_steps:
        raise ConfigError("no observation times configured")
    obs_row = {step: j for j, step in enumerate(obs_steps)}
    # scipy loads here, before the march's arrays exist
    propagate = _propagator(cfg)
    members = [Ensemble(config=c, samples=np.array(samples, dtype=np.int64),
                        times=np.array(obs_steps) * grid.dt,
                        values=np.empty((k, len(obs_steps), n)),
                        log_scale=np.empty((k, len(obs_steps))))
               for c in cfgs]
    # live[b] is the member stepped in block b, rows b k to (b + 1) k - 1
    live = list(range(len(cfgs)))

    state = np.tile(project_initial(cfg.u0, grid), (len(cfgs) * k, 1))

    log_offset = np.zeros(len(cfgs) * k)
    streams = [NoiseStream(cfg.master_seed, s, grid) for s in samples]
    gens = [st._generator() for st in streams]
    can_renorm = cfg.sigma.is_homogeneous

    def blocks():
        return ((members[m], slice(b * k, (b + 1) * k)) for b, m in enumerate(live))

    def record(step):
        j = obs_row[step]
        for ens, rows in blocks():
            ens.values[:, j, :] = state[rows]
            ens.log_scale[:, j] = log_offset[rows]

    if 0 in obs_row:
        record(0)

    last_step = max(obs_steps)
    chunk = max(1, NOISE_BUFFER_BYTES // (8 * max(k, 1) * n))
    lengths = [min(chunk, last_step - lo) for lo in range(0, last_step, chunk)]
    noisy = any(c.lam != 0.0 for c in cfgs)
    # two buffers: the producer fills one while the march steps the other
    # (with one chunk the second is never touched and costs no memory)
    buffers = [np.empty((k, min(chunk, last_step), n)) for _ in range(2)]
    increment = np.empty((k, n))

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

    step = 0
    todo, pending = deque(range(k)), None
    # the pool starts its thread at the first submit, so a group of lam = 0
    # or a single chunk starts none
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
                # turns it into the diverged member's PathDivergedError
                with np.errstate(over="ignore", invalid="ignore"):
                    if noisy:
                        kick = cfg.sigma(state)
                        for ens, rows in blocks():
                            if ens.config.lam != 0.0:
                                # dW * (lam / dx) first, so the increments
                                # round as a lone run's do
                                np.multiply(noise[:, local], ens.config.lam / grid.dx,
                                            out=increment)
                                kick[rows] *= increment
                                state[rows] += kick[rows]
                    state = propagate(state)
                step += 1
                if step % _RENORM_CHECK_EVERY == 0 or step in obs_row:
                    peak = np.max(np.abs(state), axis=1)
                    bad = ~np.isfinite(peak)
                    if np.any(bad):
                        hit = bad.reshape(len(live), k)
                        kept = ~hit.any(axis=1)
                        for b in np.flatnonzero(~kept):
                            members[live[b]] = PathDivergedError(
                                step, samples[int(np.argmax(hit[b]))])
                        if not kept.any():
                            return members
                        rows = np.repeat(kept, k)
                        state, log_offset, peak = state[rows], log_offset[rows], peak[rows]
                        live = [m for m, keep in zip(live, kept) if keep]
                    if can_renorm:
                        hot = peak > RENORM_THRESHOLD
                        if np.any(hot):
                            state[hot] /= peak[hot, None]
                            log_offset[hot] += np.log(peak[hot])
                if step in obs_row:
                    record(step)
    return members


def simulate_paths(cfg: SimulationConfig, sample_indices) -> Ensemble:
    """Simulate a batch of paths; returns one Ensemble in sample order.

    The one-config case of simulate_group. Pure function of (cfg,
    sample_index): results are bit-identical however samples are grouped
    into batches or distributed over workers. Diverging samples raise
    PathDivergedError; with linear sigma the state is instead rescaled in
    place (exact homogeneity) and the log offset accumulated.
    """
    (ens,) = simulate_group([cfg], sample_indices)
    if isinstance(ens, PathDivergedError):
        raise ens
    return ens

