"""Deterministic second moments for linear sigma via the Volterra identity.

For sigma(u) = k u the Ito isometry is an exact identity:

    m(t,x) = D1(t,x)^2
             + lambda^2 k^2 int_0^t int_0^1 g(t-s,x,y)^2 m(s,y) dy ds,

with D1 the deterministic heat propagation of u0. The y-mass of the squared
kernel is g(2(t-s),x,x), so the time integrand carries a (t-s)^{-1/2}
endpoint singularity. The solver uses product integration: the smooth factor
Psi(tau) = sqrt(tau) * int g(tau,x,y)^2 m(t-tau,y) dy is piecewise linear on
the uniform panel grid and the weight tau^{-1/2} is integrated in closed form
over every panel; the tau = 0 endpoint value is extrapolated explicitly from
the two adjacent panels (a plain rectangle rule diverges logarithmically in
accuracy here). Spatial y-integrals use midpoint cells; lags whose kernel
width falls under the cell size switch to the exact diagonal surrogate
m(x) g(2 tau,x,x) instead of an unresolvable quadrature.

The panel weights are evaluated in a cancellation-free closed form, so a
lag weight omega_d sqrt(tau_d) = dt (1 + eps_d) keeps its tiny
eps_d ~ 1/(16 d^2) to roundoff at any d.

Configs that share a grid (every field but lam and k_sigma) are solved by
one march of one renewal engine, which splits the history sum at a lag L.
The near field, lags d <= L, has its lag kernels built once, with the
weights folded in and stored lag-reversed; the build is a few batched
kernel calls, every diagonal surrogate in one and the dense lags in chunks
of 64. The far field, lags d > L, is exact in modes: the
squared kernel is sum_{k<=l} c_kl e^{-(lam_k + lam_l) tau} psi_kl psi_kl^T
with psi_kl = e_k e_l (sines on Dirichlet, cosines and the constant mode on
Neumann), kept down to 1e-18 of the slowest pair at lag L+1, and eps_d is a
fitted sum of exponentials (Beylkin & Monzon, ACHA 28, 2010). Every
(pair, rate) channel is then a geometric recursion over the projections
<psi_kl, m_j>, which makes a step O(L n_x^2 + pairs * rates) instead of
O(n_t n_x^2) (the near/far split of Lubich & Schaedle, SIAM J. Sci.
Comput. 24, 2002). A far-field input is at least L+1 steps old, so the
channels advance once per block of up to 8 steps (at most L+1), by a few
products for the whole block instead of a recursion step per step. The
near field is blocked alike: a step sums only its 7 latest lags, over
every amplitude (lambda k)^2 at once, and each near lag older than that
reads a level from before the block, so the block sums those for all its
steps in a few products.
A grid whose every lag is a diagonal surrogate (large lambda on a short
window) has no quadrature for modes to carry: it keeps lags up to
L = min(32, n_t) and fits each cell's later weighted surrogates, smooth in
the lag, by 64 fixed-rate exponentials, one least-squares fit per grid, so
every (rate, cell) channel is a geometric recursion over m_j(x); such grids
that differ only in the horizon march together, one kernel row per grid.
Any other grid takes L from a cost model of both parts; L = n_t is the
direct march, which it keeps where no far lag pays.

Growth at large lambda exceeds float range (the rate scales like
(lambda k)^4 / (8 nu)). The march keeps its history and far-field channels
as values / exp(ref) with one log reference per amplitude, rescaled in
place when the newest level leaves e^{+-300}. It writes log m =
log(level) + ref of each level from the reference that level was marched
on, once per block and before a rescale moves a reference. Every history
term is positive, which makes the rescaled sums exact up to genuinely
negligible underflow. A downward rescale sets what it pushes below the
normal float range to 0, so no subnormal slows the history product.

The module also derives the envelope h(t) = inf_x m(t,x) over the interior
margin, its compensated form H(t) = exp(2 nu pi^2 t) h(t), the L^2 energy
log E_2(t) and the renewal-theory growth-rate scale. Every fit to these
series (rates, rate-extrapolated energies, the quartic-law calibration)
lives in the analysis module.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernel as kern
from .solver import InitialData
from .stats import logsumexp

_D1_MODES = 256
_D1_QUAD_PANELS = 96

# Largest OracleConfig.rate_dt that a time grid resolves: analysis.energies_at
# extrapolates beyond it, and threshold scans flag fits beyond it.
RESOLVED_RATE_DT = 0.05


class OracleDomainError(ValueError):
    """Invalid oracle configuration or evaluation request."""


@dataclass(frozen=True)
class OracleConfig:
    """Grid and coefficients for one Volterra solve."""

    lam: float
    k_sigma: float = 1.0
    nu: float = 0.5
    boundary: str = kern.DIRICHLET
    u0: InitialData = field(default_factory=InitialData.bump)
    horizon: float = 1.0
    n_time_panels: int = 400
    n_x: int = 31

    def __post_init__(self):
        # one rule per message, which starts with the field it names
        for field_name, ok, rule in (
                ("lam", self.lam >= 0, ">= 0"),
                ("k_sigma", self.k_sigma > 0, "> 0"),
                ("nu", self.nu > 0, "> 0"),
                ("boundary", self.boundary in (kern.DIRICHLET, kern.NEUMANN),
                 "dirichlet or neumann"),
                ("horizon", self.horizon > 0, "> 0"),
                ("n_time_panels", self.n_time_panels >= 4, ">= 4"),
                ("n_x", self.n_x >= 3, ">= 3"),
                ("u0", np.any(self.u0(self.x_grid) ** 2 > 0), "nonzero at some oracle node")):
            if not ok:
                raise OracleDomainError(f"{field_name} must be {rule}")

    @property
    def t_grid(self):
        return np.linspace(0.0, self.horizon, self.n_time_panels + 1)

    @property
    def x_grid(self):
        """Midpoint cells: x_j = (j - 1/2)/n_x, weight 1/n_x each."""
        return (np.arange(self.n_x) + 0.5) / self.n_x

    def kernel_spec(self):
        return kern.KernelSpec(boundary=self.boundary, nu=self.nu)

    @property
    def rate_dt(self):
        """The growth-rate scale times the time step, predicted_rate * dt."""
        return predicted_rate(self.lam, self.k_sigma, self.nu) * self.horizon \
            / self.n_time_panels


@dataclass
class MomentField:
    """Second moments E[u(t,x)^2] on the oracle grid, stored as log m.

    march is the solve's telemetry, as the manifests record it. Its keys:
    the march took the diagonal surrogate for the first n_diag lags, the
    dense quadrature up to lag n_near and the modal far field, with n_modes
    modes per side and a weight fit whose largest residual is fit_residual,
    beyond it; n_near = n_time_panels (n_modes = 0) is the direct march. On
    an all-surrogate grid (n_diag = n_time_panels) no lag has a spatial
    quadrature: n_near = min(32, n_time_panels), n_modes = 0, and the
    surrogates past lag n_near go onto fitted exponential channels,
    fit_residual their largest misfit relative to the surrogate of lag
    n_near + 1. march_s and halving_march_s are the wall seconds of the
    step loops of this solve and of its grid-halving solve (0.0 without
    one), each shared by the configs that marched together.
    error_log is the grid-halving self-difference of log m (empty unless
    solved with error_estimate=True).
    """

    config: OracleConfig
    t: np.ndarray
    x: np.ndarray
    log_m: np.ndarray
    march: dict
    error_log: np.ndarray | None = None

    def log_m_at(self, t, x):
        i = _snap(self.t, t, "t")
        j = _snap(self.x, x, "x")
        return float(self.log_m[i, j])

    def error_log_at(self, t, x):
        if self.error_log is None:
            raise OracleDomainError("no error estimate attached")
        i = _snap(self.t, t, "t")
        j = _snap(self.x, x, "x")
        return float(self.error_log[i, j])


def _snap(grid, value, name):
    i = int(np.argmin(np.abs(grid - value)))
    if abs(grid[i] - value) > 1e-9 + 1e-6 * max(1.0, abs(value)):
        raise OracleDomainError(f"{name} = {value:g} not on the oracle grid")
    return i


def _modes(grid, x, n_modes):
    """Eigenmodes e_k (len(x), .) and rates lam_k, k up to n_modes, with
    g(tau,x,y) = sum_k e^{-lam_k tau} e_k(x) e_k(y): sqrt(2) sin(k pi x)
    from k = 1 (Dirichlet), the constant 1 and sqrt(2) cos(k pi x) from
    k = 0 (Neumann)."""
    if grid.boundary == kern.DIRICHLET:
        k = np.arange(1, n_modes + 1)
        e = math.sqrt(2.0) * np.sin(k[None, :] * math.pi * x[:, None])
    else:
        k = np.arange(n_modes + 1)
        e = math.sqrt(2.0) * np.cos(k[None, :] * math.pi * x[:, None])
        e[:, 0] = 1.0
    return e, grid.nu * (k * math.pi) ** 2


def _d1_coefficients(cfg: OracleConfig):
    """Eigenmode coefficients <e_k, u0> of u0, k up to _D1_MODES, by
    Gauss-Legendre quadrature; they depend on the boundary and u0 only."""
    yq, wq = kern.gauss_legendre_panels(0.0, 1.0, _D1_QUAD_PANELS, 8)
    return _modes(cfg, yq, _D1_MODES)[0].T @ (wq * cfg.u0(yq))


def _d1_field(cfg: OracleConfig, t_grid, x_grid, coef):
    """Deterministic term D1(t,x) = int g(t,x,y) u0(y) dy via eigenmodes, from
    the coefficients coef = _d1_coefficients(cfg)."""
    modes_x, rates = _modes(cfg, x_grid, _D1_MODES)
    # built in place: this (n_t+1, _D1_MODES) table is a solve's memory peak
    decay = np.outer(t_grid, -rates)
    np.exp(decay, out=decay)
    decay *= coef[None, :]
    d1 = decay @ modes_x.T
    if t_grid[0] == 0.0:
        d1[0] = cfg.u0(x_grid)
    return d1


# Dense lags per eval_kernel call, and per product of a block's older dense
# lags: bounds the (lags, n_x, n_x) temporaries and the block's copied
# history windows, so that no table grows with n_t on a direct march.
_LAG_CHUNK = 64


def _lag_kernels(cfg: OracleConfig, dt, lag_weights, n_diag):
    """Weighted squared-kernel y-integration operators for lags 1..n_lags.

    lag_weights[d-1] multiplies lag d. Both arrays are lag-reversed, so that
    a step's lags line up with the history in time order: row b of diag
    (n_diag, n_x) is the surrogate g(2 tau, x, x) of lag n_diag - b, and
    column block b of dense (n_x, (n_lags - n_diag) n_x) is the midpoint
    quadrature (1/n_x) g(tau, x, y)^2 of lag n_lags - b. All surrogates come
    from one batched eval_kernel call, the dense lags from one call per
    _LAG_CHUNK lags.
    """
    n_lags, n_x = len(lag_weights), cfg.n_x
    spec = cfg.kernel_spec()
    x = cfg.x_grid
    rev = np.arange(n_diag, 0, -1)  # lags in row order
    diag = lag_weights[rev - 1, None] * kern.eval_kernel(
        spec, 2.0 * (rev * dt)[:, None], x, x)
    dense = np.empty((n_x, (n_lags - n_diag) * n_x))
    blocks = dense.reshape(n_x, n_lags - n_diag, n_x)
    X, Y = x[:, None], x[None, :]
    for lo in range(n_diag, n_lags, _LAG_CHUNK):
        hi = min(lo + _LAG_CHUNK, n_lags)
        rev = np.arange(hi, lo, -1)  # lags hi..lo+1 fill blocks n_lags-hi..n_lags-lo-1
        g = kern.eval_kernel(spec, (rev * dt)[:, None, None], X, Y)
        g *= g
        g *= (lag_weights[rev - 1] / n_x)[:, None, None]
        blocks[:, n_lags - hi:n_lags - lo] = g.transpose(1, 0, 2)
    return diag, dense


def _product_weights(dt, n_lags):
    """Closed-form panel weights for int tau^{-1/2} * (linear Psi) d tau.

    Panel d spans [(d-1) dt, d dt]; w_hi multiplies Psi(d dt) and w_lo
    multiplies Psi((d-1) dt). Their sum telescopes to 2 sqrt(t). With
    ra = sqrt(d dt) and rb = sqrt((d-1) dt) the differences sqrt(a) - sqrt(b)
    and a^{3/2} - b^{3/2} of the integrals divide out, so no weight loses
    digits to cancellation at large d.
    """
    d = np.arange(1, n_lags + 1, dtype=float)
    ra, rb = np.sqrt(d * dt), np.sqrt((d - 1.0) * dt)
    scale = (2.0 / 3.0) * dt / (ra + rb) ** 2
    return scale * (2.0 * ra + rb), scale * (ra + 2.0 * rb)


# The far field keeps the mode pairs that reach 1e-18 of the slowest pair at
# its first lag, and fits its weight correction with this many exponentials.
_FAR_CUT = math.log(1e18)
_FIT_RATES = 32
# A grid whose every lag is a diagonal surrogate keeps its first
# _SURROGATE_NEAR lags exact and fits each cell's later surrogates with
# _SURROGATE_RATES exponentials (relative residual on criterion 6's
# 2500-panel Dirichlet grids: 5e-9 with 32 rates, 3e-12 with 48, 2e-13
# with 64).
_SURROGATE_NEAR = 32
_SURROGATE_RATES = 64


def _far_modes(grid, tau):
    """Smallest M, elementwise in tau, whose first dropped pair (k0, M+1)
    has decayed e^{-_FAR_CUT} below the slowest pair (k0, k0) by lag time
    tau, k0 being the lowest mode."""
    k0 = 1 if grid.boundary == kern.DIRICHLET else 0
    tau = np.asarray(tau, dtype=float)
    return (np.ceil(np.sqrt(k0 ** 2 + _FAR_CUT / (grid.nu * math.pi ** 2 * tau)))
            - 1).astype(int)


def _mode_pairs(grid, n_modes):
    """Pair vectors psi_kl = e_k e_l (n_x, P) on the midpoint grid, k <= l,
    with their rates lam_k + lam_l and multiplicities (2 off the diagonal):
    g(tau,x,y)^2 = sum_p mult_p e^{-rate_p tau} psi_p(x) psi_p(y) up to the
    dropped pairs."""
    e, lam = _modes(grid, grid.x_grid, n_modes)
    kk, ll = np.triu_indices(len(lam))
    return e[:, kk] * e[:, ll], lam[kk] + lam[ll], np.where(kk == ll, 1.0, 2.0)


def _fixed_rate_fit(values, n_t, n_near, n_rates):
    """Linear least-squares fit values[e] ~ sum_q beta_q rho_q^e, e = 0, 1, ...,
    one column of beta per column of values, on n_rates fixed rates spaced
    geometrically from 0.1/n_t to 40/(n_near+1). Returns (rho, beta, the
    largest residual per column)."""
    rates = np.geomspace(0.1 / n_t, 40.0 / (n_near + 1), n_rates)
    basis = np.exp(-np.outer(np.arange(len(values), dtype=float), rates))
    beta = np.linalg.lstsq(basis, values, rcond=None)[0]
    return np.exp(-rates), beta, np.max(np.abs(basis @ beta - values), axis=0)


def _weight_fit(n_t, n_near):
    """Sum of exponentials for the far lags' weight correction.

    The lag weight omega_d sqrt(tau_d) is dt (1 + eps_d) with eps_d about
    1/(16 d^2), whatever dt. Returns (rho, beta, max residual) with
    eps_{L+1+e} ~ sum_q beta_q rho_q^e on the far lags d = L+1..n_t, fitted
    on _FIT_RATES rates.
    """
    w_lo, w_hi = _product_weights(1.0, n_t + 1)
    d = np.arange(n_near + 1, n_t + 1, dtype=float)
    eps = (w_hi[n_near:n_t] + w_lo[n_near + 1:]) * np.sqrt(d) - 1.0
    rho, beta, residual = _fixed_rate_fit(eps, n_t, n_near, _FIT_RATES)
    return rho, beta, float(residual)


# Cost model, in near-field multiply-adds of a march of several amplitudes,
# per amplitude and step: a march of one amplitude pays _ONE_AMP_NEAR for
# each of its dense ones (its blocked product has 8 rows, not 8 per
# amplitude), one far-field channel update costs _CHANNEL_COST of them, a
# far step adds _FAR_STEP for its fixed work, and building one dense lag
# costs _BUILD_COST n_x^2 over all amplitudes. Fitted to march times of the
# blocked near and far fields on a 2-core x86-64 machine with one BLAS
# thread: the chosen L stays within 5% of the fastest measured one on the
# acceptance grids, a 100-panel march of 7 amplitudes on 15 cells stays
# direct (no split ran faster), and a 200-panel one of 1 amplitude splits,
# which ran as fast as the direct march. Criterion 6's lambda = 8 march
# ran fastest near L = 116, but its modal far field rounds at the scale of
# the row's peak, which its edge cells sit far below: the blocked and
# per-step channels then differ by 1e-12 of log m at L = 113, 1e-13 at 138
# and 3e-14 at 153, where this fit puts it.
_CHANNEL_COST = 5.0
_ONE_AMP_NEAR = 1.4
_FAR_STEP = 3e4
_BUILD_COST = 40.0


def _split(grid, n_diag, n_amp):
    """Near-lag count L and far mode count M of the march.

    A grid whose every lag is a surrogate has no quadrature for modes to
    carry: it keeps L = min(_SURROGATE_NEAR, n_t) (M = 0) and puts its later
    lags on fitted channels. Any other grid takes the cheapest L of the cost
    model: L = n_t (no far field, M = 0) is the direct march; a split needs
    L >= max(n_diag, 2), since the far field is the resolved quadrature and
    the Psi_0 rule reads lags 1 and 2.
    """
    n_t, n_x = grid.n_time_panels, grid.n_x
    if n_diag == n_t:
        return min(_SURROGATE_NEAR, n_t), 0
    dt = grid.horizon / n_t
    near = np.arange(max(n_diag, 2), n_t + 1)
    # steps before L see i lags, later ones L of them
    dense = near - n_diag
    cost = (n_t * n_diag * n_x
            + (dense * (dense + 1) / 2 + (n_t - near) * dense) * n_x ** 2
            * (_ONE_AMP_NEAR if n_amp == 1 else 1.0)
            + _BUILD_COST * dense * n_x ** 2 / n_amp)
    modes = _far_modes(grid, (near + 1) * dt)
    n_k = modes + (grid.boundary != kern.DIRICHLET)  # Neumann adds mode 0
    pairs = n_k * (n_k + 1) / 2
    far = (n_t - near) * (_CHANNEL_COST * (_FIT_RATES + 2) * pairs
                          + 4 * pairs * n_x + _FAR_STEP / n_amp)
    best = int(np.argmin(cost + far))
    if near[best] == n_t:
        return n_t, 0
    return int(near[best]), int(modes[best])


# Each step sums its _STEP_LAGS latest near lags itself. A block of up to
# _BLOCK <= _STEP_LAGS + 1 steps sums every older near lag, which reads a
# level from before the block, once, and advances the far-field channels
# once; _solve_grid caps it at n_near + 1 steps, the most whose far-field
# inputs are all final at the block's first step. The split does not move
# with the block length, so a step's arithmetic does not depend on where
# its block starts: on criterion 4's lambda = 8 cell, which amplifies
# roundoff about a millionfold over its march, summing only the in-block
# lags per step moved log m by 1e-12 between blocks of 8 and of 1.
_STEP_LAGS = 7
_BLOCK = _STEP_LAGS + 1


def _lag_toeplitz(lag):
    """The lower-triangular Toeplitz T[b, c] = lag[b - c] (c <= b), 0 above,
    of a table lag[e, ...] of lag-e coefficients."""
    n = len(lag)
    toeplitz = np.zeros((n, n) + lag.shape[1:])
    for b in range(n):
        toeplitz[b, :b + 1] = lag[b::-1]
    return toeplitz


def _n_diag(grid):
    """The leading lags whose kernel width falls under two cells: they take
    the diagonal surrogate."""
    dt = grid.horizon / grid.n_time_panels
    lags = np.arange(1, grid.n_time_panels + 1)
    return int(np.count_nonzero(np.sqrt(4.0 * grid.nu * lags * dt) < 2.0 / grid.n_x))


# A history slice is rescaled once its newest level leaves exp(+-300): far
# enough inside float range that one step's growth and sum cannot overflow.
# Peaks within exp(+-299) skip the log test: they cannot pass it.
_RESCALE_LOG = 300.0
_CALM = (math.exp(-_RESCALE_LOG + 1.0), math.exp(_RESCALE_LOG - 1.0))
_TINY = np.finfo(float).tiny


def _rescale(h, log_peak):
    """Divide a history slice or far-field state by exp(log_peak) in place.

    A downward rescale sets the entries it takes below the smallest normal
    float in magnitude to exactly 0: they weigh nothing against the O(1)
    newest level, and subnormal operands slow the history product.
    """
    h *= math.exp(-log_peak)
    if log_peak > 0:
        h[np.abs(h) < _TINY] = 0.0


def _solve_grid(grids, amps, d1_coef):
    """log m (n_t+1, n_x) for each amplitude (lam k)^2 of each grid, and each
    grid's march telemetry (MomentField.march but halving_march_s).

    The grids share every OracleConfig field but the horizon, and amps[k]
    lists grid k's amplitudes; several grids march together only where
    every lag is a diagonal surrogate. d1_coef is their _d1_coefficients.
    Amplitude 0 is the exact log D1^2. All others march together, one
    history slice hist[j] and one row of each grid's kernels, weights and
    D1 each. Psi_d = sqrt(tau_d) A_d m_{i-d} enters step i with weight
    w_hi[d-1] + w_lo[d]; the lag-i term (m_0) weighs only w_hi[i-1], so its
    w_lo[i] share is taken off again, and Psi_0 is extrapolated from lags 1
    and 2. Lags up to n_near (from _split) are the near field, with the
    kernels of _lag_kernels. Later lags are the far field.
    On a split grid g^2 = sum over mode pairs p of
    mult_p e^{-rate_p tau} psi_p psi_p^T, and the weight is dt (1 + eps_d)
    with eps_d a fitted sum of exponentials, so every (rate, pair) channel
    is a geometric recursion over the projections <psi_p, m_j>, and the m_0
    term is one more geometric sequence per pair. On an all-surrogate grid
    the weighted surrogate of lag d > n_near is fitted per cell as
    sum_q beta_q(x) rho_q^{d-n_near-1}, so every (rate, cell) channel is a
    geometric recursion over m_j(x), and the m_0 term keeps its exact
    surrogate.

    The steps run in blocks of B = min(_BLOCK, n_near + 1), the far-field
    blocks from step n_near + 1 on. A step sums only its _STEP_LAGS latest
    near lags, the only ones that may read a level of its own block: each
    surrogate lag (elementwise) and each dense lag 1 or 2 (one matrix
    product) by a product of its own, the older dense lags in one matrix
    product. It takes Psi_0 = max(2 Psi_1 - Psi_2, 0), or Psi_1 at step 1,
    from its own products of lags 1 and 2. Every older near lag reads a
    level from before the block, so the block sums them for all its steps
    at once: the surrogate lags in one einsum over a strided window of the
    history, the dense lags in one product of that window with the dense
    kernels per _LAG_CHUNK lags; the history's B - 1 zero levels before
    hist[0] let a window start at any step. Step i reads the far field at
    hist[i - n_near - 1], so a block's far-field inputs are all final at
    its first step, and the channels advance once per block (the blocked
    convolution of Lubich & Schaedle): the block's far-field terms are a
    carry-in from the channel state, a B-lag convolution of its inputs with
    K_e = sum_q w_q (rho_q r_p)^e and, on a split grid, the m_0 sequence and
    one product with the pair expansion; the state then carries out to the
    block's end. Each block's lag-i m_0 corrections w_lo[i] Psi_i(m_0) are
    computed together where lag i is exact. A split grid's channel state is
    rate-major, (rates, amplitudes, pairs), so that each product is one
    matrix product over all amplitudes; an all-surrogate grid's is
    (amplitudes, rates, cells) and takes its products per amplitude, so that
    a batched march gives every amplitude the values of its lone march.
    A block's pending terms, these sums times the amplitude plus
    exp(log D1^2 - ref), are taken once per block, and a step adds its own
    sum times the amplitude to them.

    The history and the channels hold values / exp(ref), one log reference
    per amplitude; a rescale divides an amplitude's history, channels and
    pending block terms alike. log m = log(level) + ref is written from the
    live references at each block's end (the first block also writes level
    0) and, before a rescale, for every level not yet written. The march
    record's march_s is the wall time of the step loop, these log writes
    included, shared by every grid of the march.
    """
    grid = grids[0]
    n_t, n_x = grid.n_time_panels, grid.n_x
    dts = [g.horizon / n_t for g in grids]
    with np.errstate(divide="ignore"):
        log_d1sq = np.array([2.0 * np.log(np.abs(_d1_field(g, g.t_grid, g.x_grid, d1_coef)))
                             for g in grids])
    m0 = grid.u0(grid.x_grid) ** 2
    peak0 = float(np.max(m0))
    n_diag = _n_diag(grid)
    live = [sorted(set(a) - {0.0}) for a in amps]
    gi = np.array([k for k, lv in enumerate(live) for _ in lv], dtype=int)
    n_amp = len(gi)
    if not n_amp:
        return ([[log_d1sq[k].copy() for _ in a] for k, a in enumerate(amps)],
                [dict(n_diag=n_diag, n_near=n_t, n_modes=0, fit_residual=0.0, march_s=0.0)
                 for _ in grids])
    n_near, n_modes = _split(grid, n_diag, n_amp)
    n_exact = max(n_near, n_diag)   # lags with their own kernel: n_near or n_t

    w_lo, w_hi = np.array([_product_weights(dt, n_t + 1) for dt in dts]).transpose(1, 0, 2)
    omega = w_hi[:, :n_exact] + w_lo[:, 1:n_exact + 1]
    kernels = [_lag_kernels(g, dt, om * np.sqrt(np.arange(1, n_exact + 1) * dt), n_diag)
               for g, dt, om in zip(grids, dts, omega)]
    dense = kernels[0][1]   # lags past n_diag exist on a lone grid only
    # each amplitude's row of its grid's arrays
    diag_a = np.array([kernels[k][0] for k in gi])
    omega_a, w_lo_a = omega[gi], w_lo[gi]
    del kernels   # the march holds one surrogate table per amplitude only
    first = np.cumsum([0] + [len(lv) for lv in live])   # each grid's first amplitude

    def m0_terms(lo, hi):
        """w_lo[d] Psi_d(m_0) (n_amp, hi - lo, n_x) of the exact lags
        d = lo..hi-1."""
        h = hist[:, 0]
        mid = min(max(lo, n_diag + 1), hi)   # the lags below mid are surrogates
        terms = np.empty((n_amp, hi - lo, n_x))
        np.multiply(h[:, None], diag_a[:, n_diag - mid + 1:n_diag - lo + 1][:, ::-1],
                    out=terms[:, :mid - lo])
        if mid < hi:
            blocks = dense[:, (n_near - hi + 1) * n_x:(n_near - mid + 1) * n_x]
            np.einsum("xdy,ay->adx", blocks.reshape(n_x, hi - mid, n_x)[:, ::-1], h,
                      out=terms[:, mid - lo:])
        terms /= omega_a[:, lo - 1:hi - 1, None]
        terms *= w_lo_a[:, lo:hi, None]
        return terms

    block = min(_BLOCK, n_near + 1)
    powers = np.arange(block + 1)[:, None]
    fit_residual = [0.0] * len(grids)
    amp_state = []   # each amplitude's view of the far-field channels
    if n_near < n_diag:
        # per-cell channels: each grid's surrogates of lags n_near+1..n_t,
        # relative to the first, in one least-squares fit of its own
        far = [diag_a[j, n_diag - n_near - 1::-1] for j in first[:-1]]
        fits = [_fixed_rate_fit(f / f[0], n_t, n_near, _SURROGATE_RATES) for f in far]
        fit_residual = [np.max(res) for _, _, res in fits]
        beta = np.array([b * f[0] for (_, b, _), f in zip(fits, far)])[gi]
        rho_pow = fits[0][0] ** powers   # the rates depend on n_t and n_near only
        # each amplitude's and cell's K_e = sum_q beta_q rho_q^e, e < B
        toeplitz = _lag_toeplitz((rho_pow[:block] @ beta).swapaxes(0, 1))
        state = np.zeros((n_amp, _SURROGATE_RATES, n_x))
        amp_state = list(state)

        def advance(i0, i1):
            """The far-field terms (n_amp, i1 - i0, n_x) of steps i0..i1-1,
            with the channels carried to step i1 - 1; the products run per
            amplitude, so that a batched march keeps each one's lone values."""
            nb = i1 - i0
            inputs = hist[:, i0 - n_near - 1:i1 - n_near - 1]
            terms = rho_pow[1:nb + 1] @ (beta * state)
            terms += np.einsum("bcax,acx->abx", toeplitz[:nb, :nb], inputs)
            if i1 <= n_t:
                state[...] *= rho_pow[block][:, None]
                state[...] += rho_pow[block - 1::-1].T @ inputs
            return terms
    elif n_near < n_t:
        dt = dts[0]   # a split grid marches alone
        pair, rate, mult = _mode_pairs(grid, n_modes)
        rho, beta, fit_residual[0] = _weight_fit(n_t, n_near)
        # channels rate-major, each over every amplitude and pair: the dt
        # part of the weight and one per fitted rate of eps_d, each kept one
        # decay r_p = e^{-rate_p dt} ahead, and last the lag-i term's
        # r_p^{i-n_near-1} <psi_p, m_0> at the block's first step i
        rho_pow = np.concatenate(([1.0], rho)) ** powers
        w = np.concatenate(([1.0], beta))
        carry_in = np.zeros((block, len(w) + 1))
        carry_in[:, :-1] = w * rho_pow[1:]
        # K_e = r_p^e kappa_e with kappa_e = sum_q w_q rho_q^e, e < B
        toeplitz = _lag_toeplitz(rho_pow[:block] @ w)
        # r_p^b, b <= B, r_p^{-c} and r_p^{B-c}, c < B, and each channel's
        # decay over a block
        r_pow = np.exp(-powers * (rate * dt))[:, None]
        r_inv, r_out = 1.0 / r_pow[:block], r_pow[block:0:-1]
        carry = np.concatenate((rho_pow[block], [1.0]))[:, None, None] * r_pow[block]
        expand = ((dt / n_x) * mult * np.exp(-rate * (n_near + 1) * dt))[:, None] * pair.T
        # the m_0 term weighs w_hi[i-1] only: w_lo[i] comes off
        m0_coef = -w_lo[0] * np.sqrt(np.arange(n_t + 1) * dt) / dt
        state = np.zeros((len(w) + 1, n_amp, len(rate)))
        state[-1] = np.tile(m0 / peak0, (n_amp, 1)) @ pair   # the m_0 sequence
        amp_state = list(state.swapaxes(0, 1))

        def advance(i0, i1):
            """The far-field terms (n_amp, i1 - i0, n_x) of steps i0..i1-1,
            with the channels carried to step i1 - 1."""
            nb = i1 - i0
            inputs = hist[:, i0 - n_near - 1:i1 - n_near - 1].swapaxes(0, 1)
            proj = (inputs.reshape(-1, n_x) @ pair).reshape(nb, n_amp, -1)
            carry_in[:nb, -1] = m0_coef[i0:i1]
            terms = carry_in[:nb] @ state.reshape(len(state), -1)
            # K_e's r_p^e factors out of the convolution
            terms += toeplitz[:nb, :nb] @ (proj * r_inv[:nb]).reshape(nb, -1)
            terms = terms.reshape(proj.shape) * r_pow[:nb]
            if i1 <= n_t:
                state[...] *= carry
                state[:-1] += (rho_pow[block - 1::-1].T
                               @ (proj * r_out).reshape(block, -1)).reshape(state[:-1].shape)
            return (terms.reshape(-1, len(rate)) @ expand).reshape(nb, n_amp, n_x).swapaxes(0, 1)
    # allocated past the fit, so that its temporaries do not add to the
    # history, with block - 1 zero levels before hist[0] for the early
    # blocks' lags that reach past the first level
    a = np.array([amp for lv in live for amp in lv])[:, None]
    pad = block - 1
    buf = np.zeros((n_amp, pad + n_t + 1, n_x))
    hist = buf[:, pad:]
    log_m = np.empty_like(hist)
    hist[:, 0] = m0 / peak0
    ref = np.full((n_amp, 1, 1), math.log(peak0))

    def window(first, nb, lags, flat=False):
        """(n_amp, nb, lags, n_x) view of the history, or (n_amp, nb,
        lags n_x) if flat, whose row b holds the lags levels from first + b."""
        s_amp, s_level, s_x = buf.strides
        shape, strides = ((lags * n_x,), (s_x,)) if flat else ((lags, n_x), (s_level, s_x))
        return np.ndarray((n_amp, nb, *shape), buffer=buf, offset=(pad + first) * s_level,
                          strides=(s_amp, s_level, *strides))

    n_sur = min(n_diag, n_near)   # the near lags 1..n_sur are surrogates
    recent = min(_STEP_LAGS, n_near)   # the lags 1..recent of every step
    low = max(n_diag, recent)   # the older lags past low are dense
    # a block's dense windows of up to _LAG_CHUNK lags, copied for a product
    rows_buf = np.empty(n_amp * block * min(max(n_near - low, 0), _LAG_CHUNK) * n_x)

    def old_lags(i0, i1):
        """The sums (n_amp, i1 - i0, n_x) of the near lags past recent of
        steps i0..i1-1, which all read levels before i0: the surrogate lags
        in one einsum, the dense lags in one product per _LAG_CHUNK lags."""
        nb, reach = i1 - i0, min(n_near, i1 - 1)   # the longest lag of the block
        sums = np.zeros((n_amp, nb, n_x))
        top = min(n_sur, reach)   # the longest surrogate lag
        if top > recent:
            sums += np.einsum("akx,abkx->abx", diag_a[:, n_diag - top:n_diag - recent],
                              window(i0 - top, nb, top - recent))
        for lo in range(low, reach, _LAG_CHUNK):   # the dense lags lo+1..hi
            hi = min(lo + _LAG_CHUNK, reach)
            rows = rows_buf[:n_amp * nb * (hi - lo) * n_x].reshape(n_amp * nb, -1)
            rows.reshape(n_amp, nb, -1)[...] = window(i0 - hi, nb, hi - lo, flat=True)
            sums += (dense[:, (n_near - hi) * n_x:(n_near - lo) * n_x]
                     @ rows.T).T.reshape(n_amp, nb, n_x)
        return sums

    n_own = max(n_sur, 2)   # the lags 1..n_own have a product of their own
    own_dense = {d: dense[:, (n_near - d) * n_x:(n_near - d + 1) * n_x].T
                 for d in range(n_sur + 1, n_own + 1)}
    w_lo0 = w_lo_a[:, :1]
    # dividing by omega_1 / 2 doubles the quotient exactly
    omega_psi = omega_a.T[1::-1, :, None] / np.array([1.0, 2.0])[:, None, None]
    starts = [*range(1, n_near + 1, block), *range(n_near + 1, n_t + 1, block)]
    start = time.perf_counter()
    with np.errstate(divide="ignore"):
        for i0, i1 in zip(starts, starts[1:] + [n_t + 1]):
            pending = old_lags(i0, i1)
            if i0 > n_near:
                pending += advance(i0, i1)
            if i0 <= n_exact:
                pending -= m0_terms(i0, i1)
            pending *= a[:, None]
            pending += np.exp(log_d1sq[gi, i0:i1] - ref)
            flushed = i0 if i0 > 1 else 0   # the first level that log_m lacks
            for b, i in enumerate(range(i0, i1)):
                # the latest lags, which may read the block's levels, and
                # Psi_0 from the last two of their own products
                k = min(recent, i)
                sur, own = min(k, n_sur), min(k, n_own)
                terms = np.empty((own, n_amp, n_x))   # lags own..1
                np.multiply(hist[:, i - sur:i].swapaxes(0, 1),
                            diag_a[:, n_diag - sur:].swapaxes(0, 1), out=terms[own - sur:])
                for d in range(sur + 1, own + 1):
                    np.matmul(hist[:, i - d], own_dense[d], out=terms[own - d])
                if i == 1:
                    total = terms[0] / omega_a[:, :1]   # Psi_1
                else:
                    psi = terms[-2:] / omega_psi   # Psi_2, 2 Psi_1
                    total = np.subtract(psi[1], psi[0])
                    np.maximum(total, 0.0, out=total)
                total *= w_lo0
                total += terms.sum(axis=0)
                if k > own:
                    total += (hist[:, i - k:i - own].reshape(n_amp, -1)
                              @ dense[:, (n_near - k) * n_x:(n_near - own) * n_x].T)
                level = hist[:, i]
                np.multiply(total, a, out=level)
                level += pending[:, b]
                for j, peak in enumerate(level.max(axis=1).tolist()):
                    if _CALM[0] <= peak <= _CALM[1]:
                        continue
                    log_peak = np.log(peak)
                    if abs(log_peak) > _RESCALE_LOG:
                        log_m[:, flushed:i + 1] = np.log(hist[:, flushed:i + 1]) + ref
                        flushed = i + 1
                        _rescale(hist[j, :i + 1], log_peak)
                        _rescale(pending[j, b + 1:], log_peak)
                        if amp_state:
                            _rescale(amp_state[j], log_peak)
                        ref[j] += log_peak
            log_m[:, flushed:i1] = np.log(hist[:, flushed:i1]) + ref
        march_s = time.perf_counter() - start
    return ([[log_d1sq[k].copy() if amp == 0.0 else log_m[first[k] + live[k].index(amp)]
              for amp in a] for k, a in enumerate(amps)],
            [dict(n_diag=n_diag, n_near=n_near, n_modes=n_modes, fit_residual=float(r),
                  march_s=march_s) for r in fit_residual])


def _solve_all(cfgs, d1_coefs):
    """(log m, march telemetry) for every config, one _solve_grid per shared
    grid (every OracleConfig field but lam and k_sigma), where all-surrogate
    grids that differ only in the horizon share one; d1_coefs holds the
    _d1_coefficients of each (boundary, u0)."""
    groups = {}
    for idx, cfg in enumerate(cfgs):
        groups.setdefault(replace(cfg, lam=0.0, k_sigma=1.0), []).append(idx)
    batches = {}
    for grid in groups:
        surrogate = _n_diag(grid) == grid.n_time_panels
        key = (surrogate, replace(grid, horizon=1.0) if surrogate else grid)
        batches.setdefault(key, []).append(grid)
    out = [None] * len(cfgs)
    for grids in batches.values():
        log_ms, telemetry = _solve_grid(
            grids, [[(cfgs[i].lam * cfgs[i].k_sigma) ** 2 for i in groups[g]] for g in grids],
            d1_coefs[grids[0].boundary, grids[0].u0])
        for grid, fields, tel in zip(grids, log_ms, telemetry):
            for i, log_m in zip(groups[grid], fields):
                out[i] = (log_m, tel)
    return out


def _halving_error(cfg, log_m, log_c):
    """|log m - log m_coarse| on the coarse levels, interpolated to the fine grid."""
    with np.errstate(invalid="ignore"):
        diff = np.abs(log_m[::2] - log_c)
    # -inf agreeing with -inf (exact zeros of u0) is exact agreement
    diff = np.where(np.isneginf(log_m[::2]) & np.isneginf(log_c), 0.0, diff)
    coarse_t = replace(cfg, n_time_panels=cfg.n_time_panels // 2).t_grid
    err = np.empty_like(log_m)
    for j in range(log_m.shape[1]):
        err[:, j] = np.interp(cfg.t_grid, coarse_t, diff[:, j])
    return err


def second_moments(cfgs, error_estimate=True) -> list[MomentField]:
    """Solve the second-moment Volterra equation for every config, in input order.

    Configs that differ only in lam and k_sigma share a grid and are solved
    by one march. The error estimate is the log-domain self-difference
    against a solve with half the time panels, interpolated back to the fine
    grid; the halved grids are grouped the same way, and only it needs an
    even n_time_panels.
    """
    cfgs = list(cfgs)
    if error_estimate and any(cfg.n_time_panels % 2 != 0 for cfg in cfgs):
        raise OracleDomainError("n_time_panels must be even for grid halving")
    d1_coefs = {}
    for cfg in cfgs:
        if (cfg.boundary, cfg.u0) not in d1_coefs:
            d1_coefs[cfg.boundary, cfg.u0] = _d1_coefficients(cfg)
    fine = _solve_all(cfgs, d1_coefs)
    errs, halving_s = [None] * len(cfgs), [0.0] * len(cfgs)
    if error_estimate:
        coarse = _solve_all([replace(cfg, n_time_panels=cfg.n_time_panels // 2)
                             for cfg in cfgs], d1_coefs)
        errs = [_halving_error(cfg, log_m, log_c)
                for cfg, (log_m, _), (log_c, _) in zip(cfgs, fine, coarse)]
        halving_s = [march["march_s"] for _, march in coarse]
    return [MomentField(config=cfg, t=cfg.t_grid, x=cfg.x_grid, log_m=log_m,
                        march=dict(march, halving_march_s=h), error_log=err)
            for cfg, (log_m, march), err, h in zip(cfgs, fine, errs, halving_s)]


@dataclass
class Envelope:
    """h(t) = min of m over the interior margin and H(t) = e^{2 nu pi^2 t} h(t)."""

    t: np.ndarray
    log_h: np.ndarray
    log_big_h: np.ndarray
    compensation_rate: float
    argmin_x: np.ndarray


def interior_margin(x, gamma):
    """Mask of the grid points x in [gamma, 1-gamma], which must meet it."""
    mask = (x >= gamma - 1e-12) & (x <= 1.0 - gamma + 1e-12)
    if not np.any(mask):
        raise OracleDomainError("x grid does not meet [gamma, 1-gamma]")
    return mask


def lower_bound_envelope(mf: MomentField, gamma) -> Envelope:
    """Infimum envelope of the moment field over x in [gamma, 1-gamma]."""
    mask = interior_margin(mf.x, gamma)
    sub = mf.log_m[:, mask]
    idx = np.argmin(sub, axis=1)
    rate = 2.0 * mf.config.nu * math.pi ** 2
    log_h = sub[np.arange(sub.shape[0]), idx]
    return Envelope(
        t=mf.t,
        log_h=log_h,
        log_big_h=log_h + rate * mf.t,
        compensation_rate=rate,
        argmin_x=mf.x[mask][idx],
    )


def log_l2_energy(mf: MomentField):
    """log E_2(t) = (1/2) log int_0^1 m(t,x) dx on the midpoint grid."""
    return 0.5 * (logsumexp(mf.log_m, axis=1) - math.log(mf.config.n_x))


def predicted_rate(lam, k_sigma, nu):
    """Renewal-equation growth-rate scale (lam k)^4 / (8 nu) of the moment."""
    return (lam * k_sigma) ** 4 / (8.0 * nu)
