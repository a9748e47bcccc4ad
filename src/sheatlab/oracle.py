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
weights folded in and stored lag-reversed, so that each step's near sum
over every amplitude (lambda k)^2 is one matrix product; the build is a
few batched kernel calls, every diagonal surrogate in one and the dense
lags in chunks of 64. The far field, lags d > L, is exact in modes: the
squared kernel is sum_{k<=l} c_kl e^{-(lam_k + lam_l) tau} psi_kl psi_kl^T
with psi_kl = e_k e_l (sines on Dirichlet, cosines and the constant mode on
Neumann), kept down to 1e-18 of the slowest pair at lag L+1, and eps_d is a
fitted sum of exponentials (Beylkin & Monzon, ACHA 28, 2010). Every
(pair, rate) channel is then a geometric recursion over the projections
<psi_kl, m_j>, which makes a step O(L n_x^2 + pairs * rates) instead of
O(n_t n_x^2) (the near/far split of Lubich & Schaedle, SIAM J. Sci.
Comput. 24, 2002). L comes from a cost model of both parts; L = n_t is the
direct march, which it keeps where no far lag pays.

Growth at large lambda exceeds float range (the rate scales like
(lambda k)^4 / (8 nu)). The march keeps its history and far-field channels
as values / exp(ref) with one log reference per amplitude, rescaled in
place when the newest level leaves e^{+-300}, and stores each row of log m
with its own offset. Every history term is positive, which makes the
rescaled sums exact up to genuinely negligible underflow. A downward
rescale sets what it pushes below the normal float range to 0, so no
subnormal slows the history product.

The module also derives the envelope h(t) = inf_x m(t,x) over the interior
margin, its compensated form H(t) = exp(2 nu pi^2 t) h(t), the L^2 energy
log E_2(t) and the renewal-theory growth-rate scale. Every fit to these
series (rates, rate-extrapolated energies, the quartic-law calibration)
lives in the analysis module.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import logsumexp

from . import kernel as kern
from .solver import InitialData

_D1_MODES = 256
_D1_QUAD_PANELS = 96

# Largest OracleConfig.rate_dt that a time grid resolves: analysis.energy_at
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
        if self.lam < 0 or self.k_sigma <= 0 or self.nu <= 0:
            raise OracleDomainError("lam >= 0, k_sigma > 0, nu > 0 required")
        if self.boundary not in (kern.DIRICHLET, kern.NEUMANN):
            raise OracleDomainError("oracle supports dirichlet and neumann")
        if self.horizon <= 0 or self.n_time_panels < 4 or self.n_x < 3:
            raise OracleDomainError("degenerate grid")

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

    The march took the diagonal surrogate for the first n_diag lags, the
    dense quadrature up to lag n_near and the modal far field, with n_modes
    modes per side and a weight fit whose largest residual is fit_residual,
    beyond it; n_near = n_time_panels (n_modes = 0) is the direct march.
    error_log is the grid-halving self-difference of log m (empty unless
    solved with error_estimate=True).
    """

    config: OracleConfig
    t: np.ndarray
    x: np.ndarray
    log_m: np.ndarray
    n_diag: int
    n_near: int
    n_modes: int
    fit_residual: float
    error_log: np.ndarray | None = None

    @property
    def march(self):
        """The march telemetry, as the manifests record it."""
        return {"n_diag": self.n_diag, "n_near": self.n_near,
                "n_modes": self.n_modes, "fit_residual": self.fit_residual}

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


def _d1_field(cfg: OracleConfig, t_grid, x_grid):
    """Deterministic term D1(t,x) = int g(t,x,y) u0(y) dy via eigenmodes."""
    yq, wq = kern.gauss_legendre_panels(0.0, 1.0, _D1_QUAD_PANELS, 8)
    modes_q, rates = _modes(cfg, yq, _D1_MODES)
    coef = modes_q.T @ (wq * cfg.u0(yq))
    decay = np.exp(-np.outer(t_grid, rates))
    d1 = (decay * coef[None, :]) @ _modes(cfg, x_grid, _D1_MODES)[0].T
    if t_grid[0] == 0.0:
        d1[0] = cfg.u0(x_grid)
    return d1


# Dense lags per eval_kernel call: bounds the (lags, n_x, n_x) temporaries.
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


def _weight_fit(n_t, n_near):
    """Sum of exponentials for the far lags' weight correction.

    The lag weight omega_d sqrt(tau_d) is dt (1 + eps_d) with eps_d about
    1/(16 d^2), whatever dt. Returns (rho, beta, max residual) with
    eps_{L+1+e} ~ sum_q beta_q rho_q^e on the far lags d = L+1..n_t: a
    linear least-squares fit on _FIT_RATES fixed rates spaced geometrically
    from 0.1/n_t to 40/(L+1).
    """
    w_lo, w_hi = _product_weights(1.0, n_t + 1)
    d = np.arange(n_near + 1, n_t + 1, dtype=float)
    eps = (w_hi[n_near:n_t] + w_lo[n_near + 1:]) * np.sqrt(d) - 1.0
    rates = np.geomspace(0.1 / n_t, 40.0 / (n_near + 1), _FIT_RATES)
    basis = np.exp(-np.outer(d - d[0], rates))
    beta = np.linalg.lstsq(basis, eps, rcond=None)[0]
    return np.exp(-rates), beta, float(np.max(np.abs(basis @ beta - eps)))


# Cost model, in history-product multiply-adds per amplitude and step: one
# far-field channel update costs _CHANNEL_COST of them, a far step adds
# _FAR_STEP for its fixed work, and building one dense lag costs
# _BUILD_COST n_x^2 over all amplitudes. Fitted to march times on a 2-core
# x86-64 machine with one BLAS thread; the chosen L stayed within 30% of
# the fastest measured one on the acceptance grids.
_CHANNEL_COST = 8.0
_FAR_STEP = 2.0e4
_BUILD_COST = 40.0


def _split(grid, n_diag, n_amp):
    """Near-lag count L and far mode count M of the cheapest march.

    L = n_t (no far field, M = 0) is the direct march; a split needs
    L >= max(n_diag, 2), since the far field is the resolved quadrature and
    the Psi_0 rule reads lags 1 and 2.
    """
    n_t, n_x = grid.n_time_panels, grid.n_x
    dt = grid.horizon / n_t
    near = np.arange(max(n_diag, 2), n_t + 1)
    # steps before L see i lags, later ones L of them
    dense = near - n_diag
    cost = (n_t * n_diag * n_x
            + (dense * (dense + 1) / 2 + (n_t - near) * dense) * n_x ** 2
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


# A history slice is rescaled once its newest level leaves exp(+-300): far
# enough inside float range that one step's growth and sum cannot overflow.
_RESCALE_LOG = 300.0
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


def _solve_grid(grid: OracleConfig, amps):
    """log m (n_t+1, n_x) for each amplitude (lam k)^2 on one grid, and the
    march's telemetry: the MomentField fields n_diag, n_near, n_modes and
    fit_residual.

    Amplitude 0 is the exact log D1^2. All others march together, one
    history slice hist[j] each. Psi_d = sqrt(tau_d) A_d m_{i-d} enters step
    i with weight w_hi[d-1] + w_lo[d]; the lag-i term (m_0) weighs only
    w_hi[i-1], so its w_lo[i] share is taken off again, and Psi_0 is
    extrapolated from lags 1 and 2. Lags up to n_near (from _split) are the
    near field, one product with the kernels of _lag_kernels
    per step. Later lags are the far field: g^2 = sum over mode pairs p of
    mult_p e^{-rate_p tau} psi_p psi_p^T, and the weight is dt (1 + eps_d)
    with eps_d a fitted sum of exponentials, so every (pair, rate) channel
    is a geometric recursion over the projections <psi_p, m_j>. The history
    and the channels hold values / exp(ref), one log reference per
    amplitude, and each log m row keeps its own offset.
    """
    n_t, n_x = grid.n_time_panels, grid.n_x
    dt = grid.horizon / n_t
    with np.errstate(divide="ignore"):
        log_d1sq = 2.0 * np.log(np.abs(_d1_field(grid, grid.t_grid, grid.x_grid)))
    m0 = grid.u0(grid.x_grid) ** 2
    peak0 = float(np.max(m0))
    if peak0 <= 0:
        raise OracleDomainError("u0 vanishes on the oracle grid")
    # leading lags whose kernel width falls under two cells take the surrogate
    n_diag = 0
    while n_diag < n_t and math.sqrt(4.0 * grid.nu * (n_diag + 1) * dt) < 2.0 / n_x:
        n_diag += 1
    live = sorted(set(amps) - {0.0})
    if not live:
        return [log_d1sq.copy() for _ in amps], dict(
            n_diag=n_diag, n_near=n_t, n_modes=0, fit_residual=0.0)
    n_near, n_modes = _split(grid, n_diag, len(live))

    w_lo, w_hi = _product_weights(dt, n_t + 1)
    omega = w_hi[:n_near] + w_lo[1:n_near + 1]
    diag, dense = _lag_kernels(grid, dt, omega * np.sqrt(np.arange(1, n_near + 1) * dt),
                               n_diag)

    def psi(d, h):
        """Psi_d = sqrt(tau_d) A_d h for a near lag d and one history level
        h (n_amp, n_x)."""
        if d <= n_diag:
            term = h * diag[n_diag - d]
        else:
            term = h @ dense[:, (n_near - d) * n_x:(n_near - d + 1) * n_x].T
        return term / omega[d - 1]

    a = np.array(live)[:, None]
    hist = np.empty((len(live), n_t + 1, n_x))
    log_m = np.empty_like(hist)
    hist[:, 0] = m0 / peak0
    ref = np.full((len(live), 1), math.log(peak0))
    fit_residual = 0.0
    if n_near < n_t:
        pair, rate, mult = _mode_pairs(grid, n_modes)
        rho, beta, fit_residual = _weight_fit(n_t, n_near)
        # channels per pair: the dt part of the weight, one per fitted rate
        # of eps_d, and last the lag-i (m_0) term r_p^{i-L-1} <psi_p, m_0>
        r = np.exp(-rate * dt)
        ratios = r[:, None] * np.concatenate(([1.0], rho, [1.0]))
        weights = np.concatenate(([1.0], beta, [0.0]))
        expand = ((dt / n_x) * mult * np.exp(-rate * (n_near + 1) * dt))[:, None] * pair.T
        state = np.zeros((len(live),) + ratios.shape)
    with np.errstate(divide="ignore"):
        log_m[:, 0] = np.log(hist[:, 0]) + ref
        for i in range(1, n_t + 1):
            nd = min(n_diag, i)
            total = np.einsum("dx,adx->ax", diag[n_diag - nd:], hist[:, i - nd:i])
            if i > n_diag:
                lo = max(0, i - n_near)
                total += (hist[:, lo:i - n_diag].reshape(len(live), -1)
                          @ dense[:, (n_near - i + lo) * n_x:(n_near - n_diag) * n_x].T)
            if i <= n_near:
                total -= w_lo[i] * psi(i, hist[:, 0])
            else:
                state *= ratios
                state[:, :, :-1] += (hist[:, i - n_near - 1] @ pair)[:, :, None]
                if i == n_near + 1:
                    state[:, :, -1] = hist[:, 0] @ pair
                # the m_0 term weighs w_hi[i-1] only: w_lo[i] comes off
                weights[-1] = -w_lo[i] * math.sqrt(i * dt) / dt
                total += (state @ weights) @ expand
            psi0 = psi(1, hist[:, i - 1])
            if i >= 2:
                psi0 = np.maximum(2.0 * psi0 - psi(2, hist[:, i - 2]), 0.0)
            level = np.exp(log_d1sq[i] - ref) + a * (total + w_lo[0] * psi0)
            hist[:, i] = level
            log_m[:, i] = np.log(level) + ref
            log_peak = np.log(np.max(level, axis=1))
            for j in np.flatnonzero(np.abs(log_peak) > _RESCALE_LOG):
                _rescale(hist[j, :i + 1], log_peak[j])
                if n_near < n_t:
                    _rescale(state[j], log_peak[j])
                ref[j] += log_peak[j]
    return ([log_d1sq.copy() if amp == 0.0 else log_m[live.index(amp)] for amp in amps],
            dict(n_diag=n_diag, n_near=n_near, n_modes=n_modes, fit_residual=fit_residual))


def _solve_all(cfgs):
    """(log m, march telemetry) for every config, one _solve_grid per shared
    grid: every OracleConfig field but lam and k_sigma."""
    groups = {}
    for idx, cfg in enumerate(cfgs):
        groups.setdefault(replace(cfg, lam=0.0, k_sigma=1.0), []).append(idx)
    out = [None] * len(cfgs)
    for grid, idxs in groups.items():
        log_ms, telemetry = _solve_grid(
            grid, [(cfgs[i].lam * cfgs[i].k_sigma) ** 2 for i in idxs])
        for i, log_m in zip(idxs, log_ms):
            out[i] = (log_m, telemetry)
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
    grid; the halved grids are grouped the same way.
    """
    cfgs = list(cfgs)
    if any(cfg.n_time_panels % 2 != 0 for cfg in cfgs):
        raise OracleDomainError("n_time_panels must be even for grid halving")
    fine = _solve_all(cfgs)
    errs = [None] * len(cfgs)
    if error_estimate:
        coarse = _solve_all([replace(cfg, n_time_panels=cfg.n_time_panels // 2)
                             for cfg in cfgs])
        errs = [_halving_error(cfg, log_m, log_c)
                for cfg, (log_m, _), (log_c, _) in zip(cfgs, fine, coarse)]
    return [MomentField(config=cfg, t=cfg.t_grid, x=cfg.x_grid, log_m=log_m,
                        error_log=err, **telemetry)
            for cfg, (log_m, telemetry), err in zip(cfgs, fine, errs)]


def second_moment_volterra(cfg: OracleConfig, error_estimate=True) -> MomentField:
    """second_moments for one config."""
    return second_moments([cfg], error_estimate)[0]


@dataclass
class Envelope:
    """h(t) = min of m over the interior margin and H(t) = e^{2 nu pi^2 t} h(t)."""

    t: np.ndarray
    log_h: np.ndarray
    log_big_h: np.ndarray
    gamma: float
    compensation_rate: float
    argmin_x: np.ndarray


def lower_bound_envelope(mf: MomentField, gamma) -> Envelope:
    """Infimum envelope of the moment field over x in [gamma, 1-gamma]."""
    mask = (mf.x >= gamma - 1e-12) & (mf.x <= 1.0 - gamma + 1e-12)
    if not np.any(mask):
        raise OracleDomainError("x grid does not meet [gamma, 1-gamma]")
    sub = mf.log_m[:, mask]
    idx = np.argmin(sub, axis=1)
    rate = 2.0 * mf.config.nu * math.pi ** 2
    log_h = sub[np.arange(sub.shape[0]), idx]
    return Envelope(
        t=mf.t,
        log_h=log_h,
        log_big_h=log_h + rate * mf.t,
        gamma=gamma,
        compensation_rate=rate,
        argmin_x=mf.x[mask][idx],
    )


def log_l2_energy(mf: MomentField):
    """log E_2(t) = (1/2) log int_0^1 m(t,x) dx on the midpoint grid."""
    return 0.5 * (logsumexp(mf.log_m, axis=1) - math.log(mf.config.n_x))


def predicted_rate(lam, k_sigma, nu):
    """Renewal-equation growth-rate scale (lam k)^4 / (8 nu) of the moment."""
    return (lam * k_sigma) ** 4 / (8.0 * nu)
