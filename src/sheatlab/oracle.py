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

Configs that share a grid (every field but lam and k_sigma) are solved by
one march. Its lag kernels are built once, with the panel weights folded in
and stored lag-reversed, so that each step's history sum over every
amplitude (lambda k)^2 is one matrix product. The build is a few batched
kernel calls: every diagonal surrogate in one, the dense lags in chunks of
64.

Growth at large lambda exceeds float range (the rate scales like
(lambda k)^4 / (8 nu)). The march keeps its history as m / exp(ref) with one
log reference per amplitude, rescaled in place when the newest level leaves
e^{+-300}, and stores each row of log m with its own offset. Every term is
positive, which makes the rescaled sums exact up to genuinely negligible
underflow. A downward rescale sets what it pushes below the normal float
range to 0, so no subnormal slows the history product.

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

# Largest predicted_rate * dt that a time grid resolves: analysis.energy_at
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


@dataclass
class MomentField:
    """Second moments E[u(t,x)^2] on the oracle grid, stored as log m.

    n_diag is the number of leading lags that took the diagonal surrogate.
    error_log is the grid-halving self-difference of log m (empty unless
    solved with error_estimate=True).
    """

    config: OracleConfig
    t: np.ndarray
    x: np.ndarray
    log_m: np.ndarray
    n_diag: int
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


def _sine_table(x, n_modes):
    n = np.arange(1, n_modes + 1)
    return math.sqrt(2.0) * np.sin(n[None, :] * math.pi * x[:, None])


def _cosine_table(x, n_modes):
    n = np.arange(1, n_modes + 1)
    return math.sqrt(2.0) * np.cos(n[None, :] * math.pi * x[:, None])


def _u0_values(u0, x):
    if u0.kind == "table":
        xs = (np.arange(len(u0.values)) + 1.0) / (len(u0.values) + 1.0)
        return np.interp(x, xs, u0.values)
    return u0(x)


def _d1_field(cfg: OracleConfig, t_grid, x_grid):
    """Deterministic term D1(t,x) = int g(t,x,y) u0(y) dy via eigenmodes."""
    yq, wq = kern.gauss_legendre_panels(0.0, 1.0, _D1_QUAD_PANELS, 8)
    u0q = _u0_values(cfg.u0, yq)
    rates = cfg.nu * (np.arange(1, _D1_MODES + 1) * math.pi) ** 2
    if cfg.boundary == kern.DIRICHLET:
        coef = _sine_table(yq, _D1_MODES).T @ (wq * u0q)
        basis = _sine_table(x_grid, _D1_MODES)
        mean = 0.0
    else:
        coef = _cosine_table(yq, _D1_MODES).T @ (wq * u0q)
        basis = _cosine_table(x_grid, _D1_MODES)
        mean = float(np.dot(wq, u0q))
    decay = np.exp(-np.outer(t_grid, rates))
    d1 = mean + (decay * coef[None, :]) @ basis.T
    if t_grid[0] == 0.0:
        d1[0] = _u0_values(cfg.u0, x_grid)
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
    multiplies Psi((d-1) dt). Their sum telescopes to 2 sqrt(t).
    """
    d = np.arange(1, n_lags + 1, dtype=float)
    a, b = d * dt, (d - 1.0) * dt
    i0 = 2.0 * (np.sqrt(a) - np.sqrt(b))
    i1 = (2.0 / 3.0) * (a ** 1.5 - b ** 1.5)
    w_hi = (i1 - b * i0) / dt
    w_lo = (a * i0 - i1) / dt
    return w_lo, w_hi


# A history slice is rescaled once its newest level leaves exp(+-300): far
# enough inside float range that one step's growth and sum cannot overflow.
_RESCALE_LOG = 300.0
_TINY = np.finfo(float).tiny


def _rescale(h, log_peak):
    """Divide a history slice by exp(log_peak) in place.

    A downward rescale sets the entries it takes below the smallest normal
    float to exactly 0: they weigh nothing against the O(1) newest level,
    and subnormal operands slow the history product.
    """
    h *= math.exp(-log_peak)
    if log_peak > 0:
        h[h < _TINY] = 0.0


def _solve_grid(grid: OracleConfig, amps):
    """log m (n_t+1, n_x) for each amplitude (lam k)^2 on one grid, and n_diag.

    Amplitude 0 is the exact log D1^2. All others march together, one
    history slice hist[j] each. Psi_d = sqrt(tau_d) A_d m_{i-d} enters step
    i with weight w_hi[d-1] + w_lo[d], which the kernels carry, so the whole
    history sum is one product; the lag-i term (m_0) weighs only w_hi[i-1],
    so its w_lo[i] share is taken off again, and Psi_0 is extrapolated from
    lags 1 and 2. The history holds m / exp(ref), one log reference per
    amplitude, and each log m row keeps its own offset.
    """
    n_t, n_x = grid.n_time_panels, grid.n_x
    dt = grid.horizon / n_t
    with np.errstate(divide="ignore"):
        log_d1sq = 2.0 * np.log(np.abs(_d1_field(grid, grid.t_grid, grid.x_grid)))
    m0 = _u0_values(grid.u0, grid.x_grid) ** 2
    peak0 = float(np.max(m0))
    if peak0 <= 0:
        raise OracleDomainError("u0 vanishes on the oracle grid")
    # leading lags whose kernel width falls under two cells take the surrogate
    n_diag = 0
    while n_diag < n_t and math.sqrt(4.0 * grid.nu * (n_diag + 1) * dt) < 2.0 / n_x:
        n_diag += 1
    live = sorted(set(amps) - {0.0})
    if not live:
        return [log_d1sq.copy() for _ in amps], n_diag

    w_lo, w_hi = _product_weights(dt, n_t + 1)
    omega = w_hi[:n_t] + w_lo[1:]
    diag, dense = _lag_kernels(grid, dt, omega * np.sqrt(np.arange(1, n_t + 1) * dt),
                               n_diag)

    def psi(d, h):
        """Psi_d = sqrt(tau_d) A_d h for one history level h (n_amp, n_x)."""
        if d <= n_diag:
            term = h * diag[n_diag - d]
        else:
            term = h @ dense[:, (n_t - d) * n_x:(n_t - d + 1) * n_x].T
        return term / omega[d - 1]

    a = np.array(live)[:, None]
    hist = np.empty((len(live), n_t + 1, n_x))
    log_m = np.empty_like(hist)
    hist[:, 0] = m0 / peak0
    ref = np.full((len(live), 1), math.log(peak0))
    with np.errstate(divide="ignore"):
        log_m[:, 0] = np.log(hist[:, 0]) + ref
        for i in range(1, n_t + 1):
            nd = min(n_diag, i)
            total = np.einsum("dx,adx->ax", diag[n_diag - nd:], hist[:, i - nd:i])
            if i > n_diag:
                total += (hist[:, :i - n_diag].reshape(len(live), -1)
                          @ dense[:, (n_t - i) * n_x:(n_t - n_diag) * n_x].T)
            total -= w_lo[i] * psi(i, hist[:, 0])
            psi0 = psi(1, hist[:, i - 1])
            if i >= 2:
                psi0 = np.maximum(2.0 * psi0 - psi(2, hist[:, i - 2]), 0.0)
            level = np.exp(log_d1sq[i] - ref) + a * (total + w_lo[0] * psi0)
            hist[:, i] = level
            log_m[:, i] = np.log(level) + ref
            log_peak = np.log(np.max(level, axis=1))
            for j in np.flatnonzero(np.abs(log_peak) > _RESCALE_LOG):
                _rescale(hist[j, :i + 1], log_peak[j])
                ref[j] += log_peak[j]
    return [log_d1sq.copy() if amp == 0.0 else log_m[live.index(amp)]
            for amp in amps], n_diag


def _solve_all(cfgs):
    """(log m, n_diag) for every config, one _solve_grid per shared grid:
    every OracleConfig field but lam and k_sigma."""
    groups = {}
    for idx, cfg in enumerate(cfgs):
        groups.setdefault(replace(cfg, lam=0.0, k_sigma=1.0), []).append(idx)
    out = [None] * len(cfgs)
    for grid, idxs in groups.items():
        log_ms, n_diag = _solve_grid(
            grid, [(cfgs[i].lam * cfgs[i].k_sigma) ** 2 for i in idxs])
        for i, log_m in zip(idxs, log_ms):
            out[i] = (log_m, n_diag)
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
                        n_diag=n_diag, error_log=err)
            for cfg, (log_m, n_diag), err in zip(cfgs, fine, errs)]


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
