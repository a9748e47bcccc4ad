"""Asymptotic-rate estimation and numerical lemma verification.

Fits finite-horizon surrogates of the asymptotic quantities: moment Lyapunov
exponents (slope of log moment vs t), the noise-excitation index (slope of
log log E_p vs log lambda), and stability thresholds (largest lambda with
significantly negative slope, smallest with significantly positive).
"Significant" means the 95% confidence interval of the weighted fit excludes
zero. Fits report their window; no convergence-rate claim toward the true
limits is made. The same windowed line fit gives oracle L^2 energies (with an
exponential-regime extrapolation for rates no affordable grid resolves) and
the growth-rate calibration against the quartic noise law.

Also evaluates the weighted kernel integrals

    I(t,x) = int_0^t e^{beta s} s^{-alpha} int_0^1 g(s,x,y)^{2-alpha} dy ds

behind the two quadrature-bound lemmas. For beta < 0 the bound's
|beta|^{(alpha-1)/2} shape comes from majorizing g_D by the free kernel (the
Dirichlet integral itself saturates as beta -> 0-, because the spectral gap
keeps it finite at beta = 0), so the exponent check runs on the free-kernel
majorant and the domination step is verified separately. The threshold blow-up
1/((2-alpha) nu pi^2 - beta) is genuine for the Dirichlet kernel and is
checked on it directly.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernel as kern
from . import oracle as ora

TIME = "time"
LOG_LAMBDA = "log_lambda"


class AnalysisError(ValueError):
    """Degenerate fit input or violated ordering assertion."""


@dataclass(frozen=True)
class RateFit:
    """Weighted straight-line fit of a log quantity against an abscissa."""

    abscissa: str
    slope: float
    slope_ci: float
    intercept: float
    r_squared: float
    window: tuple
    n_points: int
    n_dropped: int
    points: tuple

    @property
    def significantly_negative(self):
        return self.slope + self.slope_ci < 0.0

    @property
    def significantly_positive(self):
        return self.slope - self.slope_ci > 0.0


def _weighted_line_fit(x, y, sigma, abscissa, window):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    if sigma is None:
        sigma = np.zeros_like(x)
    else:
        sigma = np.asarray(sigma, dtype=float)
        keep &= np.isfinite(sigma)
    n_dropped = int(np.sum(~keep))
    x, y, sigma = x[keep], y[keep], sigma[keep]
    if len(x) < 3:
        raise AnalysisError(f"need >= 3 finite points, have {len(x)}")
    if np.all(sigma <= 0):
        w = np.ones_like(x)
        known_var = False
    else:
        floor = max(np.min(sigma[sigma > 0]) * 1e-3, 1e-300)
        w = 1.0 / np.maximum(sigma, floor) ** 2
        known_var = True
    sw = np.sum(w)
    xb = np.sum(w * x) / sw
    yb = np.sum(w * y) / sw
    sxx = np.sum(w * (x - xb) ** 2)
    if sxx <= 0:
        raise AnalysisError("degenerate abscissa grid")
    slope = np.sum(w * (x - xb) * (y - yb)) / sxx
    intercept = yb - slope * xb
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    if known_var:
        # stated-variance SE, inflated when the scatter exceeds the bars
        chi2red = float(np.sum(w * resid ** 2)) / dof
        se = math.sqrt(1.0 / sxx) * max(1.0, math.sqrt(chi2red))
    else:
        se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    ss_tot = float(np.sum(w * (y - yb) ** 2))
    r2 = 1.0 - float(np.sum(w * resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        abscissa=abscissa,
        slope=float(slope),
        slope_ci=1.96 * se,
        intercept=float(intercept),
        r_squared=r2,
        window=window,
        n_points=len(x),
        n_dropped=n_dropped,
        points=tuple(zip(x.tolist(), y.tolist())),
    )


def fraction_window(t_end, fraction):
    """Fit window (f0 t_end, f1 t_end) for horizon fractions of a grid from t = 0."""
    return (fraction[0] * t_end, fraction[1] * t_end)


def lyapunov_exponent(estimates, window=None) -> RateFit:
    """Finite-horizon Lyapunov-exponent fit from streaming moment estimates.

    estimates: MomentEstimates of one functional at increasing observation
    times. Non-finite log moments are dropped and counted.
    """
    ests = sorted(estimates, key=lambda e: e.t)
    f0 = ests[0].functional
    if any(e.functional != f0 for e in ests):
        raise AnalysisError("estimates mix functionals")
    return lyapunov_exponent_series([e.t for e in ests], [e.log_mean for e in ests],
                                    [e.log_ci_half_width / 1.96 for e in ests], window)


def lyapunov_exponent_series(t, log_values, sigmas=None, window=None) -> RateFit:
    """Same fit from a plain (t, log value) series, e.g. the oracle envelope;
    window (lo, hi) keeps lo <= t <= hi, None keeps every point."""
    t = np.asarray(t, dtype=float)
    log_values = np.asarray(log_values, dtype=float)
    if window is None:
        mask, window = np.ones(len(t), dtype=bool), (t[0], t[-1])
    else:
        mask = (t >= window[0] - 1e-15) & (t <= window[1] + 1e-15)
    sig = None if sigmas is None else np.asarray(sigmas, dtype=float)[mask]
    return _weighted_line_fit(t[mask], log_values[mask], sig, TIME,
                              (float(window[0]), float(window[1])))


@dataclass(frozen=True)
class ExcitationFit:
    """log log E_p vs log lambda fit plus the direct growth-law diagnostics."""

    index: RateFit
    r2_quartic: float
    r2_quadratic: float
    p: float
    dropped_lambdas: tuple

    @property
    def e_p_hat(self):
        return self.index.slope


def excitation_index(lams, log_energies, log_cis=None, p=2.0) -> ExcitationFit:
    """Noise-excitation index from energies over a geometric lambda grid.

    Points with E_p <= 1 cannot enter log log and are dropped with a flag.
    The quartic-vs-quadratic diagnostic fits log E_p against lambda^4 and
    lambda^2 (unweighted) and reports both R^2.
    """
    lams = np.asarray(lams, dtype=float)
    log_e = np.asarray(log_energies, dtype=float)
    if len(lams) < 4:
        raise AnalysisError("need a lambda grid with >= 4 points")
    if np.any(np.diff(lams) <= 0):
        raise AnalysisError("lambda grid must be increasing")
    ratios = lams[1:] / lams[:-1]
    if np.max(ratios) / np.min(ratios) > 1.5:
        raise AnalysisError("lambda grid must be (approximately) geometric")
    ok = log_e > 0
    dropped = tuple(float(v) for v in lams[~ok])
    if np.sum(ok) < 4:
        raise AnalysisError("fewer than 4 lambdas with E_p > 1")
    x = np.log(lams[ok])
    y = np.log(log_e[ok])
    sig = None
    if log_cis is not None:
        sig = np.asarray(log_cis, dtype=float)[ok] / 1.96 / log_e[ok]
    fit = _weighted_line_fit(x, y, sig, LOG_LAMBDA, (float(x[0]), float(x[-1])))

    def shape_r2(power):
        xs = lams[ok] ** power
        return _weighted_line_fit(xs, log_e[ok], None, f"lambda^{power}",
                                  (float(xs[0]), float(xs[-1]))).r_squared

    return ExcitationFit(index=fit, r2_quartic=shape_r2(4), r2_quadratic=shape_r2(2),
                         p=p, dropped_lambdas=dropped)


@dataclass(frozen=True)
class ThresholdScan:
    """Empirical stability/growth bracket over a lambda grid; an oracle scan
    flags each fit whose OracleConfig.rate_dt exceeds oracle.RESOLVED_RATE_DT
    (the fit still counts toward the bracket) and records its shared grid's
    march telemetry (MomentField.march)."""

    lams: tuple
    fits: tuple
    lambda_l_hat: float | None
    lambda_u_hat: float | None
    rate_dt: tuple = ()
    resolved: tuple = ()
    march: dict | None = None


def classify_thresholds(lams, fits) -> ThresholdScan:
    """Largest significantly-negative and smallest significantly-positive lambda.

    One-sided results (no sign change in range) are reported, not errors;
    an inverted bracket is an error.
    """
    neg = [lam for lam, f in zip(lams, fits) if f.significantly_negative]
    pos = [lam for lam, f in zip(lams, fits) if f.significantly_positive]
    lam_l = max(neg) if neg else None
    lam_u = min(pos) if pos else None
    if lam_l is not None and lam_u is not None and lam_l > lam_u:
        raise AnalysisError(f"inverted bracket: lambda_L={lam_l} > lambda_U={lam_u}")
    return ThresholdScan(lams=tuple(lams), fits=tuple(fits),
                         lambda_l_hat=lam_l, lambda_u_hat=lam_u)


def oracle_threshold_scan(base: ora.OracleConfig, lams, gamma=0.2,
                          window_fraction=(0.5, 1.0)) -> ThresholdScan:
    """Threshold scan driven by the p = 2 oracle envelope h(t); every lambda
    is solved on base's grid and coefficients, all in one oracle march."""
    fits = []
    cfgs = [replace(base, lam=float(lam)) for lam in lams]
    mfs = ora.second_moments(cfgs, error_estimate=False)
    for mf in mfs:
        env = ora.lower_bound_envelope(mf, gamma)
        fits.append(lyapunov_exponent_series(
            env.t, env.log_h, window=fraction_window(env.t[-1], window_fraction)))
    rate_dt = tuple(cfg.rate_dt for cfg in cfgs)
    return replace(classify_thresholds(list(lams), fits), rate_dt=rate_dt,
                   resolved=tuple(r <= ora.RESOLVED_RATE_DT for r in rate_dt),
                   march=mfs[0].march if mfs else None)


@dataclass
class Theorem31Calibration:
    """Quartic growth-law fit of oracle rates across a lambda grid."""

    lams: tuple
    k_lower: float
    slopes: tuple
    slope_ses: tuple
    intercepts: tuple
    kappa2_hat: float
    kappa1_hat: float
    r2_quartic: float
    r2_quadratic: float
    window: tuple


def theorem31_calibration(series, k_lower, nu=0.5, window=(0.5, 1.0)):
    """Fit late-time rates of log h and regress them on the quartic noise law.

    series: list of (lam, t_grid, log_h) with one common t grid starting at
    t = 0; window holds the fit's horizon fractions. The rate model is
    slope(lam) + 2 nu pi^2 = kappa2 * lam^4 K_L^4, fitted through the
    origin; R^2 against the quadratic alternative lam^2 K_L^2 is reported
    for comparison. kappa1_hat is the geometric mean level of h at the fit
    origin.
    """
    if len(series) < 4:
        raise AnalysisError("need at least 4 lambda values")
    t0 = np.asarray(series[0][1], dtype=float)
    for lam, t, _ in series[1:]:
        if len(t) != len(t0) or not np.allclose(t, t0, rtol=0, atol=1e-12):
            raise AnalysisError("series must share one common t grid")
    lams = tuple(float(lam) for lam, _, _ in series)
    fits = [lyapunov_exponent_series(t, log_h, window=fraction_window(t[-1], window))
            for _, t, log_h in series]
    y = np.array([f.slope for f in fits]) + 2.0 * nu * math.pi ** 2

    def through_origin_r2(xpow):
        xv = (np.array(lams) * k_lower) ** xpow
        coef = float(np.dot(xv, y) / np.dot(xv, xv))
        resid = y - coef * xv
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        return coef, 1.0 - float(np.sum(resid ** 2)) / ss_tot

    kappa2, r2_quartic = through_origin_r2(4)
    _, r2_quadratic = through_origin_r2(2)
    if kappa2 <= 0:
        raise AnalysisError("fitted kappa2 is not positive")
    intercepts = tuple(f.intercept for f in fits)
    return Theorem31Calibration(
        lams=lams, k_lower=float(k_lower), slopes=tuple(f.slope for f in fits),
        slope_ses=tuple(f.slope_ci / 1.96 for f in fits), intercepts=intercepts,
        kappa2_hat=kappa2, kappa1_hat=float(math.exp(np.mean(intercepts))),
        r2_quartic=r2_quartic, r2_quadratic=r2_quadratic, window=tuple(window))


@dataclass
class EnergyPoint:
    """Oracle E_2 at one (t, lambda), possibly rate-extrapolated.

    error_log is the solve's largest grid-halving error of log m at its
    horizon, plus the carried slope error when extrapolated; march is the
    solve's march telemetry (MomentField.march; n_diag = n_time_panels
    means no lag had a spatial quadrature).
    """

    lam: float
    t: float
    log_energy: float
    rate: float
    rate_se: float
    window_horizon: float
    extrapolated: bool
    error_log: float
    march: dict


def energy_at(cfg: ora.OracleConfig, t_target, rate_budget=30.0,
              window=(0.6, 1.0)) -> EnergyPoint:
    """log E_2(t_target, lambda), by direct solve when the grid resolves the
    growth rate and by exponential-regime extrapolation otherwise.

    The extrapolation solves on the window T = rate_budget / r_pred, fits the
    slope of log int m dx over the horizon fractions `window`, and continues
    log-linearly; beyond the transient (a few 1/r) the envelope is a clean
    exponential, so the carried error is the slope's fit error times the
    remaining span.
    """
    resolvable = replace(cfg, horizon=t_target).rate_dt <= ora.RESOLVED_RATE_DT
    r_pred = ora.predicted_rate(cfg.lam, cfg.k_sigma, cfg.nu)
    horizon = t_target if resolvable else min(t_target, rate_budget / r_pred)
    mf = ora.second_moment_volterra(replace(cfg, horizon=horizon), error_estimate=True)
    log_e = ora.log_l2_energy(mf)
    fit = lyapunov_exponent_series(mf.t, 2.0 * log_e,
                                   window=fraction_window(mf.t[-1], window))
    slope, se = fit.slope, fit.slope_ci / 1.96
    err = float(np.max(mf.error_log[-1]))
    if resolvable:
        return EnergyPoint(cfg.lam, t_target, float(log_e[-1]), slope, se,
                           horizon, False, err, mf.march)
    span = t_target - horizon
    log_e_t = float(log_e[-1]) + 0.5 * slope * span
    return EnergyPoint(cfg.lam, t_target, log_e_t, slope, se + err / horizon,
                       horizon, True, err + se * span, mf.march)


# --- weighted kernel integrals behind the quadrature-bound lemmas ---------

@dataclass(frozen=True)
class IntegralBoundReport:
    alpha: float
    betas: tuple
    sups: tuple
    c_hats: tuple
    fitted_exponent: float
    expected_exponent: float
    kernel: str
    threshold: float | None = None
    domination_checked: bool = False
    refinement_change: float = 0.0


def _free_inner(nu, alpha, s):
    """Closed form int_R g(s,x,y)^{2-alpha} dy for the free kernel."""
    return (4.0 * math.pi * nu * s) ** (-(1.0 - alpha) / 2.0) / math.sqrt(2.0 - alpha)


def integral_bound_value(spec: kern.KernelSpec, alpha, beta, x, t_max,
                         n_panels=48, n_y=512, smalltime_switch=1e-6):
    """Quadrature of int_0^{t_max} e^{beta s} s^{-alpha} F(s,x) ds.

    F(s,x) = int_0^1 |g(s,x,y)|^{2-alpha} dy, in closed form over R for a
    FREE spec. The s -> 0 endpoint behaves like s^{-(1+alpha)/2}; the
    substitution s = xi^{2/(1-alpha)} makes the transformed integrand
    bounded. Below `smalltime_switch` the Dirichlet inner integral is
    replaced by its free-kernel limit (boundary images are exponentially
    negligible there and no y grid can resolve the kernel).
    """
    return sum(_integral_parts(spec, alpha, beta, x, t_max, n_panels, n_y,
                               smalltime_switch))


def _integral_parts(spec, alpha, beta, x, t_max, n_panels=48, n_y=512,
                    smalltime_switch=1e-6):
    """integral_bound_value's parts over [0, min(t_max, 1)] and [1, t_max]."""
    if not (0 < alpha < 1):
        raise AnalysisError("alpha must lie in (0,1)")
    q = 2.0 / (1.0 - alpha)
    yq, wq = kern.gauss_legendre_panels(0.0, 1.0, max(1, n_y // 16), 16)
    t_sub = min(t_max, 1.0)
    xi, xi_w = kern.gauss_legendre_panels(0.0, t_sub ** (1.0 / q), n_panels, 8)
    s = xi ** q
    inner = _free_inner(spec.nu, alpha, s)
    # all head nodes above smalltime_switch in one batched kernel call
    resolved = (s >= smalltime_switch) & (spec.boundary != kern.FREE)
    if np.any(resolved):
        g = np.abs(kern.eval_kernel(spec, s[resolved, None], x, yq))
        inner[resolved] = g ** (2.0 - alpha) @ wq
    head = float(np.dot(xi_w * q * xi ** (q - 1.0),
                        np.exp(beta * s) * s ** (-alpha) * inner))
    if t_max <= 1.0:
        return head, 0.0
    # the tail integrand decays on the scale t_max/60 by construction of
    # t_max, so a fixed panel count resolves it at any margin
    s_nodes, s_w = kern.gauss_legendre_panels(1.0, t_max, n_panels, 8)
    # e^{beta s} and the kernel decay each overflow separately at large s
    # near the threshold; only their product is moderate
    if spec.boundary == kern.FREE:
        log_inner = np.log(_free_inner(spec.nu, alpha, s_nodes))
    else:
        lg = kern.log_eval_dirichlet(spec, s_nodes[:, None], x, yq)
        peak = np.max(lg, axis=1)
        log_inner = (2.0 - alpha) * peak + np.log(
            np.exp((2.0 - alpha) * (lg - peak[:, None])) @ wq)
    log_vals = beta * s_nodes - alpha * np.log(s_nodes) + log_inner
    return head, float(np.dot(s_w, np.exp(np.minimum(log_vals, 700.0))))


def _fit_exponent(shifts, sups):
    x = np.log(np.asarray(shifts, dtype=float))
    y = np.log(np.asarray(sups, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# The positions x at which the lemma checks take the Dirichlet integral.
LEMMA_X = (0.25, 0.5, 0.75)


def verify_negative_beta(spec: kern.KernelSpec, alpha, betas) -> IntegralBoundReport:
    """Check the beta < 0 lemma along its proof chain.

    (i) The Dirichlet integral is dominated by the free-kernel integral on
    the grid; (ii) that majorant carries the |beta|^{(alpha-1)/2} shape
    (verified by ratio test). Testing the shape on g_D itself is hopeless:
    the spectral gap keeps the Dirichlet integral finite even at beta = 0.
    """
    betas = tuple(sorted(float(b) for b in betas))
    if any(b >= 0 for b in betas):
        raise AnalysisError("this lemma needs beta < 0")
    free = replace(spec, boundary=kern.FREE)
    sups_free, by_x = [], []
    for b in betas:
        t_max = 60.0 / abs(b)
        i_free = integral_bound_value(free, alpha, b, 0.5, t_max)
        i_d = {x: integral_bound_value(spec, alpha, b, x, t_max) for x in LEMMA_X}
        if max(i_d.values()) > i_free * (1 + 1e-8):
            raise AnalysisError("free-kernel majorant violated")
        sups_free.append(i_free)
        by_x.append(i_d)
    shape = [abs(b) ** ((alpha - 1.0) / 2.0) for b in betas]
    c_hats = tuple(s / sh for s, sh in zip(sups_free, shape))
    fitted = _fit_exponent([abs(b) for b in betas], sups_free)
    # the refinement check halves the panels of the first beta's x = 0.5 integral
    b0 = betas[0]
    coarse = integral_bound_value(spec, alpha, b0, 0.5, 60.0 / abs(b0), n_panels=24)
    fine = by_x[0][0.5]
    return IntegralBoundReport(
        alpha=alpha, betas=betas, sups=tuple(sups_free), c_hats=c_hats,
        fitted_exponent=fitted, expected_exponent=(alpha - 1.0) / 2.0,
        kernel="free-majorant", domination_checked=True,
        refinement_change=abs(fine - coarse) / fine)


def _longtime_majorant(spec, alpha, beta, t_max, n_panels=48):
    """int_1^{t_max} e^{beta s} (K3 e^{-nu pi^2 s})^{2-alpha} ds by quadrature.

    This is the lemma's long-time bound with s^{-alpha} <= 1 dropped, the
    object that carries the 1/((2-alpha) nu pi^2 - beta) blow-up.
    """
    k3 = kern.k3_constant(spec) ** (2.0 - alpha)
    rate = beta - (2.0 - alpha) * spec.nu * math.pi ** 2
    s_nodes, s_w = kern.gauss_legendre_panels(1.0, t_max, n_panels, 8)
    return k3 * float(np.dot(s_w, np.exp(rate * s_nodes)))


def verify_threshold_beta(spec: kern.KernelSpec, alpha, margins) -> IntegralBoundReport:
    """Check the 0 < beta < (2-alpha) nu pi^2 lemma along its proof chain.

    (i) The Dirichlet integral stays finite up to the threshold and its tail
    is dominated by the long-time majorant; (ii) the majorant blows up like
    1/margin as beta approaches the threshold (ratio test). The integral
    itself blows up more softly (like margin^{alpha-1}: the s^{-alpha}
    factor the bound discards is active at s ~ 1/margin), so the stated 1/m
    shape lives on the bound, not on g_D.
    """
    threshold = (2.0 - alpha) * spec.nu * math.pi ** 2
    margins = tuple(sorted(float(m) for m in margins))
    if any(m <= 0 or m >= threshold for m in margins):
        raise AnalysisError("margins must satisfy 0 < threshold - beta < threshold")
    sups_true, majors = [], []
    for m in margins:
        beta = threshold - m
        t_max = 60.0 / m
        # t_max > 1, so each x's head is its integral over [0, 1]
        parts = [_integral_parts(spec, alpha, beta, x, t_max) for x in LEMMA_X]
        i_true = max(head + tail for head, tail in parts)
        tail_true = i_true - max(head for head, _ in parts)
        major = _longtime_majorant(spec, alpha, beta, t_max)
        if not math.isfinite(i_true):
            raise AnalysisError("Dirichlet integral not finite below threshold")
        if tail_true > major * (1 + 1e-8):
            raise AnalysisError("long-time majorant violated")
        sups_true.append(i_true)
        majors.append(major)
    c_hats = tuple(mj * m for mj, m in zip(majors, margins))
    fitted = _fit_exponent(margins, majors)
    return IntegralBoundReport(
        alpha=alpha, betas=tuple(threshold - m for m in margins),
        sups=tuple(sups_true), c_hats=c_hats, fitted_exponent=fitted,
        expected_exponent=-1.0, kernel="longtime-majorant", threshold=threshold,
        domination_checked=True)
