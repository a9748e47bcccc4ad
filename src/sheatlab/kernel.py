"""Heat kernels on [0,1] for the generator nu * d^2/dx^2, with certified bounds.

Two independent representations are implemented for the Dirichlet and Neumann
kernels and serve as each other's oracle:

* eigenfunction series, e.g. for Dirichlet

      g_D(t,x,y) = 2 sum_{n>=1} exp(-nu n^2 pi^2 t) sin(n pi x) sin(n pi y),

* method of images, an alternating (Dirichlet) or plain (Neumann) sum of
  free Gaussian kernels over reflections of y at the endpoints.

The series converges fast for large t, the image sum for small t; both carry
explicit tail bounds so every value is certified to the spec tolerance.
The free kernel is g(t,x,y) = (4 pi nu t)^{-1/2} exp(-(x-y)^2 / (4 nu t)),
the Brownian transition density when nu = 1/2.

All rate constants are derived from ``nu`` at runtime. The first Dirichlet
eigenvalue is ``nu * pi**2`` and shows up as the long-time decay rate.

``eval_kernel``, its two routes, ``log_eval_dirichlet``, ``kernel_dx`` (the
x-derivative) and ``kernel_lower_bound`` take many times in one call: t of
shape (T, 1, ..., 1) broadcasts against x and y, and a batched row equals
its scalar call bit for bit. One truncation rule, ``truncation_plan``, gives
each time its own route and term or image count; there is no single switch
time between the routes. The derivative check's grid is ``DX_BOUND_T_GRID``
by ``DX_BOUND_XY`` squared.
"""

import math
from dataclasses import dataclass

import numpy as np

PI2 = math.pi ** 2

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
FREE = "free"
_BOUNDARIES = (DIRICHLET, NEUMANN, FREE)

SERIES_CAP = 64     # series terms tried before a time takes the image method
IMAGE_CAP = 512     # images past which a time raises ToleranceError


class KernelDomainError(ValueError):
    """Arguments outside the kernel's domain (t <= 0, x or y out of range)."""


class ToleranceError(RuntimeError):
    """Requested tolerance not reachable; carries the achieved error bound."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class KernelSpec:
    """Boundary condition, diffusivity and evaluation tolerance.

    Parameters
    ----------
    boundary : str
        One of "dirichlet", "neumann", "free".
    nu : float
        Diffusivity in front of d^2/dx^2. Default 0.5 (the half Laplacian);
        the eigenfunction-series display elsewhere corresponds to nu = 1, so
        the parameter makes the convention explicit instead of hard-coding
        either choice.
    tol : float
        Absolute truncation tolerance for every kernel evaluation.
    """

    boundary: str = DIRICHLET
    nu: float = 0.5
    tol: float = 1e-12

    def __post_init__(self):
        if self.boundary not in _BOUNDARIES:
            raise KernelDomainError(f"unknown boundary {self.boundary!r}")
        if not (self.nu > 0):
            raise KernelDomainError("nu must be positive")
        if not (self.tol > 0):
            raise KernelDomainError("tol must be positive")

    @property
    def rate1(self):
        """First Dirichlet eigenvalue nu*pi^2 (long-time decay rate of g_D)."""
        return self.nu * PI2


@dataclass(frozen=True)
class LowerBoundSpec:
    """Constants of the interior Gaussian lower bound on g_D.

    The bound is

        g_D(t,x,y) >= kappa1 * exp(-nu pi^2 t) * exp(-kappa2 (x-y)^2 / t)
                      * (t^{-1/2} if t <= gamma^2 else 1)

    for x, y in [gamma, 1-gamma]. Only existence of (kappa1, kappa2) is
    asserted upstream; calibrate_lower_bound fits them on a grid.
    """

    gamma: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        self.check_gamma(self.gamma)
        if not (self.kappa1 > 0 and self.kappa2 > 0):
            raise KernelDomainError("kappa1, kappa2 must be positive")

    @staticmethod
    def check_gamma(gamma):
        """The bound's interior margin: gamma in (0, 1/4)."""
        if not (0 < gamma < 0.25):
            raise KernelDomainError("gamma must lie in (0, 1/4)")


def _series_tail(nu, t, n):
    """Upper bound on 2*sum_{k>n} exp(-nu k^2 pi^2 t), elementwise in t and n.

    Uses k^2 >= (n+1)^2 + 2(n+1)(k-n-1) to dominate the tail by a geometric
    series starting at k = n+1.
    """
    a = nu * PI2 * t
    lead = 2.0 * np.exp(-a * (n + 1) ** 2)
    q = np.exp(-2.0 * a * (n + 1))
    with np.errstate(divide="ignore"):  # q rounds to 1 as t -> 0: an infinite tail
        return lead / (1.0 - q)


def _dx_series_tail(nu, t, n):
    """Upper bound on 2 pi sum_{k>n} k exp(-nu k^2 pi^2 t), as _series_tail."""
    a = nu * PI2 * t
    q = np.exp(-2.0 * a * (n + 1))
    lead = 2.0 * math.pi * np.exp(-a * (n + 1) ** 2)
    with np.errstate(divide="ignore"):  # as in _series_tail
        return lead * ((n + 1) / (1.0 - q) + q / (1.0 - q) ** 2)


def _series_terms(nu, t, tol, cap=100000, tail=_series_tail):
    """Per time, the smallest n <= cap whose series tail is <= tol (else
    cap + 1), and whether it was reached; arrays shaped like t. tail is
    _series_tail or a larger bound (_dx_series_tail)."""
    t = np.asarray(t, dtype=float)
    # each tail exceeds 2 exp(-a (n+1)^2), so no n + 1 below sqrt(log(2/tol)/a)
    # passes; starting just under that skips the count loop's long climb
    start = np.floor(np.sqrt(math.log(max(2.0 / tol, 1.0)) / (nu * PI2 * t))) - 2
    n = np.clip(start, 1, cap + 1).astype(int)
    while True:
        more = (n <= cap) & (tail(nu, t, n) > tol)
        if not np.any(more):
            return n, n <= cap
        n = n + more


def _image_tail(nu, t, m):
    """Upper bound on the image-sum tail beyond reflections |n| > m.

    For x, y in [0,1] every discarded Gaussian argument has |z| >= 2m, and
    consecutive even arguments shrink each term by exp(-(8m+4)/(4 nu t)).
    """
    phi = np.exp(-(2.0 * m) ** 2 / (4.0 * nu * t)) / np.sqrt(4.0 * math.pi * nu * t)
    q = np.exp(-(8.0 * m + 4.0) / (4.0 * nu * t))
    return 4.0 * phi / (1.0 - q)


def _image_terms(nu, t, tol, cap):
    """Per time, the smallest m whose image tail is <= tol; an array shaped
    like t. Raises ToleranceError if some time needs more than cap."""
    t = np.asarray(t, dtype=float)
    m = np.ones(t.shape, dtype=int)
    while True:
        more = _image_tail(nu, t, m) > tol
        if not np.any(more):
            return m
        m = m + more
        if np.any(m > cap):
            t_bad = float(np.max(t[m > cap]))
            raise ToleranceError(
                f"image method cannot reach tol={tol:g} at t={t_bad:g} within {cap} terms",
                achieved=float(_image_tail(nu, t_bad, cap)),
            )


def truncation_plan(spec: KernelSpec, t):
    """The kernel's truncation rule, per time t (a scalar or times stacked as
    in eval_kernel): arrays (n_terms, use_series, n_images) shaped like t,
    the series term count, whether the series reaches spec.tol within
    SERIES_CAP, and the image count (0 where the series is used)."""
    t = _times(t)
    n, ok = _series_terms(spec.nu, t, spec.tol, cap=SERIES_CAP)
    m = np.zeros(t.shape, dtype=int)
    if not np.all(ok):
        m[~ok] = _image_terms(spec.nu, t[~ok], spec.tol, IMAGE_CAP)
    return n, ok, m


def free_kernel(nu, t, x, y):
    """Gaussian kernel (4 pi nu t)^{-1/2} exp(-(x-y)^2/(4 nu t)); with the
    same nu it bounds g_D from above at every (t, x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-((x - y) ** 2) / (4.0 * nu * t)) / np.sqrt(4.0 * math.pi * nu * t)


def _times(t, x=None, y=None):
    """t as a float array of positive times.

    A scalar, or times stacked along the leading axis of shape (T, 1, ..., 1),
    with at least as many axes as x and y (if given), which do not vary
    along it.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise KernelDomainError("t must be positive")
    if t.ndim and (t.size != len(t) or any(
            np.ndim(a) > t.ndim or (np.ndim(a) == t.ndim and np.shape(a)[0] != 1)
            for a in (x, y))):
        raise KernelDomainError(
            "array t must have shape (T, 1, ..., 1) with x, y constant along T")
    return t


def _check_positions(boundary, x, y):
    if boundary == FREE:
        return
    for arr in (x, y):
        a = np.asarray(arr, dtype=float)
        if np.any(a < -1e-15) or np.any(a > 1 + 1e-15):
            raise KernelDomainError("x, y must lie in [0, 1]")


def _mode_sum(t, n_terms, rates, modes):
    """sum_k exp(-rates_k t) modes[k] over each time's first n_terms modes,
    shaped like t and one mode broadcast; t as in eval_kernel, n_terms one
    count or one per time, modes stacked along a leading axis.

    Each point sums its modes by one contiguous dot product over exactly
    its time's term count, whatever the batch, so a batched value equals its
    scalar call bit for bit (zero-padded counts or a BLAS product would not).
    """
    shape = modes.shape[1:]
    modes = np.ascontiguousarray(modes.reshape(len(modes), math.prod(shape)).T)
    n_terms = np.broadcast_to(n_terms, t.shape)
    vals = np.empty((t.size, modes.shape[0]))
    for n in np.unique(n_terms):
        rows = (n_terms == n).ravel()
        decay = np.exp(-rates[:n] * t.ravel()[rows, None])
        vals[rows] = np.einsum("tk,pk->tp", decay, modes[:, :n])
    return vals.reshape(np.broadcast_shapes(t.shape, shape))


def _image_sum(m, term, shape):
    """sum of term(n) over the reflections |n| <= m, m one count or one per
    time, in the order n = -max(m), ..., max(m), into zeros of shape."""
    total = np.zeros(shape)
    m_max = int(np.max(m, initial=0))
    for n in range(-m_max, m_max + 1):
        total += np.where(abs(n) <= m, term(n), 0.0)
    return total


def eval_kernel_series(spec: KernelSpec, t, x, y, n_terms=None):
    """Eigenfunction-series evaluation with n_terms modes (certified per time
    if None); t, x, y as in eval_kernel, n_terms one count or one per time."""
    t = _times(t, x, y)
    if spec.boundary == FREE:
        return free_kernel(spec.nu, t, x, y)
    _check_positions(spec.boundary, x, y)
    if n_terms is None:
        n_terms, ok = _series_terms(spec.nu, t, spec.tol)
        if not np.all(ok):
            t_bad = float(np.min(t))
            raise ToleranceError(
                f"series cannot reach tol={spec.tol:g} at t={t_bad:g}",
                achieved=float(_series_tail(spec.nu, t_bad, np.max(n_terms))),
            )
    kpi = math.pi * np.arange(1, np.max(n_terms, initial=0) + 1).reshape(
        -1, *(1,) * np.broadcast(x, y).ndim)
    trig = np.sin if spec.boundary == DIRICHLET else np.cos
    out = _mode_sum(t, n_terms, spec.nu * kpi.ravel() ** 2, trig(kpi * x) * trig(kpi * y))
    out *= 2.0
    if spec.boundary == NEUMANN:
        out += 1.0
    return out if out.shape else float(out)


def eval_kernel_images(spec: KernelSpec, t, x, y, n_images=None):
    """Method-of-images evaluation with reflections |n| <= n_images (certified
    per time if None); t, x, y as in eval_kernel, n_images one count or one
    per time."""
    t = _times(t, x, y)
    if spec.boundary == FREE:
        return free_kernel(spec.nu, t, x, y)
    _check_positions(spec.boundary, x, y)
    if n_images is None:
        n_images = _image_terms(spec.nu, t, spec.tol, IMAGE_CAP)
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    sign = -1.0 if spec.boundary == DIRICHLET else 1.0
    total = _image_sum(np.broadcast_to(n_images, t.shape), lambda n: (
        free_kernel(spec.nu, t, xb, yb + 2.0 * n)
        + sign * free_kernel(spec.nu, t, xb, -yb + 2.0 * n)),
        np.broadcast_shapes(t.shape, xb.shape))
    return total if total.shape else float(total)


def eval_kernel(spec: KernelSpec, t, x, y):
    """Heat kernel value(s) at time(s) t, certified to spec.tol.

    t is a positive scalar, or times of shape (T, 1, ..., 1) stacked along a
    leading axis that x and y do not vary along; t, x and y broadcast, and
    the result has their broadcast shape. Each time takes its own
    representation and count from truncation_plan (the series wherever it
    reaches spec.tol within SERIES_CAP, images elsewhere), so a batched call
    equals a loop of scalar calls.
    """
    t = _times(t, x, y)
    n, ok, m = truncation_plan(spec, t)
    return _by_route(ok, lambda r: eval_kernel_series(spec, t[r], x, y, n_terms=n[r]),
                     lambda r: eval_kernel_images(spec, t[r], x, y, n_images=m[r]))


def _by_route(first, route_a, route_b):
    """route_a on the times where first holds, route_b on the others, in
    time order; each route takes an index of the times (... for all)."""
    if np.all(first):
        return route_a(...)
    if not np.any(first):
        return route_b(...)
    rows = first.ravel()
    a = route_a(rows)
    out = np.empty((len(rows),) + a.shape[1:])
    out[rows] = a
    out[~rows] = route_b(~rows)
    return out


def log_eval_dirichlet(spec: KernelSpec, t, x, y):
    """log g_D(t,x,y) with relative accuracy, for interior x, y.

    Linear-domain evaluation has absolute roundoff near 1e-16, useless when
    g_D itself is exponentially small (small t, well-separated x, y). Here
    the dominant term is factored out and the rest enters through log1p of
    ratios of exponentials: the image sum's n = 0 direct term for t <= 1/2
    (it dominates since x + y - |x-y| = 2 min(x,y) > 0 and likewise at the
    right endpoint), the first eigenmode for t > 1/2. t is a scalar or
    times of shape (T, 1, ..., 1), as in eval_kernel; each time takes its
    own branch and term or image count, and a batched row equals its
    scalar call bit for bit.
    """
    t = _times(t, x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1) or np.any(y <= 0) or np.any(y >= 1):
        raise KernelDomainError("log_eval_dirichlet needs interior x, y")
    xb, yb = np.broadcast_arrays(x, y)
    out = _by_route(t <= 0.5, lambda r: _log_dirichlet_images(spec, t[r], xb, yb),
                    lambda r: _log_dirichlet_series(spec, t[r], xb, yb))
    return out if out.shape else float(out)


def _log_dirichlet_images(spec, t, xb, yb):
    # the direct n = 0 image is factored out as lead
    m = _image_terms(spec.nu, t, spec.tol, IMAGE_CAP)
    c = 1.0 / (4.0 * spec.nu * t)
    lead = -c * (xb - yb) ** 2
    rest = _image_sum(m, lambda n: (
        (np.exp(-c * (xb - yb - 2.0 * n) ** 2 - lead) if n else 0.0)
        - np.exp(-c * (xb + yb - 2.0 * n) ** 2 - lead)), lead.shape)
    return lead + np.log1p(rest) - 0.5 * np.log(4.0 * math.pi * spec.nu * t)


def _log_dirichlet_series(spec, t, xb, yb):
    # the first mode is factored out as lead; rest sums modes 2 to n_terms
    n_terms = np.maximum(_series_terms(spec.nu, t, spec.tol)[0], 2)
    k = np.arange(2, int(np.max(n_terms)) + 1).reshape(-1, *(1,) * xb.ndim)
    first = np.sin(math.pi * xb) * np.sin(math.pi * yb)
    rest = _mode_sum(t, n_terms - 1, spec.nu * PI2 * (k.ravel() ** 2 - 1),
                     np.sin(k * math.pi * xb) * np.sin(k * math.pi * yb) / first)
    lead = np.log(np.sin(math.pi * xb)) + np.log(np.sin(math.pi * yb))
    return math.log(2.0) - spec.rate1 * t + lead + np.log1p(rest)


def k3_constant(spec: KernelSpec) -> float:
    """Long-time constant: g_D(t,x,y) <= K3 exp(-nu pi^2 t) for t >= 1.

    From n^2 >= 1 + 3(n-1): the series is dominated by its first term times
    the geometric factor 1/(1 - exp(-3 nu pi^2)).
    """
    return 2.0 / (1.0 - math.exp(-3.0 * spec.nu * PI2))


def kernel_lower_bound(lb: LowerBoundSpec, spec: KernelSpec, t, x, y):
    """Interior Gaussian lower bound at (t, x, y); x, y in [gamma, 1-gamma],
    t a scalar or times stacked as in eval_kernel.

    The short/long time branch switches at t = gamma^2; at the switch the
    short branch carries the extra factor t^{-1/2} = 1/gamma, so the bound
    jumps down by that factor when crossing to t > gamma^2 (the convention
    follows the two-branch indicator form).
    """
    t = _times(t, x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = lb.gamma - 1e-15, 1.0 - lb.gamma + 1e-15
    if np.any(x < lo) or np.any(x > hi) or np.any(y < lo) or np.any(y > hi):
        raise KernelDomainError("x, y must lie in [gamma, 1-gamma]")
    branch = np.where(t <= lb.gamma ** 2, t ** -0.5, 1.0)
    val = lb.kappa1 * np.exp(-spec.rate1 * t) * branch \
        * np.exp(-lb.kappa2 * (x - y) ** 2 / t)
    return val if val.shape else float(val)


# The lower-bound calibration's times, its kappa2 candidates in units of
# 1/(4 nu), and the share of the best kappa1 its chosen kappa2 must keep.
LOWER_BOUND_T_GRID = np.geomspace(1e-4, 10.0, 25)
LOWER_BOUND_N_XY = 17   # calibration nodes per axis of [gamma, 1-gamma]
_KAPPA2_FACTORS = np.array([1.01, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0])
_KAPPA1_SATURATION = 0.5


def calibrate_lower_bound(spec: KernelSpec, gamma) -> LowerBoundSpec:
    """Search the largest kappa1 and smallest kappa2 validating the lower bound
    on LOWER_BOUND_T_GRID and a LOWER_BOUND_N_XY-squared grid of [gamma, 1-gamma]^2.

    For fixed kappa2 the best kappa1 is the grid minimum of
    g_D / (exp(-nu pi^2 t) exp(-kappa2 (x-y)^2/t) branch(t)), which is
    nondecreasing in kappa2. The returned kappa2 is the smallest candidate
    whose kappa1 reaches half the best achievable kappa1, i.e. the tightest
    Gaussian width that does not crush the prefactor. The Gaussian decay of
    g_D itself forces kappa2 >= 1/(4 nu) as t -> 0, which anchors the
    candidate grid. kappa1 is capped at (4 pi nu)^{-1/2}, the t -> 0 limit
    of g_D(t,x,x) t^{1/2} e^{nu pi^2 t}, which the grid's smallest time
    does not reach: no larger kappa1 holds there.
    """
    if spec.boundary != DIRICHLET:
        raise KernelDomainError("lower bound is stated for the Dirichlet kernel")
    xs = np.linspace(gamma, 1.0 - gamma, LOWER_BOUND_N_XY)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    kappa2_grid = 1.0 / (4.0 * spec.nu) * _KAPPA2_FACTORS

    # log domain throughout: the binding nodes sit where both sides are
    # exponentially small and linear evaluation loses all relative accuracy
    t = LOWER_BOUND_T_GRID[:, None, None]
    log_g = log_eval_dirichlet(spec, t, X, Y)
    log_time = -spec.rate1 * t + np.where(t <= gamma ** 2, -0.5 * np.log(t), 0.0)
    k2 = kappa2_grid[:, None, None, None]
    worst = np.min(log_g - (log_time - k2 * (X - Y) ** 2 / t), axis=(1, 2, 3))
    kappa1s = np.array([math.exp(w) if w < 700 else math.inf for w in worst])
    best = float(np.max(kappa1s))
    if best <= 0:
        raise ToleranceError("calibration failed: nonpositive ratio on grid", achieved=best)
    idx = int(np.argmax(kappa1s >= _KAPPA1_SATURATION * best))
    kappa1 = min(float(kappa1s[idx]), 1.0 / math.sqrt(4.0 * math.pi * spec.nu))
    # shave one ulp-scale factor so the inequality is strict under roundoff
    kappa1 *= 1.0 - 1e-12
    return LowerBoundSpec(gamma=gamma, kappa1=kappa1, kappa2=float(kappa2_grid[idx]))


def kernel_dx(spec: KernelSpec, t, x, y):
    """x-derivative of the Dirichlet kernel, t, x, y as in eval_kernel: the
    series wherever its own tail reaches spec.tol within SERIES_CAP terms,
    else images, one more than the value kernel needs."""
    if spec.boundary != DIRICHLET:
        raise KernelDomainError("kernel_dx implements the Dirichlet derivative")
    t = _times(t, x, y)
    _check_positions(spec.boundary, x, y)
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    n_terms, ok = _series_terms(spec.nu, t, spec.tol, cap=SERIES_CAP, tail=_dx_series_tail)

    def series(r):
        kpi = math.pi * np.arange(1, np.max(n_terms[r]) + 1).reshape(-1, *(1,) * xb.ndim)
        return 2.0 * _mode_sum(t[r], n_terms[r], spec.nu * kpi.ravel() ** 2,
                               kpi * np.cos(kpi * xb) * np.sin(kpi * yb))

    def images(r):
        # d/dx phi(x - z) = -(x - z)/(2 nu t) phi(x - z)
        tr = t[r]
        c = 1.0 / (2.0 * spec.nu * tr)
        return _image_sum(_image_terms(spec.nu, tr, spec.tol, IMAGE_CAP) + 1, lambda n: (
            -c * (xb - (yb + 2.0 * n)) * free_kernel(spec.nu, tr, xb, yb + 2.0 * n)
            + c * (xb - (-yb + 2.0 * n)) * free_kernel(spec.nu, tr, xb, -yb + 2.0 * n)),
            np.broadcast_shapes(tr.shape, xb.shape))

    out = _by_route(ok, series, images)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class DxBoundReport:
    k1: float
    k2: float
    finite: bool


# The derivative check's times and nodes per axis, its K2 candidates in units
# of 1/(4 nu), and how far above the smallest K1 the chosen K2's K1 may sit.
DX_BOUND_T_GRID = np.geomspace(1e-3, 1.0, 10)
DX_BOUND_XY = np.linspace(0.05, 0.95, 11)
_DX_K2_FACTORS = np.array([0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
_DX_K1_HEADROOM = 2.0


def kernel_dx_bound_check(spec: KernelSpec) -> DxBoundReport:
    """Fit |dx g_D| <= K1 t^{-1} exp(-K2 (x-y)^2 / t) on DX_BOUND_T_GRID and
    the DX_BOUND_XY-squared grid.

    For fixed K2 the minimal K1 is the grid maximum of
    |dx g_D| * t * exp(K2 (x-y)^2 / t), nondecreasing in K2; the Gaussian
    decay of the derivative caps usable K2 at 1/(4 nu). Reported is the
    largest candidate K2 whose K1 stays within twice the smallest K1 over
    all candidates; finite is False if some |dx g_D| or K1 is infinite.
    """
    t = DX_BOUND_T_GRID[:, None, None]
    x, y = DX_BOUND_XY[:, None], DX_BOUND_XY[None, :]
    k2_grid = 1.0 / (4.0 * spec.nu) * _DX_K2_FACTORS
    d = np.abs(kernel_dx(spec, t, x, y))
    # exp(...) >= 1, so an infinite |dx g_D| makes its K1 infinite
    k1s = np.max(d * t * np.exp(k2_grid[:, None, None, None] * (x - y) ** 2 / t),
                 axis=(1, 2, 3))
    idx = int(np.max(np.nonzero(k1s <= _DX_K1_HEADROOM * np.min(k1s))[0]))
    return DxBoundReport(k1=float(k1s[idx]), k2=float(k2_grid[idx]),
                         finite=bool(np.all(np.isfinite(k1s))))


def gauss_legendre_panels(a, b, n_panels, nodes_per_panel=16):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class SemigroupReport:
    residual_convolution: float
    residual_square: float


def semigroup_check(spec: KernelSpec, s, t, x, z, n_quad=2048) -> SemigroupReport:
    """Quadrature residuals of the semigroup and squared-kernel identities.

    Checks |int_0^1 g(s,x,y) g(t,y,z) dy - g(s+t,x,z)| and
    |int_0^1 g(s,x,y)^2 dy - g(2s,x,x)|. For the free kernel the Gaussian
    product reduces analytically and the residual is exactly zero.
    """
    if not (s > 0 and t > 0):
        raise KernelDomainError("s, t must be positive")
    if spec.boundary == FREE:
        return SemigroupReport(0.0, 0.0)
    n_panels = max(1, n_quad // 16)
    ys, ws = gauss_legendre_panels(0.0, 1.0, n_panels, 16)
    left = eval_kernel(spec, s, x, ys)
    right = eval_kernel(spec, t, ys, z)
    conv = float(np.dot(ws, left * right))
    res_conv = abs(conv - eval_kernel(spec, s + t, x, z))
    sq = float(np.dot(ws, left ** 2))
    res_sq = abs(sq - eval_kernel(spec, 2.0 * s, x, x))
    return SemigroupReport(res_conv, res_sq)


# kernel_mass's composite Gauss-Legendre panels of 16 nodes: 1024 nodes in y
_MASS_PANELS = 64


def kernel_mass(spec: KernelSpec, t, x):
    """int_0^1 g(t,x,y) dy by composite Gauss-Legendre quadrature."""
    ys, ws = gauss_legendre_panels(0.0, 1.0, _MASS_PANELS, 16)
    return float(np.dot(ws, eval_kernel(spec, t, x, ys)))
