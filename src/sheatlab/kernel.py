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

``eval_kernel``, its two routes, ``log_eval_dirichlet`` and
``kernel_lower_bound`` take many times in one call: t of shape
(T, 1, ..., 1) broadcasts against x and y, and a batched row equals its
scalar call bit for bit. One truncation rule, ``truncation_plan``, gives
each time its own route and term or image count; there is no single switch
time between the routes.
"""

import math
from dataclasses import dataclass

import numpy as np

PI2 = math.pi ** 2

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
FREE = "free"
_BOUNDARIES = (DIRICHLET, NEUMANN, FREE)


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
    series_cap : int
        Maximum number of series terms before switching to the image method.
    image_cap : int
        Hard cap on image terms; exceeding it raises ToleranceError.
    """

    boundary: str = DIRICHLET
    nu: float = 0.5
    tol: float = 1e-12
    series_cap: int = 64
    image_cap: int = 512

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
        if not (0 < self.gamma < 0.25):
            raise KernelDomainError("gamma must lie in (0, 1/4)")
        if not (self.kappa1 > 0 and self.kappa2 > 0):
            raise KernelDomainError("kappa1, kappa2 must be positive")


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


def _series_terms(nu, t, tol, cap=100000):
    """Per time, the smallest n <= cap whose series tail is <= tol (else
    cap + 1), and whether it was reached; arrays shaped like t."""
    t = np.asarray(t, dtype=float)
    # the tail exceeds 2 exp(-a (n+1)^2), so no n + 1 below sqrt(log(2/tol)/a)
    # passes; starting just under that skips the count loop's long climb
    start = np.floor(np.sqrt(math.log(max(2.0 / tol, 1.0)) / (nu * PI2 * t))) - 2
    n = np.clip(start, 1, cap + 1).astype(int)
    while True:
        more = (n <= cap) & (_series_tail(nu, t, n) > tol)
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
    series_cap, and the image count (0 where the series is used)."""
    t = _times(t)
    n, ok = _series_terms(spec.nu, t, spec.tol, cap=spec.series_cap)
    m = np.zeros(t.shape, dtype=int)
    if not np.all(ok):
        m[~ok] = _image_terms(spec.nu, t[~ok], spec.tol, spec.image_cap)
    return n, ok, m


def free_kernel(nu, t, x, y):
    """Gaussian kernel (4 pi nu t)^{-1/2} exp(-(x-y)^2/(4 nu t))."""
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


def eval_kernel_series(spec: KernelSpec, t, x, y, n_terms=None):
    """Eigenfunction-series evaluation with n_terms modes (certified per time
    if None); t, x, y as in eval_kernel, n_terms one count or one per time.

    Each point sums its modes by one contiguous dot product over exactly
    its time's term count, whatever the batch, so a batched value equals its
    scalar call bit for bit (zero-padded counts or a BLAS product would not).
    """
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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    n_terms = np.broadcast_to(n_terms, t.shape)
    k = np.arange(1, int(np.max(n_terms, initial=0)) + 1)
    trig = np.sin if spec.boundary == DIRICHLET else np.cos
    kpi = (k * math.pi).reshape(-1, *(1,) * len(shape))
    modes = np.ascontiguousarray(
        (trig(kpi * x) * trig(kpi * y)).reshape(len(k), math.prod(shape)).T)
    vals = np.empty((t.size, modes.shape[0]))
    for n in np.unique(n_terms):
        rows = (n_terms == n).ravel()
        decay = np.exp(-spec.nu * (k[:n] * math.pi) ** 2 * t.ravel()[rows, None])
        vals[rows] = 2.0 * np.einsum("tk,pk->tp", decay, modes[:, :n])
    if spec.boundary == NEUMANN:
        vals += 1.0
    out = vals.reshape(np.broadcast_shapes(t.shape, shape))
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
        n_images = _image_terms(spec.nu, t, spec.tol, spec.image_cap)
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    n_images = np.broadcast_to(n_images, t.shape)
    total = np.zeros(np.broadcast_shapes(t.shape, xb.shape))
    sign = -1.0 if spec.boundary == DIRICHLET else 1.0
    m_max = int(np.max(n_images, initial=0))
    for n in range(-m_max, m_max + 1):
        term = free_kernel(spec.nu, t, xb, yb + 2.0 * n)
        term += sign * free_kernel(spec.nu, t, xb, -yb + 2.0 * n)
        total += np.where(abs(n) <= n_images, term, 0.0)
    return total if total.shape else float(total)


def eval_kernel(spec: KernelSpec, t, x, y):
    """Heat kernel value(s) at time(s) t, certified to spec.tol.

    t is a positive scalar, or times of shape (T, 1, ..., 1) stacked along a
    leading axis that x and y do not vary along; t, x and y broadcast, and
    the result has their broadcast shape. Each time takes its own
    representation and count from truncation_plan (the series wherever it
    reaches spec.tol within series_cap, images elsewhere), so a batched call
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
    m = _image_terms(spec.nu, t, spec.tol, spec.image_cap)
    c = 1.0 / (4.0 * spec.nu * t)
    lead = -c * (xb - yb) ** 2
    rest = np.zeros(lead.shape)
    m_max = int(np.max(m))
    for n in range(-m_max, m_max + 1):
        kept = abs(n) <= m
        if n != 0:
            rest += np.where(kept, np.exp(-c * (xb - yb - 2.0 * n) ** 2 - lead), 0.0)
        rest -= np.where(kept, np.exp(-c * (xb + yb - 2.0 * n) ** 2 - lead), 0.0)
    return lead + np.log1p(rest) - 0.5 * np.log(4.0 * math.pi * spec.nu * t)


def _log_dirichlet_series(spec, t, xb, yb):
    n_terms = np.maximum(_series_terms(spec.nu, t, spec.tol)[0], 2)
    lead = np.log(np.sin(math.pi * xb)) + np.log(np.sin(math.pi * yb))
    rest = np.zeros(np.broadcast_shapes(t.shape, xb.shape))
    for n in range(2, int(np.max(n_terms)) + 1):
        rest += np.where(n <= n_terms,
                         np.exp(-spec.nu * PI2 * (n ** 2 - 1) * t)
                         * np.sin(n * math.pi * xb) * np.sin(n * math.pi * yb)
                         / (np.sin(math.pi * xb) * np.sin(math.pi * yb)), 0.0)
    return math.log(2.0) - spec.rate1 * t + lead + np.log1p(rest)


@dataclass(frozen=True)
class UpperBounds:
    """Pointwise free-kernel bound and long-time spectral-gap bound for g_D."""

    free_bound: np.ndarray
    longtime_bound: np.ndarray
    k3: float
    longtime_valid_from: float = 1.0


def k3_constant(spec: KernelSpec) -> float:
    """Long-time constant: g_D(t,x,y) <= K3 exp(-nu pi^2 t) for t >= 1.

    From n^2 >= 1 + 3(n-1): the series is dominated by its first term times
    the geometric factor 1/(1 - exp(-3 nu pi^2)).
    """
    return 2.0 / (1.0 - math.exp(-3.0 * spec.nu * PI2))


def kernel_upper_bounds(spec: KernelSpec, t, x, y) -> UpperBounds:
    """Evaluate both upper bounds for the Dirichlet kernel at (t, x, y)."""
    if spec.boundary != DIRICHLET:
        raise KernelDomainError("upper bounds are stated for the Dirichlet kernel")
    if not (t > 0):
        raise KernelDomainError("t must be positive")
    k3 = k3_constant(spec)
    free = free_kernel(spec.nu, t, x, y)
    longtime = np.broadcast_to(k3 * math.exp(-spec.rate1 * t), np.shape(free)).copy() \
        if np.shape(free) else k3 * math.exp(-spec.rate1 * t)
    return UpperBounds(free_bound=free, longtime_bound=longtime, k3=k3)


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


@dataclass(frozen=True)
class LowerBoundCalibration:
    spec: LowerBoundSpec
    min_ratio: float
    kappa2_grid: tuple
    kappa1_by_kappa2: tuple
    t_grid: tuple
    n_xy: int


def calibrate_lower_bound(spec: KernelSpec, gamma, t_grid=None, n_xy=17,
                          kappa2_grid=None, saturation=0.5) -> LowerBoundCalibration:
    """Search the largest kappa1 and smallest kappa2 validating the lower bound.

    For fixed kappa2 the best kappa1 is the grid minimum of
    g_D / (exp(-nu pi^2 t) exp(-kappa2 (x-y)^2/t) branch(t)), which is
    nondecreasing in kappa2. The returned kappa2 is the smallest candidate
    whose kappa1 reaches `saturation` times the best achievable kappa1, i.e.
    the tightest Gaussian width that does not crush the prefactor. The
    Gaussian decay of g_D itself forces kappa2 >= 1/(4 nu) as t -> 0, which
    anchors the candidate grid.
    """
    if spec.boundary != DIRICHLET:
        raise KernelDomainError("lower bound is stated for the Dirichlet kernel")
    if t_grid is None:
        t_grid = np.geomspace(1e-4, 10.0, 25)
    t_grid = np.asarray(t_grid, dtype=float)
    xs = np.linspace(gamma, 1.0 - gamma, n_xy)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    if kappa2_grid is None:
        base = 1.0 / (4.0 * spec.nu)
        kappa2_grid = base * np.array([1.01, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0])
    kappa2_grid = np.asarray(kappa2_grid, dtype=float)

    # log domain throughout: the binding nodes sit where both sides are
    # exponentially small and linear evaluation loses all relative accuracy
    t = t_grid[:, None, None]
    log_g = log_eval_dirichlet(spec, t, X, Y)
    log_time = -spec.rate1 * t + np.where(t <= gamma ** 2, -0.5 * np.log(t), 0.0)
    kappa1s = []
    for k2 in kappa2_grid:
        worst = float(np.min(log_g - (log_time - k2 * (X - Y) ** 2 / t)))
        kappa1s.append(math.exp(worst) if worst < 700 else math.inf)
    kappa1s = np.array(kappa1s)
    best = float(np.max(kappa1s))
    if best <= 0:
        raise ToleranceError("calibration failed: nonpositive ratio on grid", achieved=best)
    idx = int(np.argmax(kappa1s >= saturation * best))
    # shave one ulp-scale factor so the inequality is strict under roundoff
    kappa1 = kappa1s[idx] * (1.0 - 1e-12)
    lb = LowerBoundSpec(gamma=gamma, kappa1=float(kappa1), kappa2=float(kappa2_grid[idx]))
    return LowerBoundCalibration(
        spec=lb,
        min_ratio=float(kappa1s[idx]),
        kappa2_grid=tuple(float(v) for v in kappa2_grid),
        kappa1_by_kappa2=tuple(float(v) for v in kappa1s),
        t_grid=tuple(float(v) for v in t_grid),
        n_xy=n_xy,
    )


def _dx_series_tail(nu, t, n):
    # tail of 2 pi sum_{k>n} k exp(-nu k^2 pi^2 t)
    a = nu * PI2 * t
    q = math.exp(-2.0 * a * (n + 1))
    lead = 2.0 * math.pi * math.exp(-a * (n + 1) ** 2)
    return lead * ((n + 1) / (1.0 - q) + q / (1.0 - q) ** 2)


def kernel_dx(spec: KernelSpec, t, x, y):
    """x-derivative of the Dirichlet kernel, term-wise with its own truncation."""
    if spec.boundary != DIRICHLET:
        raise KernelDomainError("kernel_dx implements the Dirichlet derivative")
    if not (t > 0):
        raise KernelDomainError("t must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_series = 1
    while _dx_series_tail(spec.nu, t, n_series) > spec.tol and n_series <= spec.series_cap:
        n_series += 1
    if n_series <= spec.series_cap:
        xb, yb = np.broadcast_arrays(x, y)
        n = np.arange(1, n_series + 1)
        decay = np.exp(-spec.nu * (n * math.pi) ** 2 * t) * n * math.pi
        npx = n[:, None] * math.pi * xb.ravel()[None, :]
        npy = n[:, None] * math.pi * yb.ravel()[None, :]
        vals = 2.0 * np.einsum("n,ni,ni->i", decay, np.cos(npx), np.sin(npy))
        out = vals.reshape(xb.shape)
        return out if out.shape else float(out)
    # image route: d/dx phi(x-z) = -(x-z)/(2 nu t) phi(x-z)
    m = _image_terms(spec.nu, t, spec.tol, spec.image_cap) + 1
    xb, yb = np.broadcast_arrays(x, y)
    total = np.zeros(xb.shape, dtype=float)
    c = 1.0 / (2.0 * spec.nu * t)
    for n in range(-m, m + 1):
        z1 = xb - (yb + 2.0 * n)
        z2 = xb - (-yb + 2.0 * n)
        total += -c * z1 * free_kernel(spec.nu, t, xb, yb + 2.0 * n)
        total -= -c * z2 * free_kernel(spec.nu, t, xb, -yb + 2.0 * n)
    return total if total.shape else float(total)


@dataclass(frozen=True)
class DxBoundReport:
    k1: float
    k2: float
    max_abs_dx: float
    finite: bool
    k2_grid: tuple
    k1_by_k2: tuple


def kernel_dx_bound_check(spec: KernelSpec, t_grid, x_grid, y_grid,
                          k2_grid=None, headroom=2.0) -> DxBoundReport:
    """Fit |dx g_D| <= K1 t^{-1} exp(-K2 (x-y)^2 / t) on a grid.

    For fixed K2 the minimal K1 is the grid maximum of
    |dx g_D| * t * exp(K2 (x-y)^2 / t), nondecreasing in K2; the Gaussian
    decay of the derivative caps usable K2 at 1/(4 nu). Reported is the
    largest candidate K2 whose K1 stays within `headroom` of the smallest
    K1 over all candidates.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    xs = np.asarray(x_grid, dtype=float)
    ys = np.asarray(y_grid, dtype=float)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    if k2_grid is None:
        cap = 1.0 / (4.0 * spec.nu)
        k2_grid = cap * np.array([0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    k2_grid = np.asarray(k2_grid, dtype=float)

    max_abs = 0.0
    k1s = np.zeros_like(k2_grid)
    for t in t_grid:
        d = np.abs(kernel_dx(spec, float(t), X, Y))
        max_abs = max(max_abs, float(np.max(d)))
        for i, k2 in enumerate(k2_grid):
            ratio = d * t * np.exp(k2 * (X - Y) ** 2 / t)
            k1s[i] = max(k1s[i], float(np.max(ratio)))
    finite = bool(np.all(np.isfinite(k1s))) and math.isfinite(max_abs)
    k1_min = float(np.min(k1s))
    ok = k1s <= headroom * k1_min
    idx = int(np.max(np.nonzero(ok)[0]))
    return DxBoundReport(
        k1=float(k1s[idx]),
        k2=float(k2_grid[idx]),
        max_abs_dx=max_abs,
        finite=finite,
        k2_grid=tuple(float(v) for v in k2_grid),
        k1_by_k2=tuple(float(v) for v in k1s),
    )


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
    n_quad: int


def semigroup_check(spec: KernelSpec, s, t, x, z, n_quad=2048) -> SemigroupReport:
    """Quadrature residuals of the semigroup and squared-kernel identities.

    Checks |int_0^1 g(s,x,y) g(t,y,z) dy - g(s+t,x,z)| and
    |int_0^1 g(s,x,y)^2 dy - g(2s,x,x)|. For the free kernel the Gaussian
    product reduces analytically and the residual is exactly zero.
    """
    if not (s > 0 and t > 0):
        raise KernelDomainError("s, t must be positive")
    if spec.boundary == FREE:
        return SemigroupReport(0.0, 0.0, 0)
    n_panels = max(1, n_quad // 16)
    ys, ws = gauss_legendre_panels(0.0, 1.0, n_panels, 16)
    left = eval_kernel(spec, s, x, ys)
    right = eval_kernel(spec, t, ys, z)
    conv = float(np.dot(ws, left * right))
    res_conv = abs(conv - eval_kernel(spec, s + t, x, z))
    sq = float(np.dot(ws, left ** 2))
    res_sq = abs(sq - eval_kernel(spec, 2.0 * s, x, x))
    return SemigroupReport(res_conv, res_sq, len(ys))


def kernel_mass(spec: KernelSpec, t, x, n_quad=1024):
    """int_0^1 g(t,x,y) dy by composite Gauss-Legendre quadrature."""
    ys, ws = gauss_legendre_panels(0.0, 1.0, max(1, n_quad // 16), 16)
    return float(np.dot(ws, eval_kernel(spec, t, x, ys)))
