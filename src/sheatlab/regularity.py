"""Empirical Garsia-Rodemich-Rumsey continuity machinery.

For a function sampled on [0,1] the double integral

    B = int int |f(x)-f(y)|^p / |x-y|^{2+delta-eps} dx dy

controls the Holder modulus: |f(x)-f(y)| <= kappa B^{1/p} |x-y|^{(delta-eps)/p}
with kappa = 8 (1 + (delta-eps)^{-1}). Sampled data has no sub-grid
information, so the near-diagonal strip |x-y| below a cutoff (a small number
of grid cells) is excluded and the excluded mass is recovered by power-law
extrapolation across cutoffs; the per-cutoff values are reported as the
sensitivity. A growing trend as the cutoff shrinks flags data too rough for
the chosen (p, delta, eps).

The generalized bound 8 int_0^r Phi^{-1}(B/u) d phi(u) is evaluated as a
midpoint Riemann-Stieltjes sum on a geometric partition with Richardson
extrapolation. For the power pair Phi = |.|^p, phi(u) = u^{(1+delta-eps)/p}
the integral has the closed form kappa B^{1/p} r^{(delta-eps)/p} above
(direct calculus); note the B-definition's exponent stays 2+delta-eps.
"""

import math
from dataclasses import dataclass

import numpy as np


class RegularityError(ValueError):
    """Invalid GRR parameters or inputs."""


@dataclass(frozen=True)
class GrrParams:
    """Exponents of the modulus machinery; kappa is pinned by (delta, eps)."""

    p: float
    delta: float
    eps: float

    def __post_init__(self):
        if self.p < 1:
            raise RegularityError("p must be >= 1")
        if self.delta <= 0:
            raise RegularityError("delta must be positive")
        if not (0 < self.eps < min(self.delta, 1.0)):
            raise RegularityError("eps must lie in (0, min(delta, 1))")

    @property
    def kappa(self):
        return 8.0 * (1.0 + 1.0 / (self.delta - self.eps))

    @property
    def holder_exponent(self):
        return (self.delta - self.eps) / self.p


def _offset_means(f, h, power):
    """T_d = int |f(x+r_d) - f(x)|^power dx (trapezoid in x) for every offset."""
    n = len(f)
    t = np.zeros(n)
    for d in range(1, n):
        df = np.abs(f[d:] - f[:-d]) ** power
        w = np.full(n - d, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        if n - d == 1:
            w[0] = h * 0.5
        t[d] = float(np.sum(df * w))
    return t


@dataclass(frozen=True)
class GrrValue:
    """B approximation with cutoff sensitivity."""

    value: float
    value_at_cutoff: float
    value_at_half_cutoff: float
    cutoff: float
    divergent: bool
    params: GrrParams

    @property
    def sensitivity(self):
        return abs(self.value_at_half_cutoff - self.value_at_cutoff)

    @property
    def holder_b(self):
        """B for the Holder check: the larger of the two cutoff values."""
        return max(self.value_at_cutoff, self.value_at_half_cutoff)


def _b_with_cutoff(t_means, h, power, expo, cutoff_cells):
    """Product integration over the offset variable r = |x - y|.

    B = 2 int_0^1 r^{power-expo} Q(r) dr with Q(r) = T(r)/r^power smooth for
    smooth data; Q is interpolated linearly between offset nodes and the
    (integrable) power weight is integrated exactly on each band. Below the
    cutoff Q is extrapolated linearly from its first two nodes; that closed
    form replaces the sub-grid information a sampled path cannot carry.
    """
    n = len(t_means)
    r = np.arange(n) * h
    a = power - expo            # in (-1, power): integrable at 0 when a > -1
    if a <= -1.0:
        return math.inf
    q = np.zeros(n)
    q[1:] = t_means[1:] / r[1:] ** power

    def moments(lo, hi):
        m0 = (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
        m1 = (hi ** (a + 2) - lo ** (a + 2)) / (a + 2)
        return m0, m1

    total = 0.0
    c = cutoff_cells
    for d in range(c, n - 1):
        m0, m1 = moments(r[d], r[d + 1])
        slope = (q[d + 1] - q[d]) / h
        total += q[d] * m0 + slope * (m1 - r[d] * m0)
    # below the cutoff: Q extrapolated linearly through its first two nodes
    m0, m1 = moments(0.0, r[c])
    slope = (q[c + 1] - q[c]) / h
    total += q[c] * m0 + slope * (m1 - r[c] * m0)
    return 2.0 * total


def grr_functional(f, params: GrrParams, cutoff_cells=2) -> GrrValue:
    """Double-quadrature approximation of B on a uniform sample of [0,1].

    f holds samples at x_i = i/(n-1), n >= 64. The diagonal strip below
    `cutoff_cells` grid cells carries no sampled information; its mass is
    recovered from the linear extrapolation of the smooth offset profile.
    Values at the cutoff and at half the cutoff are both reported; a growing
    trend as the cutoff shrinks flags data too rough for these exponents.
    """
    f = np.asarray(f, dtype=float)
    n = len(f)
    if n < 64:
        raise RegularityError("need >= 64 sample nodes")
    if cutoff_cells < 2 or cutoff_cells % 2:
        raise RegularityError("cutoff must be an even number of cells (>= 2)")
    h = 1.0 / (n - 1)
    expo = 2.0 + params.delta - params.eps
    t_means = _offset_means(f, h, params.p)

    b_half = _b_with_cutoff(t_means, h, params.p, expo, cutoff_cells // 2)
    b_c = _b_with_cutoff(t_means, h, params.p, expo, cutoff_cells)
    b_2c = _b_with_cutoff(t_means, h, params.p, expo, 2 * cutoff_cells)

    d_small = b_half - b_c     # gained by halving the cutoff
    d_large = b_c - b_2c
    scale = max(abs(b_c), 1e-300)
    divergent = (not math.isfinite(b_half)) or (
        d_small > 0 and d_large > 0 and d_small >= d_large
        and d_small > 1e-6 * scale)
    return GrrValue(value=b_c, value_at_cutoff=b_c, value_at_half_cutoff=b_half,
                    cutoff=cutoff_cells * h, divergent=divergent, params=params)


@dataclass(frozen=True)
class HolderReport:
    max_ratio: float
    n_violations: int
    n_pairs: int
    b_used: float
    slack: float
    kappa: float


def holder_bound_check(f, params: GrrParams, b_value=None, slack=1.05,
                       cutoff_cells=2) -> HolderReport:
    """Verify |f_i - f_j| <= kappa (B*slack)^{1/p} |x_i-x_j|^{(delta-eps)/p}.

    B defaults to grr_functional's holder_b; a caller that has that value
    already passes it as b_value. The multiplicative slack absorbs its
    quadrature error (violations are report content, not exceptions, since B
    is approximate).
    """
    f = np.asarray(f, dtype=float)
    n = len(f)
    x = np.linspace(0.0, 1.0, n)
    if b_value is None:
        b_value = grr_functional(f, params, cutoff_cells).holder_b
    scale = params.kappa * (b_value * slack) ** (1.0 / params.p)
    max_ratio = 0.0
    violations = 0
    pairs = 0
    if scale > 0:
        for d in range(1, n):
            df = np.abs(f[d:] - f[:-d])
            dx = x[d:] - x[:-d]
            ratio = df / (scale * dx ** params.holder_exponent)
            max_ratio = max(max_ratio, float(np.max(ratio)))
            violations += int(np.sum(ratio > 1.0))
            pairs += len(ratio)
    else:
        for d in range(1, n):
            df = np.abs(f[d:] - f[:-d])
            violations += int(np.sum(df > 0))
            pairs += len(df)
        max_ratio = 0.0 if violations == 0 else math.inf
    return HolderReport(max_ratio=max_ratio, n_violations=violations,
                        n_pairs=pairs, b_used=b_value, slack=slack,
                        kappa=params.kappa)


def _stieltjes(phi_inv_of_b_over, phi, r, n_points, depth=1e-150):
    # midpoint Riemann-Stieltjes sum on a geometric partition of (0, r];
    # the partition reaches depth*r so the untouched tail is negligible for
    # any modulus with a power of at least ~0.05 at 0. Returns the total and
    # the contributions of the two deepest 10% blocks: a non-decreasing trend
    # toward the deep end exposes a non-integrable singularity.
    ratio = depth ** (1.0 / n_points)
    edges = r * ratio ** np.arange(n_points + 1)
    mids = np.sqrt(edges[:-1] * edges[1:])
    dphi = phi(edges[:-1]) - phi(edges[1:])
    terms = phi_inv_of_b_over(mids) * dphi
    tenth = max(n_points // 10, 1)
    deep = float(np.sum(terms[-tenth:]))
    prev = float(np.sum(terms[-2 * tenth:-tenth]))
    return float(np.sum(terms)), deep, prev


def grr_general(phi_big_inv, phi, b_value, separation, n_points=200_000):
    """Evaluate 8 int_0^{|x-y|} Phi^{-1}(B/u) d phi(u) numerically.

    phi_big_inv: inverse Young function, vectorized, with Phi^{-1}(0) = 0;
    phi: increasing modulus with phi(0) = 0, vectorized; b_value: B.

    The integrand's endpoint singularity is handled by the geometric
    partition (equivalently, quadrature after the substitution u = r e^{-w});
    one Richardson step over partition refinement is applied and divergence
    (non-integrable singularity) is flagged by the refinement trend.
    """
    if separation < 0:
        raise RegularityError("separation must be nonnegative")
    if separation == 0.0:
        return 0.0
    if b_value < 0:
        raise RegularityError("B must be nonnegative")
    if b_value == 0.0:
        return 0.0

    def g(u):
        return phi_big_inv(b_value / u)

    fine, deep_f, prev_f = _stieltjes(g, phi, separation, n_points)
    finer, deep, prev = _stieltjes(g, phi, separation, 2 * n_points)
    if not (math.isfinite(fine) and math.isfinite(finer)):
        raise RegularityError("integral diverges: non-integrable singularity at 0")
    if deep > 1e-13 * abs(finer) and deep >= prev * (1 - 1e-12):
        raise RegularityError("integral diverges: non-integrable singularity at 0")
    # midpoint-Stieltjes converges at second order in the partition width
    return 8.0 * ((4.0 * finer - fine) / 3.0)


def power_law_pair(params: GrrParams):
    """(Phi^{-1}, phi) whose GRR integral reproduces the kappa closed form.

    phi(u) = u^{(1+delta-eps)/p}: direct calculus gives
    8 int_0^r (B/u)^{1/p} d phi(u) = kappa B^{1/p} r^{(delta-eps)/p} exactly.
    """
    p = params.p
    s = (1.0 + params.delta - params.eps) / p
    return (lambda v: np.asarray(v) ** (1.0 / p),
            lambda u: np.asarray(u) ** s)


def closed_form_bound(params: GrrParams, b_value, separation):
    """kappa B^{1/p} |x-y|^{(delta-eps)/p}."""
    return params.kappa * b_value ** (1.0 / params.p) \
        * separation ** params.holder_exponent
