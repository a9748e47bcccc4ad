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

grr_functional and holder_bound_check take profiles along the last axis of
one array, with any leading axes, and give each profile the same result
as a call on it alone.
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
    """T_d = int |f(x+r_d) - f(x)|^power dx (trapezoid in x) for every offset
    d and every profile along the last axis of f."""
    n = f.shape[-1]
    t = np.zeros(f.shape)
    for d in range(1, n):
        df = np.abs(f[..., d:] - f[..., :-d]) ** power
        w = np.full(n - d, h)
        w[[0, -1]] = 0.5 * h
        t[..., d] = np.sum(df * w, axis=-1)
    return t


@dataclass(frozen=True)
class GrrValue:
    """B approximation with cutoff sensitivity, one value per profile."""

    value: float
    value_at_half_cutoff: float
    cutoff: float
    divergent: bool

    @property
    def sensitivity(self):
        return np.abs(self.value_at_half_cutoff - self.value)

    @property
    def holder_b(self):
        """B for the Holder check: the larger of the two cutoff values."""
        return np.maximum(self.value, self.value_at_half_cutoff)


def _b_with_cutoff(t_means, h, power, expo, cutoff_cells):
    """Product integration over the offset variable r = |x - y|, for every
    profile along the last axis of t_means.

    B = 2 int_0^1 r^{power-expo} Q(r) dr with Q(r) = T(r)/r^power smooth for
    smooth data; Q is interpolated linearly between offset nodes and the
    (integrable) power weight is integrated exactly on each band. Below the
    cutoff Q is extrapolated linearly from its first two nodes; that closed
    form replaces the sub-grid information a sampled path cannot carry.
    """
    n = t_means.shape[-1]
    a = power - expo            # in (-1, power): integrable at 0 when a > -1
    if a <= -1.0:
        return np.full(t_means.shape[:-1], math.inf)[()]
    r = np.arange(n) * h
    q = np.zeros(t_means.shape)
    q[..., 1:] = t_means[..., 1:] / r[1:] ** power
    # bands [r_d, r_{d+1}] for d = c..n-2 with Q's line through nodes d and
    # d+1, then [0, r_c] with the line through nodes c and c+1 extrapolated
    c = cutoff_cells
    node = np.append(np.arange(c, n - 1), c)
    lo = np.append(r[c:n - 1], 0.0)
    hi = np.append(r[c + 1:], r[c])
    m0 = (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
    m1 = (hi ** (a + 2) - lo ** (a + 2)) / (a + 2)
    slope = (q[..., node + 1] - q[..., node]) / h
    bands = q[..., node] * m0 + slope * (m1 - r[node] * m0)
    # indexing the last axis leaves bands F-ordered: sum each row in C order,
    # so that a profile's B does not depend on the batch it comes in
    return 2.0 * np.sum(np.ascontiguousarray(bands), axis=-1)


# The GRR cutoff in grid cells (even, so that half of it is a whole cell),
# and the factor on B that absorbs its quadrature error in the Holder check.
_CUTOFF_CELLS = 2
_HOLDER_SLACK = 1.05


def grr_functional(f, params: GrrParams) -> GrrValue:
    """Double-quadrature approximation of B on a uniform sample of [0,1].

    f holds profiles along its last axis, sampled at x_i = i/(n-1), n >= 64;
    each result field has f's leading shape. The diagonal strip below two
    grid cells carries no sampled information; its mass is recovered from
    the linear extrapolation of the smooth offset profile. Values at that
    cutoff and at half of it are both reported; a growing trend as the
    cutoff shrinks flags data too rough for these exponents.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    if n < 64:
        raise RegularityError("need >= 64 sample nodes")
    h = 1.0 / (n - 1)
    expo = 2.0 + params.delta - params.eps
    t_means = _offset_means(f, h, params.p)

    b_half = _b_with_cutoff(t_means, h, params.p, expo, _CUTOFF_CELLS // 2)
    b_c = _b_with_cutoff(t_means, h, params.p, expo, _CUTOFF_CELLS)
    b_2c = _b_with_cutoff(t_means, h, params.p, expo, 2 * _CUTOFF_CELLS)

    with np.errstate(invalid="ignore"):        # inf - inf where B diverges
        d_small = b_half - b_c     # gained by halving the cutoff
        d_large = b_c - b_2c
        scale = np.maximum(np.abs(b_c), 1e-300)
        divergent = ~np.isfinite(b_half) | (
            (d_small > 0) & (d_large > 0) & (d_small >= d_large)
            & (d_small > 1e-6 * scale))
    return GrrValue(value=b_c, value_at_half_cutoff=b_half,
                    cutoff=_CUTOFF_CELLS * h, divergent=divergent)


@dataclass(frozen=True)
class HolderReport:
    max_ratio: float
    n_violations: int


def holder_bound_check(f, params: GrrParams, b_value=None) -> HolderReport:
    """Verify |f_i - f_j| <= kappa (1.05 B)^{1/p} |x_i-x_j|^{(delta-eps)/p}
    for every profile along the last axis of f.

    B defaults to grr_functional's holder_b; a caller that has that value
    already passes it as b_value (broadcast over f's leading shape). The
    5% slack on B absorbs its quadrature error (violations are report
    content, not exceptions, since B is approximate). At B = 0 every nonzero
    increment has ratio inf and is a violation.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    x = np.linspace(0.0, 1.0, n)
    if b_value is None:
        b_value = grr_functional(f, params).holder_b
    # the power runs on a 1-d array whatever f's shape: numpy's SIMD power
    # and its 0-d path can differ in the last bit
    b = np.broadcast_to(b_value, f.shape[:-1]).reshape(-1)
    scale = (params.kappa * (b * _HOLDER_SLACK) ** (1.0 / params.p)).reshape(f.shape[:-1] + (1,))
    max_ratio = np.zeros(f.shape[:-1])
    violations = np.zeros(f.shape[:-1], dtype=int)
    for d in range(1, n):
        df = np.abs(f[..., d:] - f[..., :-d])
        dx = x[d:] - x[:-d]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(df > 0, df / (scale * dx ** params.holder_exponent), 0.0)
        max_ratio = np.maximum(max_ratio, np.max(ratio, axis=-1))
        violations += np.sum(ratio > 1.0, axis=-1)
    return HolderReport(max_ratio=max_ratio[()], n_violations=violations[()])


# How deep below r the Stieltjes partition of (0, r] reaches.
_STIELTJES_DEPTH = 1e-150
STIELTJES_POINTS = 200_000  # grr_general's coarser partition; the finer has twice
# Partition cells evaluated at a time: a multiple of 4096, so that numpy's
# SIMD power rounds each element as it would in one pass over the whole
# partition, and the temporaries stay small beside the terms array.
_STIELTJES_BLOCK = 1 << 15


def _stieltjes(phi_inv_of_b_over, phi, r, n_points):
    # midpoint Riemann-Stieltjes sum on a geometric partition of (0, r];
    # the partition reaches _STIELTJES_DEPTH * r so the untouched tail is
    # negligible for any modulus with a power of at least ~0.05 at 0.
    # Returns the total and the contributions of the two deepest 10% blocks:
    # a non-decreasing trend toward the deep end exposes a non-integrable
    # singularity. The terms are filled block by block and summed whole.
    ratio = _STIELTJES_DEPTH ** (1.0 / n_points)
    terms = np.empty(n_points)
    for lo in range(0, n_points, _STIELTJES_BLOCK):
        hi = min(lo + _STIELTJES_BLOCK, n_points)
        edges = r * ratio ** np.arange(lo, hi + 1)
        mids = np.sqrt(edges[:-1] * edges[1:])
        dphi = phi(edges[:-1]) - phi(edges[1:])
        terms[lo:hi] = phi_inv_of_b_over(mids) * dphi
    tenth = max(n_points // 10, 1)
    deep = float(np.sum(terms[-tenth:]))
    prev = float(np.sum(terms[-2 * tenth:-tenth]))
    return float(np.sum(terms)), deep, prev


def grr_general(phi_big_inv, phi, b_value, separation):
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

    fine, deep_f, prev_f = _stieltjes(g, phi, separation, STIELTJES_POINTS)
    finer, deep, prev = _stieltjes(g, phi, separation, 2 * STIELTJES_POINTS)
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
