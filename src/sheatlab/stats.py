"""Order-independent streaming statistics for ensemble functionals.

A MomentEstimate accumulates |u(t,x*)|^p (nearest node), the discrete sup
norm max_j |u(t,x_j)|^p, or the L^p mass dx * sum_j |u(t,x_j)|^p over an
ensemble. A Functional is parsed from, and labelled by, its config token
(pointwise:<x>, sup or lp); it gives the log values of a whole solver
Ensemble at one time, and ensemble_estimates takes each (functional, time)
estimate over the whole ensemble in one batch. merge combines two
estimates by the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37
(1983) 242), so partial estimates combine in any tree shape (results agree
to roundoff, about 1e-12 relative).

Every sample also feeds log-domain accumulators (logsumexp of the values
and their squares). When any sample exceeds the float comfort zone the
linear mean is meaningless and the estimate flips to log mode: it then
reports log_mean with a delta-method confidence interval on the log scale.
This is how ensembles at large noise intensity stay finite, paired with the
solver's per-sample log rescaling. logsumexp is a numpy copy of scipy's
algorithm (scipy.special.logsumexp, scipy 1.17), so this module and the
oracle, which imports it from here, run without scipy.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .solver import ConfigError, Ensemble

_LINEAR_LIMIT_LOG = math.log(1e300)

POINTWISE = "pointwise"
SUPNORM = "sup"
LPNORM = "lp"


class StatsDomainError(ValueError):
    """Estimate misuse: mismatched functionals, missing times, bad p."""


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over axis (all axes for None) of a real float array,
    bit for bit as scipy.special.logsumexp computes it for unweighted input.

    The largest terms, m of them, leave the sum: the result is log1p(s / m)
    + log(m) + max, s the sum of the other terms' exp(a - max). Where that
    is not finite (an inf or nan entry, or only -inf entries), the result
    is plain log(sum(exp(a))). A scalar for axis=None or 1-d input.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=axes, keepdims=True)
        at_top = a == top
        m = np.sum(at_top, axis=axes, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), axis=axes, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=axes, keepdims=True)), out)
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class Functional:
    """Which scalar is extracted from a path at the observation time."""

    kind: str
    p: float
    x: float | None = None

    def __post_init__(self):
        if self.kind not in (POINTWISE, SUPNORM, LPNORM):
            raise StatsDomainError(f"unknown functional kind {self.kind!r}")
        if self.p < 2:
            raise StatsDomainError("p must be >= 2")
        if self.kind == POINTWISE and not (self.x is not None and 0 <= self.x <= 1):
            raise StatsDomainError("pointwise functional needs a position x in [0, 1]")

    @classmethod
    def pointwise(cls, x, p=2.0):
        return cls(kind=POINTWISE, p=float(p), x=float(x))

    @classmethod
    def sup(cls, p=2.0):
        return cls(kind=SUPNORM, p=float(p))

    @classmethod
    def lp(cls, p=2.0):
        return cls(kind=LPNORM, p=float(p))

    @classmethod
    def parse(cls, token, p):
        """The functional of a config token, ``pointwise:<x>``, ``sup`` or
        ``lp``, at power p; the inverse of label."""
        kind, _, x = token.partition(":")
        if kind == POINTWISE and x and ":" not in x:
            return cls.pointwise(float(x), p)
        if token in (SUPNORM, LPNORM):
            return cls(kind=token, p=float(p))
        raise ConfigError(f"unknown functional {token!r}")

    @property
    def label(self):
        """The config token of this functional, as outputs name it: the
        position is written short (:g) where that reads back exactly, so
        distinct functionals never share a label."""
        if self.kind != POINTWISE:
            return self.kind
        x = f"{self.x:g}"
        return f"{POINTWISE}:{x if float(x) == self.x else repr(self.x)}"

    def log_values(self, ens: Ensemble, t):
        """log of the functional value on every sample, shape (k,); safe at
        any scale, -inf where the value is zero."""
        try:
            logabs = ens.log_abs_at(t)
        except ConfigError as exc:
            raise StatsDomainError(str(exc)) from exc
        if self.kind == POINTWISE:
            j = int(np.argmin(np.abs(ens.config.grid.x - self.x)))
            return self.p * logabs[:, j]
        if self.kind == SUPNORM:
            return self.p * np.max(logabs, axis=1)
        return math.log(ens.config.grid.dx) + logsumexp(self.p * logabs, axis=1)


@dataclass
class MomentEstimate:
    """Streaming mean/variance of one functional at one observation time."""

    functional: Functional
    t: float
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    log_sum: float = -math.inf
    log_sum_sq: float = -math.inf
    overflowed: bool = False

    def add_log_values(self, logv):
        """Insert a batch of samples given as log(value); values must be >= 0."""
        logv = np.asarray(logv, dtype=float)
        batch = MomentEstimate(
            functional=self.functional, t=self.t, n=logv.size,
            log_sum=float(logsumexp(logv)), log_sum_sq=float(logsumexp(2.0 * logv)),
            overflowed=bool(np.any(logv > _LINEAR_LIMIT_LOG)))
        if not batch.overflowed:
            v = np.exp(logv)
            batch.mean = float(np.mean(v))
            with np.errstate(over="ignore"):     # values past 1e154: m2 is inf
                batch.m2 = float(np.sum((v - batch.mean) ** 2))
        vars(self).update(vars(merge(self, batch)))
        return self

    def add_value(self, value):
        """Insert one sample given as its value (>= 0), for streaming
        callers. Public API: no package code calls it."""
        if value < 0:
            raise StatsDomainError("functional values are nonnegative")
        return self.add_log_values([math.log(value) if value > 0 else -math.inf])

    @property
    def variance(self):
        if self.n < 2:
            raise StatsDomainError("variance needs n >= 2")
        if self.overflowed:
            raise StatsDomainError("linear variance unavailable: log mode")
        return self.m2 / (self.n - 1)

    @property
    def ci_half_width(self):
        return 1.96 * math.sqrt(self.variance / self.n)

    @property
    def log_mean(self):
        """log of the sample mean, exact in log arithmetic."""
        if self.n == 0:
            raise StatsDomainError("empty estimate")
        return float(self.log_sum) - math.log(self.n)

    @property
    def log_ci_half_width(self):
        """Delta-method 95% half-width of log(mean): 1.96 se(mean)/mean."""
        if self.n < 2:
            raise StatsDomainError("CI needs n >= 2")
        log_s1, log_s2 = float(self.log_sum), float(self.log_sum_sq)
        if not math.isfinite(log_s1):
            return 0.0
        gap = 2.0 * log_s1 - math.log(self.n) - log_s2
        if gap >= -1e-14:                       # all samples equal
            return 0.0
        log_var = log_s2 + math.log1p(-math.exp(gap)) - math.log(self.n - 1)
        log_se = 0.5 * (log_var - math.log(self.n))
        return 1.96 * math.exp(log_se - self.log_mean)


def merge(a: MomentEstimate, b: MomentEstimate) -> MomentEstimate:
    """Pairwise-combine two estimates; associative and commutative to roundoff."""
    if a.functional != b.functional or a.t != b.t:
        raise StatsDomainError("cannot merge estimates of different functionals")
    if a.n == 0:
        return replace(b)
    if b.n == 0:
        return replace(a)
    n = a.n + b.n
    out = MomentEstimate(functional=a.functional, t=a.t, n=n)
    out.overflowed = a.overflowed or b.overflowed
    delta = b.mean - a.mean
    out.mean = a.mean + delta * b.n / n
    out.m2 = a.m2 + b.m2 + delta * delta * a.n * b.n / n
    out.log_sum = float(np.logaddexp(a.log_sum, b.log_sum))
    out.log_sum_sq = float(np.logaddexp(a.log_sum_sq, b.log_sum_sq))
    return out


@dataclass(frozen=True)
class EnergyValue:
    """p-th energy (E[||u||_p^p])^{1/p} with a delta-method CI."""

    value: float
    ci_half_width: float
    log_value: float
    log_ci_half_width: float
    p: float
    n: int
    overflowed: bool


def p_energy(est: MomentEstimate) -> EnergyValue:
    """p-th root of the mean L^p mass, with the CI mapped through the root."""
    if est.functional.kind != LPNORM:
        raise StatsDomainError("p_energy needs an LpNorm estimate")
    if est.n < 2:
        raise StatsDomainError("p_energy needs n >= 2")
    if not math.isfinite(est.log_mean):
        raise StatsDomainError("undefined energy: mean is zero (broken ensemble)")
    p = est.functional.p
    log_value = est.log_mean / p
    log_ci = est.log_ci_half_width / p
    if est.overflowed or est.log_mean > _LINEAR_LIMIT_LOG:
        value = math.inf
        ci = math.inf
    else:
        mean = math.exp(est.log_mean)
        value = mean ** (1.0 / p)
        ci = est.ci_half_width * mean ** (1.0 / p - 1.0) / p
    return EnergyValue(value=value, ci_half_width=ci, log_value=log_value,
                       log_ci_half_width=log_ci, p=p, n=est.n,
                       overflowed=est.overflowed)


def ensemble_estimates(paths: Ensemble, functionals, times):
    """Estimate every (functional, time) pair over one Ensemble.

    Returns {(functional, t): MomentEstimate}, each taken over all samples
    in one batch.
    """
    return {(f, t): MomentEstimate(functional=f, t=t).add_log_values(f.log_values(paths, t))
            for f in functionals for t in times}


def merge_tables(tables):
    """Merge estimate tables in the given (fixed) order, for callers that
    estimate an ensemble in parts. Public API: no package code calls it."""
    out = None
    for tab in tables:
        if out is None:
            out = {k: replace(v) for k, v in tab.items()}
        else:
            out = {k: merge(out[k], tab[k]) for k in out}
    return out
