"""Streaming statistics tests: exactness, merge laws, log mode, orderings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from sheatlab import stats as S
from sheatlab.noise import GridSpec
from sheatlab.solver import (ConfigError, Ensemble, InitialData, SimulationConfig,
                             simulate_paths)


def make_path(values, t=1.0, n=None, log_scale=0.0):
    """A one-row Ensemble holding the given field at time t."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    n = n or len(values)
    m = max(8, math.ceil(2 * t * (n + 1)))
    grid = GridSpec(n_interior=n, dt=t / m, horizon=t)
    cfg = SimulationConfig(grid=grid, lam=0.0, u0=InitialData.sine(1),
                           boundary="neumann", observation_times=(t,))
    return Ensemble(config=cfg, samples=np.array([0]), times=np.array([t]),
                    values=values[None, None, :],
                    log_scale=np.array([[float(log_scale)]]))


def fold(est, ens):
    return est.add_log_values(est.functional.log_values(ens, est.t))


class TestFunctionalTokens:
    FUNCTIONALS = [S.Functional.pointwise(0.25, 4.0), S.Functional.sup(2.0),
                   S.Functional.lp(3.0)]

    @pytest.mark.parametrize("f", FUNCTIONALS)
    def test_parse_inverts_label(self, f):
        assert S.Functional.parse(f.label, f.p) == f

    def test_labels(self):
        assert [f.label for f in self.FUNCTIONALS] == ["pointwise:0.25", "sup", "lp"]

    def test_unknown_token_is_config_error(self):
        with pytest.raises(ConfigError):
            S.Functional.parse("median", 2.0)


class TestAccumulate:
    def test_constant_field_pointwise_exact(self):
        est = S.MomentEstimate(S.Functional.pointwise(0.5, p=3.0), t=1.0)
        for _ in range(5):
            fold(est, make_path(np.full(9, -2.0)))
        assert math.exp(est.log_mean) == pytest.approx(8.0, rel=1e-14)
        assert est.mean == pytest.approx(8.0, rel=1e-14)
        assert est.variance == pytest.approx(0.0, abs=1e-25)

    def test_lp_norm_of_ones(self):
        n = 20
        est = S.MomentEstimate(S.Functional.lp(p=2.0), t=1.0)
        fold(est, make_path(np.ones(n)))
        fold(est, make_path(np.ones(n)))
        assert est.mean == pytest.approx(n / (n + 1), rel=1e-14)

    def test_chi_square_band(self):
        rng = np.random.default_rng(2024)
        est = S.MomentEstimate(S.Functional.pointwise(0.5, p=2.0), t=1.0)
        for v in rng.standard_normal(10_000):
            est.add_value(v * v)
        assert abs(est.mean - 1.0) < 1.96 * math.sqrt(2.0 / 10_000)

    def test_missing_time_rejected(self):
        with pytest.raises(S.StatsDomainError):
            S.ensemble_estimates(make_path(np.ones(4), t=1.0), [S.Functional.sup(2.0)],
                                 [2.0])

    def test_log_scale_respected(self):
        # identical physical fields stored at different scales agree
        a = S.MomentEstimate(S.Functional.sup(2.0), t=1.0)
        fold(a, make_path(np.full(4, 3.0)))
        b = S.MomentEstimate(S.Functional.sup(2.0), t=1.0)
        fold(b, make_path(np.full(4, 3.0 * math.exp(-5)), log_scale=5.0))
        assert a.log_mean == pytest.approx(b.log_mean, abs=1e-12)


def reference_estimate(f, ens, t):
    """The per-sample fold: each row's log value, then a scalar Welford
    update of the linear moments and np.logaddexp of the log sums."""
    est = S.MomentEstimate(f, t)
    for logabs in ens.log_abs_at(t):
        finite = logabs[np.isfinite(logabs)]
        if f.kind == S.POINTWISE:
            logv = f.p * float(logabs[np.argmin(np.abs(ens.config.grid.x - f.x))])
        elif f.kind == S.SUPNORM:
            logv = f.p * float(np.max(logabs))
        elif finite.size == 0:
            logv = -math.inf
        else:
            m = float(np.max(finite))
            logv = math.log(ens.config.grid.dx) + f.p * m \
                + math.log(float(np.sum(np.exp(f.p * (finite - m)))))
        est.n += 1
        est.log_sum = np.logaddexp(est.log_sum, logv)
        est.log_sum_sq = np.logaddexp(est.log_sum_sq, 2.0 * logv)
        est.overflowed |= logv > math.log(1e300)
        if not est.overflowed:
            v = math.exp(logv)
            delta = v - est.mean
            est.mean += delta / est.n
            est.m2 += delta * (v - est.mean)
    return est


def _close(a, b, scale=None):
    a, b = float(a), float(b)
    return a == b or abs(a - b) <= 1e-12 * (scale or max(abs(a), abs(b)))


BATCHES = {
    "lam2": (SimulationConfig(grid=GridSpec(n_interior=31, dt=1e-3, horizon=0.1),
                              lam=2.0, master_seed=11, u0=InitialData.bump(0.2),
                              observation_times=(0.05, 0.1)), 64),
    # the renormalized batch of the solver's stability test, in log mode
    "lam64_renormalized": (
        SimulationConfig(grid=GridSpec(n_interior=63, dt=2e-5, horizon=0.02),
                         lam=64.0, master_seed=7, u0=InitialData.bump(0.2),
                         observation_times=(0.02,)), 8),
    # the bump at t = 0 has exact zeros outside its support, which lp skips
    "bump_t0": (SimulationConfig(grid=GridSpec(n_interior=31, dt=1e-3, horizon=0.01),
                                 lam=2.0, master_seed=3, u0=InitialData.bump(0.2),
                                 observation_times=(0.0,)), 16),
}


class TestBatchFold:
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_matches_per_sample_fold(self, batch):
        cfg, k = BATCHES[batch]
        ens = simulate_paths(cfg, range(k))
        functionals = [S.Functional.pointwise(0.5, p) for p in (2.0, 4.0)] \
            + [S.Functional.sup(p) for p in (2.0, 4.0)] \
            + [S.Functional.lp(p) for p in (2.0, 4.0)]
        table = S.ensemble_estimates(ens, functionals, cfg.observation_times)
        assert list(table) == [(f, t) for f in functionals for t in cfg.observation_times]
        for (f, t), got in table.items():
            want = reference_estimate(f, ens, t)
            assert got.n == want.n == k
            assert got.overflowed == want.overflowed
            for name in ("log_sum", "log_sum_sq"):
                a, b = getattr(got, name), getattr(want, name)
                assert _close(a, b, max(1.0, abs(b))), (f, t, name, a, b)
            if not want.overflowed:
                assert _close(got.mean, want.mean), (f, t, got.mean, want.mean)
                assert _close(got.m2, want.m2, max(abs(want.m2), want.mean ** 2)), \
                    (f, t, got.m2, want.m2)
        if batch == "lam64_renormalized":
            assert all(est.overflowed for est in table.values())

    def test_unobserved_time_rejected(self):
        cfg, _ = BATCHES["lam2"]
        with pytest.raises(S.StatsDomainError):
            S.Functional.sup(2.0).log_values(simulate_paths(cfg, range(2)), 0.075)


class TestLogMode:
    def test_overflow_flips_to_log(self):
        est = S.MomentEstimate(S.Functional.sup(2.0), t=1.0)
        est.add_log_values([800.0, 801.0])
        assert est.overflowed
        assert est.log_mean == pytest.approx(
            np.logaddexp(800.0, 801.0) - math.log(2), abs=1e-12)
        with pytest.raises(S.StatsDomainError):
            _ = est.variance
        assert est.log_ci_half_width > 0

    def test_log_matches_linear_when_safe(self):
        rng = np.random.default_rng(5)
        est = S.MomentEstimate(S.Functional.sup(2.0), t=1.0)
        for v in rng.exponential(2.0, 500):
            est.add_value(v)
        assert est.log_mean == pytest.approx(math.log(est.mean), rel=1e-12)
        # delta-method log CI equals linear CI / mean
        assert est.log_ci_half_width == pytest.approx(
            est.ci_half_width / est.mean, rel=1e-9)


class TestMerge:
    def test_identity(self):
        f = S.Functional.lp(2.0)
        e = S.MomentEstimate(f, t=1.0)
        for v in (1.0, 2.0, 3.0):
            e.add_value(v)
        empty = S.MomentEstimate(f, t=1.0)
        m = S.merge(e, empty)
        assert (m.n, m.mean, m.m2) == (e.n, e.mean, e.m2)

    def test_commutative(self):
        f = S.Functional.sup(2.0)
        rng = np.random.default_rng(1)
        a, b = S.MomentEstimate(f, 1.0), S.MomentEstimate(f, 1.0)
        for v in rng.exponential(1.0, 100):
            a.add_value(v)
        for v in rng.exponential(1.0, 37):
            b.add_value(v)
        ab, ba = S.merge(a, b), S.merge(b, a)
        assert ab.mean == pytest.approx(ba.mean, rel=1e-12)
        assert ab.m2 == pytest.approx(ba.m2, rel=1e-12)

    def test_shard_invariance(self):
        rng = np.random.default_rng(9)
        vals = rng.exponential(1.0, 10_000)
        f = S.Functional.pointwise(0.5, 2.0)
        ref = None
        for shards in (1, 8, 64):
            parts = []
            for chunk in np.array_split(vals, shards):
                e = S.MomentEstimate(f, 1.0)
                for v in chunk:
                    e.add_value(v)
                parts.append({(f, 1.0): e})
            merged = S.merge_tables(parts)[(f, 1.0)]
            if ref is None:
                ref = merged
            else:
                assert merged.mean == pytest.approx(ref.mean, rel=1e-12)
                assert merged.variance == pytest.approx(ref.variance, rel=1e-12)
                assert merged.log_mean == pytest.approx(ref.log_mean, rel=1e-12)

    def test_mismatch_rejected(self):
        a = S.MomentEstimate(S.Functional.sup(2.0), t=1.0)
        b = S.MomentEstimate(S.Functional.sup(4.0), t=1.0)
        with pytest.raises(S.StatsDomainError):
            S.merge(a, b)

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=40),
           st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=40),
           st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_merge_associative(self, xs, ys, zs):
        f = S.Functional.sup(2.0)

        def est(vals):
            e = S.MomentEstimate(f, 1.0)
            for v in vals:
                e.add_value(v)
            return e

        a, b, c = est(xs), est(ys), est(zs)
        left = S.merge(S.merge(a, b), c)
        right = S.merge(a, S.merge(b, c))
        assert left.mean == pytest.approx(right.mean, rel=1e-12)
        assert left.m2 == pytest.approx(right.m2, rel=1e-11, abs=1e-12)
        assert left.log_sum == pytest.approx(right.log_sum, rel=1e-12)


class TestPEnergy:
    def test_unit_mean(self):
        e = S.MomentEstimate(S.Functional.lp(4.0), t=1.0)
        e.add_value(1.0)
        e.add_value(1.0)
        assert S.p_energy(e).value == pytest.approx(1.0)

    def test_p2_mean4(self):
        e = S.MomentEstimate(S.Functional.lp(2.0), t=1.0)
        for _ in range(4):
            e.add_value(4.0)
        out = S.p_energy(e)
        assert out.value == pytest.approx(2.0)
        assert out.ci_half_width == pytest.approx(0.0, abs=1e-12)

    def test_wrong_functional_rejected(self):
        e = S.MomentEstimate(S.Functional.sup(2.0), t=1.0)
        e.add_value(1.0)
        e.add_value(1.0)
        with pytest.raises(S.StatsDomainError):
            S.p_energy(e)

    def test_zero_mean_rejected(self):
        e = S.MomentEstimate(S.Functional.lp(2.0), t=1.0)
        e.add_value(0.0)
        e.add_value(0.0)
        with pytest.raises(S.StatsDomainError):
            S.p_energy(e)

    def test_log_mode_energy(self):
        e = S.MomentEstimate(S.Functional.lp(2.0), t=1.0)
        e.add_log_values([2000.0, 2002.0])
        out = S.p_energy(e)
        assert out.overflowed
        assert out.log_value == pytest.approx(
            (np.logaddexp(2000.0, 2002.0) - math.log(2)) / 2.0, abs=1e-12)


class TestOrderings:
    def test_pointwise_below_sup_per_path(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = rng.standard_normal(16)
            path = make_path(vals)
            pw = S.Functional.pointwise(rng.random(), 2.0).log_values(path, 1.0)[0]
            sup = S.Functional.sup(2.0).log_values(path, 1.0)[0]
            assert pw <= sup + 1e-14

    def test_jensen_ordering(self):
        rng = np.random.default_rng(4)
        e2 = S.MomentEstimate(S.Functional.pointwise(0.5, 2.0), t=1.0)
        e4 = S.MomentEstimate(S.Functional.pointwise(0.5, 4.0), t=1.0)
        for _ in range(2000):
            path = make_path(rng.standard_normal(9))
            fold(e2, path)
            fold(e4, path)
        assert e2.log_mean / 2.0 <= e4.log_mean / 4.0 + 1e-12

    def test_lp_mass_below_sup_moment(self):
        rng = np.random.default_rng(6)
        lp = S.MomentEstimate(S.Functional.lp(2.0), t=1.0)
        sup = S.MomentEstimate(S.Functional.sup(2.0), t=1.0)
        for _ in range(500):
            path = make_path(rng.standard_normal(16))
            fold(lp, path)
            fold(sup, path)
        assert lp.log_mean <= sup.log_mean + 1e-12

    def test_p_below_2_rejected(self):
        with pytest.raises(S.StatsDomainError):
            S.Functional.sup(1.5)


def _same_bits(got, want):
    """Equal shape and type, and every float equal bit for bit (nan too)."""
    got, want_arr = np.asarray(got), np.asarray(want)
    assert type(got[()]) is type(want_arr[()]) and got.shape == want_arr.shape
    assert np.array_equal(got.view(np.int64), want_arr.view(np.int64))


class TestLogSumExp:
    """stats.logsumexp reproduces scipy.special.logsumexp (scipy 1.17's
    algorithm) bit for bit on real unweighted input."""

    def check(self, a, axis):
        _same_bits(S.logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis))

    def test_random_shapes_and_axes(self):
        rng = np.random.default_rng(20)
        for _ in range(600):
            shape = tuple(rng.integers(1, 7, size=rng.integers(1, 4)))
            a = rng.uniform(-800.0, 800.0, size=shape)
            if rng.random() < 0.3:
                a = np.round(a / 50.0)      # ties at the maximum
            if rng.random() < 0.3:
                a[rng.random(shape) < 0.3] = -np.inf
            axes = [None, 0, -1] + ([1] if a.ndim > 1 else [])
            self.check(a, axes[rng.integers(len(axes))])

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    def test_edge_rows(self, axis):
        a = np.array([[3.0, 3.0, 3.0, -1.0],          # a three-way tie at the max
                      [-np.inf, -np.inf, -np.inf, -np.inf],
                      [-np.inf, 2.0, -np.inf, 2.0],
                      [800.0, -800.0, 0.0, 799.9],
                      [np.inf, 1.0, 2.0, 3.0],
                      [np.nan, 1.0, 2.0, 3.0]])
        self.check(a, axis)
        self.check(a[1:3], axis)

    def test_single_elements_and_scalars(self):
        for a in ([5.0], [-np.inf], [[7.5]], 2.5, [0.0, 0.0]):
            self.check(np.asarray(a, dtype=float), None)
        self.check(np.array([[7.5]]), 1)
        assert float(S.logsumexp([0.0, 0.0])) == math.log(2.0)
        assert S.logsumexp(np.zeros((2, 3)), axis=0).shape == (3,)
