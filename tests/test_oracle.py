"""Oracle tests: exact cases, product-integration convergence, growth laws."""

import math
from dataclasses import replace

import numpy as np
import pytest
from compare_outputs import untimed

from sheatlab import analysis as A
from sheatlab import kernel as kern
from sheatlab import oracle as O
from sheatlab.solver import InitialData

PI2 = math.pi ** 2


def kernel_quadrature_d1(u0, nu, t, x, n_quad=2048):
    # independent route for D1: direct Gauss-Legendre quadrature of g * u0
    spec = kern.KernelSpec(nu=nu)
    ys, ws = kern.gauss_legendre_panels(0.0, 1.0, n_quad // 16, 16)
    return float(np.dot(ws, kern.eval_kernel(spec, t, x, ys) * u0(ys)))


class TestDeterministicLimit:
    def test_sine_mode_exact(self):
        cfg = O.OracleConfig(lam=0.0, u0=InitialData.sine(1), horizon=0.5,
                             n_time_panels=100, n_x=31)
        mf = O.second_moments([cfg], error_estimate=False)[0]
        assert mf.log_m_at(0.5, 0.5) == pytest.approx(-2 * 0.5 * PI2 * 0.5, abs=1e-12)

    def test_matches_kernel_quadrature_squared(self):
        cfg = O.OracleConfig(lam=0.0, u0=InitialData.bump(0.2), horizon=0.25,
                             n_time_panels=50, n_x=31)
        mf = O.second_moments([cfg], error_estimate=False)[0]
        for t in (0.1, 0.25):
            for x in (0.5 - 7 / 31 if False else 0.5, 0.5 + 5 / 31):
                x = float(mf.x[np.argmin(np.abs(mf.x - x))])
                d1 = kernel_quadrature_d1(InitialData.bump(0.2), 0.5, t, x)
                assert math.exp(mf.log_m_at(t, x)) == pytest.approx(d1 ** 2, abs=1e-10)

    def test_initial_row_is_u0_squared(self):
        cfg = O.OracleConfig(lam=3.0, u0=InitialData.bump(0.2), horizon=0.1,
                             n_time_panels=20, n_x=31)
        mf = O.second_moments([cfg], error_estimate=False)[0]
        u0 = InitialData.bump(0.2)(mf.x)
        with np.errstate(over="ignore"):
            row = np.exp(mf.log_m[0])
        assert row == pytest.approx(u0 ** 2, abs=1e-14)


class TestVolterraSolve:
    def test_self_convergence_within_reported_error(self):
        (a,) = O.second_moments([O.OracleConfig(
            lam=1.0, u0=InitialData.bump(0.2), horizon=0.25, n_time_panels=200, n_x=31)])
        (b,) = O.second_moments([O.OracleConfig(
            lam=1.0, u0=InitialData.bump(0.2), horizon=0.25, n_time_panels=400, n_x=31)],
            error_estimate=False)
        actual = abs(a.log_m_at(0.25, 0.5) - b.log_m_at(0.25, 0.5))
        assert actual <= a.error_log_at(0.25, 0.5)

    def test_halving_contracts(self):
        vals = []
        for nt in (100, 200, 400):
            cfg = O.OracleConfig(lam=1.0, u0=InitialData.bump(0.2), horizon=0.25,
                                 n_time_panels=nt, n_x=31)
            vals.append(O.second_moments([cfg], error_estimate=False)[0].log_m[-1, 15])
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert d1 / d2 >= 1.4

    def test_monotone_in_lambda(self):
        prev = None
        for mf in O.second_moments(
                [O.OracleConfig(lam=lam, u0=InitialData.bump(0.2), horizon=0.25,
                                n_time_panels=100, n_x=31)
                 for lam in (0.0, 0.5, 1.0, 2.0)], error_estimate=False):
            cur = mf.log_m
            if prev is not None:
                assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_positivity(self):
        cfg = O.OracleConfig(lam=2.0, u0=InitialData.bump(0.2), horizon=0.5,
                             n_time_panels=200, n_x=31)
        mf = O.second_moments([cfg], error_estimate=False)[0]
        assert np.all(mf.log_m[1:] > -np.inf)

    def test_odd_grid_solves_without_error_estimate(self):
        # only the grid-halving solve needs an even panel count
        cfg = O.OracleConfig(lam=2.0, u0=InitialData.bump(0.2), horizon=0.25,
                             n_time_panels=101, n_x=15)
        (mf,) = O.second_moments([cfg], error_estimate=False)
        assert_log_close(mf.log_m, reference_log_m(cfg))
        with pytest.raises(O.OracleDomainError, match="even"):
            O.second_moments([cfg])

    def test_nonmonotone_grid_rejected(self):
        with pytest.raises(O.OracleDomainError):
            O.OracleConfig(lam=1.0, horizon=-0.5)

    def test_large_lambda_rate_matches_renewal_theory(self):
        # short windows kill the boundary correction; the continuum rate is
        # (lam k)^4/(8 nu), an independent closed-form prediction
        lam = 8.0
        r_pred = O.predicted_rate(lam, 1.0, 0.5)
        cfg = O.OracleConfig(lam=lam, u0=InitialData.bump(0.2), horizon=30.0 / r_pred,
                             n_time_panels=1500, n_x=31)
        mf = O.second_moments([cfg], error_estimate=False)[0]
        le = O.log_l2_energy(mf)
        fit = A.lyapunov_exponent_series(mf.t, 2 * le,
                                         window=A.fraction_window(mf.t[-1], (0.6, 1.0)))
        assert fit.slope == pytest.approx(r_pred, rel=0.02)


def reference_log_m(cfg):
    """Plain per-lambda march: each lag's operator from eval_kernel, each
    step's weights and Psi_0 rule applied lag by lag, and the history
    rescaled to the largest earlier offset at every step."""
    n_t, n_x = cfg.n_time_panels, cfg.n_x
    dt = cfg.horizon / n_t
    x = cfg.x_grid
    spec = cfg.kernel_spec()
    with np.errstate(divide="ignore"):
        log_d1sq = 2.0 * np.log(np.abs(O._d1_field(cfg, cfg.t_grid, x,
                                                   O._d1_coefficients(cfg))))
    amp = (cfg.lam * cfg.k_sigma) ** 2
    if amp == 0.0:
        return log_d1sq
    ops = []
    for d in range(1, n_t + 1):
        if math.sqrt(4.0 * cfg.nu * d * dt) < 2.0 / n_x:
            ops.append(np.diag(kern.eval_kernel(spec, 2.0 * d * dt, x, x)))
        else:
            ops.append(kern.eval_kernel(spec, d * dt, x[:, None], x[None, :]) ** 2 / n_x)
    w_lo, w_hi = O._product_weights(dt, n_t)
    m0 = cfg.u0(x) ** 2
    levels, offsets = [m0 / m0.max()], [math.log(m0.max())]
    for i in range(1, n_t + 1):
        ref = max(offsets)
        hist = [lv * math.exp(off - ref) for lv, off in zip(levels, offsets)]
        psi = [math.sqrt(d * dt) * (ops[d - 1] @ hist[i - d]) for d in range(1, i + 1)]
        psi0 = psi[0] if i == 1 else np.maximum(2.0 * psi[0] - psi[1], 0.0)
        total = w_lo[0] * psi0
        for d in range(1, i + 1):
            total = total + (w_hi[d - 1] + (w_lo[d] if d < i else 0.0)) * psi[d - 1]
        s = np.exp(log_d1sq[i] - ref) + amp * total
        levels.append(s / s.max())
        offsets.append(ref + math.log(s.max()))
    with np.errstate(divide="ignore"):
        return np.log(np.array(levels)) + np.array(offsets)[:, None]


def reference_lag_kernels(cfg, dt, lag_weights, n_diag):
    """_lag_kernels as one scalar-time eval_kernel call per lag."""
    n_lags, n_x = len(lag_weights), cfg.n_x
    spec = cfg.kernel_spec()
    x = cfg.x_grid
    diag = np.empty((n_diag, n_x))
    for d in range(1, n_diag + 1):
        diag[n_diag - d] = lag_weights[d - 1] * kern.eval_kernel(spec, 2.0 * d * dt, x, x)
    dense = np.empty((n_x, (n_lags - n_diag) * n_x))
    blocks = dense.reshape(n_x, n_lags - n_diag, n_x)
    X, Y = x[:, None], x[None, :]
    for d in range(n_diag + 1, n_lags + 1):
        blocks[:, n_lags - d] = (lag_weights[d - 1] / n_x) * kern.eval_kernel(
            spec, d * dt, X, Y) ** 2
    return diag, dense


def assert_log_close(a, b, rel=1e-12):
    assert np.array_equal(np.isneginf(a), np.isneginf(b))
    fin = np.isfinite(b)
    assert np.all(np.isfinite(a) == fin)
    assert np.all(np.abs(a[fin] - b[fin]) <= rel * np.maximum(1.0, np.abs(b[fin])))


class TestBatchedMarch:
    LAMS = (0.0, 0.5, 2.0, 8.0)

    @staticmethod
    def small(lam, boundary=kern.DIRICHLET, horizon=0.02, **kw):
        # dt = 1/6000: the first 53 of 120 lags are diagonal surrogates
        return O.OracleConfig(lam=lam, u0=InitialData.bump(0.2), horizon=horizon,
                              boundary=boundary, n_time_panels=120, n_x=15, **kw)

    @staticmethod
    def split_rescale_grids(monkeypatch):
        """Split the 200-panel, 15-cell grids of the rescale tests at lag 17
        (Dirichlet) or 16 (Neumann), with the far field's mode count."""
        def split(grid, n_diag, n_amp):
            n_near = 17 if grid.boundary == kern.DIRICHLET else 16
            dt = grid.horizon / grid.n_time_panels
            return n_near, int(O._far_modes(grid, (n_near + 1) * dt))
        monkeypatch.setattr(O, "_split", split)

    @pytest.mark.parametrize("boundary", [kern.DIRICHLET, kern.NEUMANN])
    def test_matches_reference_march(self, boundary):
        # at horizon 0.6 (dt = 0.005) only lag 1 is a surrogate, so Psi_0
        # reads a surrogate lag 1 and a dense lag 2
        for horizon, n_diag in ((0.02, 53), (0.6, 1)):
            cfgs = [self.small(lam, boundary, horizon) for lam in self.LAMS]
            fields = O.second_moments(cfgs, error_estimate=False)
            assert fields[0].march["n_diag"] == n_diag
            for cfg, mf in zip(cfgs, fields):
                assert_log_close(mf.log_m, reference_log_m(cfg))

    def test_rescaled_history_matches_reference(self, monkeypatch):
        # log m climbs past 700: the history and the far-field channels are
        # rescaled at e^300 more than once, and the early rows must stay
        # finite in the output
        self.split_rescale_grids(monkeypatch)
        for boundary in (kern.DIRICHLET, kern.NEUMANN):
            cfg = O.OracleConfig(lam=16.0, u0=InitialData.bump(0.2), horizon=4.0,
                                 boundary=boundary, n_time_panels=200, n_x=15)
            mf = O.second_moments([cfg], error_estimate=False)[0]
            assert mf.march["n_near"] < 200 and mf.march["n_modes"] > 0
            assert mf.log_m.max() > 700 and np.all(np.isfinite(mf.log_m[1:]))
            assert_log_close(mf.log_m, reference_log_m(cfg))

    @pytest.mark.parametrize("boundary", [kern.DIRICHLET, kern.NEUMANN])
    def test_amplitudes_rescaled_apart_match_reference(self, monkeypatch, boundary):
        # one march of two amplitudes: lambda = 16's reference moves at
        # e^300 several times while lambda = 1's stays put
        self.split_rescale_grids(monkeypatch)
        cfgs = [O.OracleConfig(lam=lam, u0=InitialData.bump(0.2), horizon=4.0,
                               boundary=boundary, n_time_panels=200, n_x=15)
                for lam in (1.0, 16.0)]
        fields = O.second_moments(cfgs, error_estimate=False)
        assert fields[0].march["n_modes"] > 0
        assert np.all(np.abs(fields[0].log_m[1:]) < 300) and fields[1].log_m.max() > 700
        for cfg, mf in zip(cfgs, fields):
            assert_log_close(mf.log_m, reference_log_m(cfg))

    @pytest.mark.parametrize("boundary", [kern.DIRICHLET, kern.NEUMANN])
    def test_amplitudes_rescaled_at_one_step_match_reference(self, boundary):
        # both references first move at the same step: the second
        # amplitude's rescale finds every level up to it already written
        cfgs = [O.OracleConfig(lam=lam, u0=InitialData.bump(0.2), horizon=4.0,
                               boundary=boundary, n_time_panels=400, n_x=15)
                for lam in (16.0, 16.0001)]
        fields = O.second_moments(cfgs, error_estimate=False)
        first = {int(np.argmax(mf.log_m.max(axis=1) > O._RESCALE_LOG)) for mf in fields}
        assert len(first) == 1 and first != {0}
        for cfg, mf in zip(cfgs, fields):
            assert_log_close(mf.log_m, reference_log_m(cfg))

    @pytest.mark.parametrize("boundary", [kern.DIRICHLET, kern.NEUMANN])
    def test_lag_kernels_match_per_lag_calls(self, boundary):
        # 200 lags of dt = 2e-5 on 63 cells: past 24 surrogates, 176 dense
        # lags in three chunks that cross the series/image switch
        cfg = O.OracleConfig(lam=1.0, u0=InitialData.bump(0.2), horizon=0.004,
                             boundary=boundary, n_time_panels=200, n_x=63)
        dt = cfg.horizon / cfg.n_time_panels
        weights = np.random.default_rng(3).random(cfg.n_time_panels) + 0.5
        use_series = kern.truncation_plan(cfg.kernel_spec(), dt * np.arange(25, 201))[1]
        assert use_series.any() and not use_series.all()
        for n_diag in (0, 24, 200):
            got = O._lag_kernels(cfg, dt, weights, n_diag)
            want = reference_lag_kernels(cfg, dt, weights, n_diag)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.max(np.abs(g - w), initial=0.0) \
                    <= 1e-14 * np.max(np.abs(w), initial=0.0)

    def test_downward_rescale_leaves_no_subnormal(self, monkeypatch):
        tiny = np.finfo(float).tiny
        h = np.array([1.0, 1e-150, 1e-180, 1e-200, 0.0])
        O._rescale(h, 300.0)   # 1e-180 * e^-300 would be subnormal
        assert h[0] == math.exp(-300.0) and h[1] > tiny
        assert np.all(h[2:] == 0.0)
        up = np.array([1e-300, 1e-310])
        O._rescale(up, -300.0)   # an upward rescale only multiplies
        assert np.array_equal(up, np.array([1e-300, 1e-310]) * math.exp(300.0))

        # in the march: every downward rescale flushes what it pushes
        # under the normal range, and there is such an entry to flush
        flushed = []
        rescale = O._rescale

        def checked(h, log_peak):
            if log_peak > 0:
                pushed = h * math.exp(-log_peak)
                flushed.append(np.count_nonzero((pushed > 0) & (pushed < tiny)))
            rescale(h, log_peak)
            assert not np.any((h > 0) & (h < tiny))

        monkeypatch.setattr(O, "_rescale", checked)
        # log m climbs past 1300 in steps small enough to leave rows at
        # every scale, so some land just above the flush line
        cfg = O.OracleConfig(lam=16.0, u0=InitialData.bump(0.2), horizon=4.0,
                             n_time_panels=400, n_x=15)
        log_m = O.second_moments([cfg], error_estimate=False)[0].log_m
        assert len(flushed) > 2 and sum(flushed) > 0
        assert_log_close(log_m, reference_log_m(cfg))

    def test_batch_equals_singles_in_input_order(self):
        cfgs = [self.small(lam) for lam in (2.0, 0.0, 8.0, 0.5)]
        cfgs.append(self.small(1.0, k_sigma=2.0))  # amplitude shared with lam = 2
        fields = O.second_moments(cfgs)
        for cfg, mf in zip(cfgs, fields):
            alone = O.second_moments([cfg])[0]
            assert mf.config is cfg
            assert_log_close(mf.log_m, alone.log_m)
            assert_log_close(mf.error_log, alone.error_log)

    def test_one_d1_expansion_per_initial_profile(self, monkeypatch):
        # the fine and the halved grids of each boundary share u0's mode
        # coefficients, computed once per second_moments call
        calls = []
        coefficients = O._d1_coefficients

        def counted(cfg):
            calls.append(cfg.boundary)
            return coefficients(cfg)

        monkeypatch.setattr(O, "_d1_coefficients", counted)
        cfgs = [self.small(lam, boundary) for boundary in (kern.DIRICHLET, kern.NEUMANN)
                for lam in self.LAMS]
        fields = O.second_moments(cfgs)
        assert sorted(calls) == [kern.DIRICHLET, kern.NEUMANN]
        # lambda = 0 is the exact log D1^2, bit for bit a lone D1's
        assert self.LAMS[0] == 0.0
        for cfg, mf in zip(cfgs[::len(self.LAMS)], fields[::len(self.LAMS)]):
            with np.errstate(divide="ignore"):
                want = 2.0 * np.log(np.abs(O._d1_field(cfg, cfg.t_grid, cfg.x_grid,
                                                       coefficients(cfg))))
            assert np.array_equal(mf.log_m, want)

    def test_one_kernel_build_per_grid(self, monkeypatch):
        calls = []
        build = O._lag_kernels

        def counted(cfg, *args):
            calls.append((cfg.boundary, cfg.n_time_panels))
            return build(cfg, *args)

        monkeypatch.setattr(O, "_lag_kernels", counted)
        cfgs = [self.small(lam, boundary) for boundary in (kern.DIRICHLET, kern.NEUMANN)
                for lam in self.LAMS]
        O.second_moments(cfgs, error_estimate=False)
        assert sorted(calls) == [(kern.DIRICHLET, 120), (kern.NEUMANN, 120)]
        calls.clear()
        O.second_moments([self.small(2.0)], error_estimate=True)
        assert calls == [(kern.DIRICHLET, 120), (kern.DIRICHLET, 60)]
        calls.clear()
        base = O.OracleConfig(lam=0.0, u0=InitialData.bump(0.2), horizon=0.5,
                              n_time_panels=100, n_x=15)
        A.oracle_threshold_scan(base, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
        assert calls == [(kern.DIRICHLET, 100)]


class TestRenewalEngine:
    def test_product_weights_free_of_cancellation(self):
        # the float weights round the long-double closed form to a few ulp,
        # and that form equals the defining integrals, whose long-double
        # differences lose about 1e-19 d^2 (1e-10 at d = 20 000; the old
        # float differences lost 2e-7 there)
        n_t, dt = 20_000, 4.0 / 20_000
        w_lo, w_hi = O._product_weights(dt, n_t)
        d = np.arange(1, n_t + 1, dtype=np.longdouble)
        a, b = d * np.longdouble(dt), (d - 1) * np.longdouble(dt)
        ra, rb = np.sqrt(a), np.sqrt(b)
        scale = np.longdouble(2) / 3 * np.longdouble(dt) / (ra + rb) ** 2
        want_lo, want_hi = scale * (2 * ra + rb), scale * (ra + 2 * rb)
        assert np.max(np.abs(w_lo - want_lo) / want_lo) < 2e-15
        assert np.max(np.abs(w_hi - want_hi) / want_hi) < 2e-15
        i0 = 2 * (ra - rb)
        i1 = np.longdouble(2) / 3 * (a * ra - b * rb)
        assert np.max(np.abs(want_lo + want_hi - i0) / i0) < 1e-9
        assert np.max(np.abs(b * want_lo + a * want_hi - i1) / i1) < 1e-9

    def test_weight_fit_residual(self):
        for n_t, n_near in ((2000, 24), (2500, 218), (8000, 64)):
            rho, beta, residual = O._weight_fit(n_t, n_near)
            assert np.all((rho > 0) & (rho < 1)) and residual < 1e-14

    # test_cost_model_sides' small grid, which the engine marches directly
    # (L = n_t): blocks of the near field and no far field
    DIRECT = dict(horizon=0.5, n_time_panels=100, n_x=15)
    # the acceptance grids of the split march, the direct one and a short
    # all-surrogate one; a grid without a horizon is solved on both
    # boundaries
    GRIDS = [
        # criterion 4's grid, every lambda of its scan in one march
        (dict(horizon=4.0, n_time_panels=2000, n_x=31), (0.25, 0.5, 1, 2, 4, 8, 16)),
        # criterion 6's lambda = 8 solve, which energies_at resolves directly
        (dict(horizon=0.1, n_time_panels=2500, n_x=31), (8.0,)),
        # criterion 6's all-surrogate solves, which energies_at takes on
        # T = 30 / r_pred (no common horizon): fitted channels past lag 32
        (dict(n_time_panels=2500, n_x=31), (16.0, 32.0, 64.0)),
        (DIRECT, (0.25, 0.5, 1, 2, 4, 8, 16)),
        # 200 all-surrogate panels: fitted channels past lag 32 too
        (dict(n_time_panels=200, n_x=31), (16.0, 32.0, 64.0)),
    ]

    @staticmethod
    def configs(grid, lams):
        if "horizon" in grid and grid is not TestRenewalEngine.DIRECT:
            return [O.OracleConfig(lam=lam, u0=InitialData.bump(0.2), **grid) for lam in lams]
        return [O.OracleConfig(lam=lam, u0=InitialData.bump(0.2), boundary=boundary,
                               **{"horizon": 30.0 / O.predicted_rate(lam, 1.0, 0.5), **grid})
                for boundary in (kern.DIRICHLET, kern.NEUMANN) for lam in lams]

    @staticmethod
    def assert_fields_close(got, want, rel):
        for a, b in zip(got, want, strict=True):
            assert_log_close(a.log_m, b.log_m, rel=rel)
            fin = np.isfinite(b.log_m)
            assert np.all(np.abs(a.error_log - b.error_log)[fin]
                          <= rel * np.maximum(1.0, np.abs(b.log_m[fin])))

    @pytest.mark.parametrize("grid, lams", GRIDS)
    def test_matches_direct_march(self, monkeypatch, grid, lams):
        cfgs = self.configs(grid, lams)
        n_t = grid["n_time_panels"]
        engine = O.second_moments(cfgs)
        # an all-surrogate grid has no quadrature lag for modes to carry
        surrogate = engine[0].march["n_diag"] == n_t
        direct = grid is self.DIRECT
        for mf in engine:
            assert 0 < mf.march["n_near"] <= n_t and (mf.march["n_near"] == n_t) == direct
            assert (mf.march["n_modes"] == 0) == (surrogate or direct)
            assert mf.march["fit_residual"] < (1e-11 if surrogate else 1e-14)
        # the direct march: no lag in the far field
        monkeypatch.setattr(O, "_split", lambda grid, n_diag, n_amp: (grid.n_time_panels, 0))
        direct = O.second_moments(cfgs)
        assert all(mf.march["n_near"] == n_t and mf.march["n_modes"] == 0 for mf in direct)
        self.assert_fields_close(engine, direct, 1e-12 if surrogate else 1e-10)

    @pytest.mark.parametrize("grid, lams", GRIDS)
    def test_blocks_match_per_step_recursion(self, monkeypatch, grid, lams):
        # blocks of one step advance the channels as a per-step recursion
        # and sum each step's older near lags alone
        cfgs = self.configs(grid, lams)
        blocked = O.second_moments(cfgs)
        assert O._BLOCK > 1 and all((mf.march["n_near"] < grid["n_time_panels"])
                                    == (grid is not self.DIRECT) for mf in blocked)
        monkeypatch.setattr(O, "_BLOCK", 1)
        self.assert_fields_close(blocked, O.second_moments(cfgs), 1e-13)

    @pytest.mark.parametrize("boundary", [kern.DIRICHLET, kern.NEUMANN])
    def test_rescale_inside_block(self, monkeypatch, boundary):
        # criterion 4's lambda = 16 alone on its halved grid: log m gains
        # about 65 per step, so the reference moves every 5 steps or so,
        # inside far-field blocks, and the last block is a short one
        cfg = O.OracleConfig(lam=16.0, u0=InitialData.bump(0.2), horizon=4.0,
                             boundary=boundary, n_time_panels=1000, n_x=31)
        mf = O.second_moments([cfg])[0]
        n_t, n_near = cfg.n_time_panels, mf.march["n_near"]
        block = min(O._BLOCK, n_near + 1)
        assert 0 < n_near < n_t and (n_t - n_near) % block != 0
        # the march's rescale steps, replayed from log m
        ref, moves = mf.log_m[0].max(), []
        for i in range(1, n_t + 1):
            if abs(mf.log_m[i].max() - ref) > O._RESCALE_LOG:
                ref = mf.log_m[i].max()
                moves.append(i)
        assert any(i > n_near and (i - n_near) % block for i in moves)
        monkeypatch.setattr(O, "_BLOCK", 1)
        self.assert_fields_close([mf], [O.second_moments([cfg])[0]], 1e-13)
        monkeypatch.setattr(O, "_split", lambda grid, n_diag, n_amp: (grid.n_time_panels, 0))
        self.assert_fields_close([mf], [O.second_moments([cfg])[0]], 1e-10)

    def test_cost_model_sides(self):
        # no lag of an all-surrogate grid has a quadrature to carry by
        # modes: past lag 32 its surrogates go onto fitted channels
        short = O.OracleConfig(lam=0.0, horizon=30.0 / O.predicted_rate(16.0, 1.0, 0.5),
                               n_time_panels=2500, n_x=31)
        assert O._split(short, 2500, 1) == (O._SURROGATE_NEAR, 0)
        # a short march on few cells and one lambda pays no far-field overhead
        tiny = O.OracleConfig(lam=0.0, horizon=0.5, n_time_panels=100, n_x=15)
        assert O._split(tiny, 1, 7) == (100, 0)
        # long marches split: criterion 4's and criterion 7's grids
        for grid, n_diag, n_amp in (
                (O.OracleConfig(lam=0.0, horizon=4.0, n_time_panels=2000, n_x=31), 1, 7),
                (O.OracleConfig(lam=0.0, horizon=0.16, n_time_panels=2200, n_x=25), 43, 4)):
            n_near, n_modes = O._split(grid, n_diag, n_amp)
            assert n_diag < n_near < grid.n_time_panels
            assert n_modes == O._far_modes(grid, (n_near + 1) * grid.horizon
                                           / grid.n_time_panels)

    @pytest.mark.parametrize("boundary", [kern.DIRICHLET, kern.NEUMANN])
    def test_mode_pairs_give_squared_kernel(self, boundary):
        # past the first far lag the kept pairs reproduce g^2 on the grid
        cfg = O.OracleConfig(lam=0.0, boundary=boundary, n_x=31)
        tau = 0.02
        n_modes = int(O._far_modes(cfg, tau))
        pair, rate, mult = O._mode_pairs(cfg, n_modes)
        got = (pair * (mult * np.exp(-rate * tau))) @ pair.T
        x = cfg.x_grid
        want = kern.eval_kernel(cfg.kernel_spec(), tau, x[:, None], x[None, :]) ** 2
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(want)


class TestEnvelope:
    def test_h_attained_at_gamma_for_sine(self):
        cfg = O.OracleConfig(lam=0.0, u0=InitialData.sine(1), horizon=0.2,
                             n_time_panels=40, n_x=31)
        mf = O.second_moments([cfg], error_estimate=False)[0]
        env = O.lower_bound_envelope(mf, 0.2)
        # minimum of sin^2 over [gamma, 1-gamma] sits at the edge node
        edge = mf.x[np.argmin(np.abs(mf.x - 0.2))]
        assert np.all(np.isclose(env.argmin_x, edge) | np.isclose(env.argmin_x, 1 - edge))

    def test_big_h_constant_for_sine(self):
        cfg = O.OracleConfig(lam=0.0, u0=InitialData.sine(1), horizon=0.5,
                             n_time_panels=50, n_x=31)
        mf = O.second_moments([cfg], error_estimate=False)[0]
        env = O.lower_bound_envelope(mf, 0.2)
        # H(t) = exp(2 nu pi^2 t) h(t) = sin^2(pi x_edge) for all t
        assert np.max(np.abs(env.log_big_h - env.log_big_h[0])) < 1e-10

    def test_big_h_eventually_grows_for_large_lambda(self):
        cfg = O.OracleConfig(lam=4.0, u0=InitialData.bump(0.2), horizon=1.0,
                             n_time_panels=500, n_x=31)
        mf = O.second_moments([cfg], error_estimate=False)[0]
        env = O.lower_bound_envelope(mf, 0.2)
        n = len(env.t)
        first_quarter = env.log_big_h[: n // 4].mean()
        last_quarter = env.log_big_h[3 * n // 4:].mean()
        assert last_quarter > first_quarter

    def test_empty_intersection_rejected(self):
        cfg = O.OracleConfig(lam=0.0, u0=InitialData.sine(1), horizon=0.1,
                             n_time_panels=20, n_x=4)
        mf = O.second_moments([cfg], error_estimate=False)[0]
        with pytest.raises(O.OracleDomainError):
            O.lower_bound_envelope(mf, 0.45)


def _envelope_series(lam, k_sigma, horizon, n_t, n_x=25):
    cfg = O.OracleConfig(lam=lam, k_sigma=k_sigma, u0=InitialData.bump(0.2),
                         horizon=horizon, n_time_panels=n_t, n_x=n_x)
    mf = O.second_moments([cfg], error_estimate=False)[0]
    env = O.lower_bound_envelope(mf, 0.2)
    return env.t, env.log_h


class TestTheorem31Calibration:
    def test_lambda_zero_slope_is_deterministic_decay(self):
        t, log_h = _envelope_series(0.0, 1.0, 0.5, 100)
        fit = A.lyapunov_exponent_series(t, log_h, window=A.fraction_window(t[-1], (0.5, 1.0)))
        assert fit.slope == pytest.approx(-2 * 0.5 * PI2, rel=0.01)

    def test_quartic_law_preferred(self):
        lams = [4.0, 4 * 2 ** 0.5, 8.0, 8 * 2 ** 0.5]
        base = O.OracleConfig(lam=0.0, u0=InitialData.bump(0.2), horizon=0.16,
                              n_time_panels=2200, n_x=25)
        scan = A.oracle_threshold_scan(base, lams)
        cal = A.theorem31_calibration(scan, k_lower=1.0, nu=0.5)
        # the calibration regresses the scan's own envelope fits
        assert cal.slopes == tuple(f.slope for f in scan.fits)
        assert cal.kappa2_hat > 0
        assert cal.r2_quartic > cal.r2_quadratic
        assert cal.r2_quartic > 0.999

    def test_coupling_lambda_k_enters_as_product(self):
        # doubling k at fixed lam equals doubling lam at fixed k, exactly,
        # since only lam*k enters the linear-sigma equation
        t1, h1 = _envelope_series(3.0, 2.0, 0.05, 400)
        t2, h2 = _envelope_series(6.0, 1.0, 0.05, 400)
        assert np.allclose(h1, h2, rtol=0, atol=1e-12)

    def test_needs_four_lambdas(self):
        base = O.OracleConfig(lam=0.0, u0=InitialData.bump(0.2), horizon=0.1,
                              n_time_panels=50, n_x=25)
        scan = A.oracle_threshold_scan(base, [1.0, 2.0, 3.0])
        with pytest.raises(A.AnalysisError):
            A.theorem31_calibration(scan, k_lower=1.0)


class TestEnergy:
    def test_direct_when_resolvable(self):
        cfg = O.OracleConfig(lam=1.0, u0=InitialData.bump(0.2), horizon=0.25,
                             n_time_panels=200, n_x=31)
        (p,) = A.energies_at([cfg], 0.25)
        assert not p.extrapolated
        mf = O.second_moments([cfg], error_estimate=False)[0]
        assert p.log_energy == pytest.approx(float(O.log_l2_energy(mf)[-1]), abs=1e-12)

    def test_extrapolated_matches_direct_where_both_work(self, monkeypatch):
        # lam large enough that 2000 panels trip the extrapolation path yet
        # small enough that 4000 panels still resolve t_target directly
        lam, t_target = 8.0, 0.1
        cfg = O.OracleConfig(lam=lam, u0=InitialData.bump(0.2), horizon=t_target,
                             n_time_panels=4000, n_x=31)
        direct = O.second_moments([cfg], error_estimate=False)[0]
        log_direct = float(O.log_l2_energy(direct)[-1])
        monkeypatch.setattr(A, "ENERGY_RATE_BUDGET", 20.0)
        (p,) = A.energies_at([O.OracleConfig(lam=lam, u0=InitialData.bump(0.2),
                                             horizon=t_target, n_time_panels=2000, n_x=31)],
                             t_target)
        assert p.extrapolated
        assert p.log_energy == pytest.approx(log_direct, rel=0.02)

    def test_energies_at_matches_energy_at(self):
        # criterion 6: lambda = 8 resolved, 16..64 extrapolated from
        # all-surrogate solves that energies_at marches together, each grid
        # with its own channel fit: every point equals its lone solve
        lams = (8.0, 16.0, 32.0, 64.0)
        cfgs = [O.OracleConfig(lam=lam, u0=InitialData.bump(0.2), horizon=0.1,
                               n_time_panels=2500, n_x=31) for lam in lams]
        points = A.energies_at(cfgs, 0.1)
        assert [p.extrapolated for p in points] == [False, True, True, True]
        assert [p.march["n_near"] < p.march["n_diag"] for p in points] \
            == [False, True, True, True]
        # the three batched grids share one march and its step-loop times,
        # fine and halved
        assert len({p.march["march_s"] for p in points[1:]}) == 1
        assert len({p.march["halving_march_s"] for p in points[1:]}) == 1
        assert all(p.march["halving_march_s"] > 0 for p in points)
        alone = [A.energies_at([cfg], 0.1)[0] for cfg in cfgs]
        assert [replace(p, march=untimed(p.march)) for p in points] \
            == [replace(p, march=untimed(p.march)) for p in alone]
