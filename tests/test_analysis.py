"""Analysis tests: fit sanity, thresholds, integral-bound lemma checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sheatlab import analysis as A
from sheatlab import kernel as K
from sheatlab import oracle as O
from sheatlab import stats as S
from sheatlab.solver import InitialData

PI2 = math.pi ** 2
SPEC = K.KernelSpec()


class TestRateFits:
    def test_exact_slope_recovery(self):
        t = np.linspace(0.5, 3.0, 12)
        fit = A.lyapunov_exponent_series(t, 2.75 * t - 0.3)
        assert fit.slope == pytest.approx(2.75, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_window_restricts_points(self):
        t = np.linspace(0.0, 2.0, 21)
        y = np.where(t < 1.0, 5.0 * t, 5.0 - 2.0 * (t - 1.0) + 5.0 * 0)
        y = np.where(t < 1.0, 5.0 * t, 5.0 - 2.0 * (t - 1.0))
        fit = A.lyapunov_exponent_series(t, y, window=(1.0, 2.0))
        assert fit.slope == pytest.approx(-2.0, abs=1e-9)

    def test_nonfinite_dropped_and_counted(self):
        t = np.linspace(0, 1, 10)
        y = 3.0 * t.copy()
        y[4] = -np.inf
        fit = A.lyapunov_exponent_series(t, y)
        assert fit.n_dropped == 1
        assert fit.slope == pytest.approx(3.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(A.AnalysisError):
            A.lyapunov_exponent_series([0.0, 1.0], [0.0, 1.0])

    def test_weighted_fit_uses_cis(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0, 1, 30)
        sig = np.full(30, 0.5)
        y = 1.5 * t + rng.normal(0, 0.5, 30)
        fit = A.lyapunov_exponent_series(t, y, sigmas=sig)
        assert abs(fit.slope - 1.5) < 3 * fit.slope_ci / 1.96

    def test_lyapunov_from_estimates(self):
        f = S.Functional.pointwise(0.5, 2.0)
        ests = []
        for t in (0.5, 1.0, 1.5, 2.0):
            e = S.MomentEstimate(f, t)
            for v in (math.exp(-2 * t) * 1.00, math.exp(-2 * t) * 1.002):
                e.add_value(v)
            ests.append(e)
        fit = A.lyapunov_exponent(ests)
        assert fit.slope == pytest.approx(-2.0, rel=1e-3)
        assert fit.significantly_negative


class TestExcitationIndex:
    def test_synthetic_quartic_exact(self):
        lams = np.array([8.0, 16.0, 32.0, 64.0])
        ex = A.excitation_index(lams, 1e-3 * lams ** 4)
        assert ex.e_p_hat == pytest.approx(4.0, abs=1e-6)
        assert ex.r2_quartic > ex.r2_quadratic

    def test_synthetic_quadratic(self):
        lams = np.array([8.0, 16.0, 32.0, 64.0])
        ex = A.excitation_index(lams, 0.1 * lams ** 2)
        assert ex.e_p_hat == pytest.approx(2.0, abs=1e-6)
        assert ex.r2_quadratic > ex.r2_quartic

    def test_subunit_energies_dropped(self):
        lams = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
        log_e = 1e-3 * lams ** 4
        log_e[0] = -0.5  # E < 1 cannot enter log log
        ex = A.excitation_index(lams, log_e)
        assert ex.dropped_lambdas == (2.0,)
        assert ex.e_p_hat == pytest.approx(4.0, abs=1e-3)

    def test_grid_validation(self):
        with pytest.raises(A.AnalysisError):
            A.excitation_index([1.0, 2.0, 4.0], [1, 2, 3])
        with pytest.raises(A.AnalysisError):
            A.excitation_index([1.0, 2.0, 4.0, 4.5], [1, 2, 3, 4])


class TestThresholds:
    @staticmethod
    def _fit(slope, ci):
        return A.RateFit(abscissa=A.TIME, slope=slope, slope_ci=ci, intercept=0.0,
                         r_squared=1.0, window=(0, 1), n_points=5, n_dropped=0,
                         points=())

    def test_bracket(self):
        lams = [0.5, 1.0, 2.0, 4.0]
        fits = [self._fit(-3, 0.1), self._fit(-1, 0.1),
                self._fit(0.05, 0.2), self._fit(2, 0.1)]
        scan = A.classify_thresholds(lams, fits)
        assert scan.lambda_l_hat == 1.0
        assert scan.lambda_u_hat == 4.0

    def test_one_sided(self):
        lams = [0.5, 1.0, 2.0]
        fits = [self._fit(-3, 0.1)] * 3
        scan = A.classify_thresholds(lams, fits)
        assert scan.lambda_l_hat == 2.0
        assert scan.lambda_u_hat is None

    def test_inverted_bracket_raises(self):
        lams = [1.0, 2.0]
        fits = [self._fit(3, 0.1), self._fit(-3, 0.1)]
        with pytest.raises(A.AnalysisError):
            A.classify_thresholds(lams, fits)

    def test_oracle_scan_sign_dichotomy(self):
        base = O.OracleConfig(lam=0.0, u0=InitialData.bump(0.2), horizon=1.5,
                              n_time_panels=600, n_x=25)
        scan = A.oracle_threshold_scan(base, [0.5, 8.0])
        assert scan.fits[0].significantly_negative
        assert scan.fits[1].significantly_positive
        assert scan.lambda_l_hat == 0.5
        assert scan.lambda_u_hat == 8.0
        # lambda = 8 grows at 8^4/4 = 1024 per unit time: rate * dt = 2.56 is
        # flagged as unresolved, but the fit still brackets the threshold
        dt = 1.5 / 600
        assert scan.rate_dt == pytest.approx((0.5 ** 4 / 4 * dt, 1024 * dt), rel=1e-12)
        assert scan.resolved == (True, False)

    def test_small_lambda_slope_is_deterministic_decay(self):
        base = O.OracleConfig(lam=0.0, u0=InitialData.sine(1), horizon=1.0,
                              n_time_panels=400, n_x=25)
        scan = A.oracle_threshold_scan(base, [0.1])
        assert scan.fits[0].slope == pytest.approx(-2 * 0.5 * PI2, rel=0.05)

    def test_neumann_not_significantly_negative(self):
        base = O.OracleConfig(lam=0.0, u0=InitialData.bump(0.2), horizon=2.0,
                              boundary="neumann", n_time_panels=600, n_x=25)
        scan = A.oracle_threshold_scan(base, [0.25])
        assert not scan.fits[0].significantly_negative


class TestIntegralBounds:
    def test_negative_beta_exponent(self):
        rep = A.verify_negative_beta(SPEC, 0.5, [-1.0, -0.25, -0.0625])
        assert rep.domination_checked
        assert abs(rep.fitted_exponent - rep.expected_exponent) \
            <= 0.1 * abs(rep.expected_exponent)
        assert rep.refinement_change < 0.02

    def test_negative_beta_constant_matches_closed_form(self):
        # the free-kernel majorant integral has the exact value
        # (4 pi nu)^{(alpha-1)/2} (2-alpha)^{-1/2} Gamma((1-alpha)/2) |beta|^{(alpha-1)/2}
        alpha = 0.5
        rep = A.verify_negative_beta(SPEC, alpha, [-1.0, -0.25, -0.0625])
        c_exact = (4 * math.pi * SPEC.nu) ** ((alpha - 1) / 2) \
            / math.sqrt(2 - alpha) * math.gamma((1 - alpha) / 2)
        for c in rep.c_hats:
            assert c == pytest.approx(c_exact, rel=1e-3)

    def test_threshold_blowup_exponent(self):
        rep = A.verify_threshold_beta(SPEC, 0.5, [0.05, 0.0125, 0.003125])
        assert rep.domination_checked
        assert abs(rep.fitted_exponent - (-1.0)) <= 0.1
        assert all(math.isfinite(s) for s in rep.sups)
        assert rep.threshold == pytest.approx(1.5 * 0.5 * PI2)

    def test_threshold_computes_each_head_once(self, monkeypatch):
        calls = []
        parts = A._integral_parts

        def counting(*args, **kwargs):
            calls.append(1)
            return parts(*args, **kwargs)

        monkeypatch.setattr(A, "_integral_parts", counting)
        A.verify_threshold_beta(SPEC, 0.5, [0.05, 0.0125, 0.003125])
        assert len(calls) == 3 * 3   # one [0, 1] head per margin and x

    def test_negative_beta_reuses_refinement_integral(self, monkeypatch):
        calls = []
        value = A.integral_bound_value

        def counting(*args, **kwargs):
            calls.append(args[2:4])
            return value(*args, **kwargs)

        monkeypatch.setattr(A, "integral_bound_value", counting)
        A.verify_negative_beta(SPEC, 0.5, [-1.0, -0.25, -0.0625])
        # per beta one free and three Dirichlet integrals, plus the 24-panel
        # refinement; the 48-panel one is the domination loop's (-1, 0.5)
        assert len(calls) == 3 * 4 + 1
        assert calls.count((-1.0, 0.5)) == 3   # free, Dirichlet, 24 panels

    @pytest.mark.parametrize("boundary", [K.DIRICHLET, K.FREE])
    def test_batched_head_matches_node_loop(self, boundary):
        # the [0, 1] head as node-by-node scalar kernel calls, with the
        # free-kernel form below smalltime_switch
        alpha, beta, x, switch = 0.5, -0.25, 0.3, 1e-6
        q = 2.0 / (1.0 - alpha)
        yq, wq = K.gauss_legendre_panels(0.0, 1.0, 32, 16)
        xi, xi_w = K.gauss_legendre_panels(0.0, 1.0, 48, 8)
        head = 0.0
        for node, w in zip(xi, xi_w):
            s = node ** q
            if boundary == K.FREE or s < switch:
                inner = A._free_inner(SPEC.nu, alpha, s)
            else:
                g = np.abs(K.eval_kernel(SPEC, float(s), x, yq))
                inner = float(np.dot(wq, g ** (2.0 - alpha)))
            head += w * q * node ** (q - 1.0) * math.exp(beta * s) * s ** (-alpha) * inner
        got, tail = A._integral_parts(replace(SPEC, boundary=boundary), alpha, beta, x,
                                      1.0, smalltime_switch=switch)
        assert tail == 0.0
        assert got == pytest.approx(head, rel=1e-13)

    @pytest.mark.parametrize("boundary", [K.DIRICHLET, K.FREE])
    def test_batched_tail_matches_node_loop(self, boundary):
        # the [1, t_max] tail as node-by-node scalar log-kernel calls
        alpha, beta, x, t_max = 0.5, 4.0, 0.3, 40.0
        yq, wq = K.gauss_legendre_panels(0.0, 1.0, 32, 16)
        s_nodes, s_w = K.gauss_legendre_panels(1.0, t_max, 48, 8)
        tail = 0.0
        for s, w in zip(s_nodes, s_w):
            if boundary == K.FREE:
                log_inner = math.log(A._free_inner(SPEC.nu, alpha, s))
            else:
                lg = K.log_eval_dirichlet(SPEC, float(s), x, yq)
                peak = float(np.max(lg))
                log_inner = (2.0 - alpha) * peak + math.log(
                    float(np.dot(wq, np.exp((2.0 - alpha) * (lg - peak)))))
            tail += w * math.exp(min(beta * s - alpha * math.log(s) + log_inner, 700.0))
        _, got = A._integral_parts(replace(SPEC, boundary=boundary), alpha, beta, x, t_max)
        assert got == pytest.approx(tail, rel=1e-13)

    def test_beta_range_validation(self):
        with pytest.raises(A.AnalysisError):
            A.verify_negative_beta(SPEC, 0.5, [-1.0, 0.5])
        with pytest.raises(A.AnalysisError):
            A.verify_threshold_beta(SPEC, 0.5, [-0.1])
        with pytest.raises(A.AnalysisError):
            A.integral_bound_value(SPEC, 1.5, -1.0, 0.5, 10.0)

    def test_alpha_variation(self):
        rep = A.verify_negative_beta(SPEC, 0.3, [-1.0, -0.25, -0.0625])
        assert abs(rep.fitted_exponent - (0.3 - 1) / 2) <= 0.1 * abs((0.3 - 1) / 2)
