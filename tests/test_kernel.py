"""Kernel module tests: dual-route agreement, bounds, identities."""

import math
import warnings

import numpy as np
import pytest

from sheatlab import kernel as K


SPEC = K.KernelSpec()


def brute_force_series(nu, t, x, y, n=3000):
    # independent reference: plain high-N partial sum, no vectorized tricks
    total = 0.0
    for k in range(1, n + 1):
        total += math.exp(-nu * (k * math.pi) ** 2 * t) * math.sin(k * math.pi * x) \
            * math.sin(k * math.pi * y)
    return 2.0 * total


class TestEvalKernel:
    def test_boundary_zero(self):
        for y in (0.1, 0.5, 0.9):
            assert K.eval_kernel(SPEC, 0.2, 0.0, y) == pytest.approx(0.0, abs=SPEC.tol)
            assert K.eval_kernel(SPEC, 0.2, 1.0, y) == pytest.approx(0.0, abs=SPEC.tol)

    def test_symmetry(self):
        a = K.eval_kernel(SPEC, 0.1, 0.3, 0.7)
        b = K.eval_kernel(SPEC, 0.1, 0.7, 0.3)
        assert abs(a - b) <= 2 * SPEC.tol

    def test_against_brute_force(self):
        for t in (0.01, 0.1, 1.0):
            got = K.eval_kernel(SPEC, t, 0.3, 0.6)
            ref = brute_force_series(SPEC.nu, t, 0.3, 0.6)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_series_image_cross_validation(self):
        # the two representations are each other's oracle
        rng = np.random.default_rng(42)
        for t in np.geomspace(1e-3, 10.0, 8):
            xs, ys = rng.random(16), rng.random(16)
            n_req, _ = K._series_terms(SPEC.nu, float(t), 1e-13)
            a = K.eval_kernel_series(SPEC, float(t), xs, ys, n_terms=n_req)
            b = K.eval_kernel_images(SPEC, float(t), xs, ys)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_spec_example_small_t(self):
        a = K.eval_kernel_series(SPEC, 1e-3, 0.5, 0.5,
                                 n_terms=K._series_terms(SPEC.nu, 1e-3, 1e-13)[0])
        b = K.eval_kernel_images(SPEC, 1e-3, 0.5, 0.5)
        assert abs(a - b) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(K.KernelDomainError):
            K.eval_kernel(SPEC, 0.0, 0.5, 0.5)
        with pytest.raises(K.KernelDomainError):
            K.eval_kernel(SPEC, -1.0, 0.5, 0.5)
        with pytest.raises(K.KernelDomainError):
            K.eval_kernel(SPEC, 0.1, 1.5, 0.5)

    def test_free_kernel_any_position(self):
        fspec = K.KernelSpec(boundary=K.FREE)
        v = K.eval_kernel(fspec, 1.0, 3.0, -2.0)
        assert v == pytest.approx(math.exp(-25.0 / 2.0) / math.sqrt(2 * math.pi))

    def test_neumann_series_image_agree(self):
        nspec = K.KernelSpec(boundary=K.NEUMANN)
        for t in (1e-3, 0.05, 0.5, 2.0):
            a = K.eval_kernel_series(nspec, t, 0.3, 0.7,
                                     n_terms=K._series_terms(nspec.nu, t, 1e-13)[0])
            b = K.eval_kernel_images(nspec, t, 0.3, 0.7)
            assert abs(a - b) < 1e-10

    def test_nonnegativity_sampled(self):
        rng = np.random.default_rng(7)
        for t in np.geomspace(1e-4, 5.0, 10):
            xs, ys = rng.random(30), rng.random(30)
            g = K.eval_kernel(SPEC, float(t), xs, ys)
            assert np.min(g) >= -SPEC.tol

    def test_small_t_matches_free_at_interior(self):
        # Dirichlet and Neumann converge to the free kernel as t -> 0 inside
        for b in (K.DIRICHLET, K.NEUMANN):
            s = K.KernelSpec(boundary=b)
            t = 1e-4
            v = K.eval_kernel(s, t, 0.5, 0.5)
            f = K.free_kernel(s.nu, t, 0.5, 0.5)
            assert abs(v - f) < s.tol


class TestBatchedTimes:
    # times on both sides of the series/image switch (about 1.3e-3 here)
    TIMES = np.concatenate([np.geomspace(1e-5, 2.0, 9), [1.2e-3, 1.4e-3]])

    @pytest.mark.parametrize("boundary", [K.DIRICHLET, K.NEUMANN, K.FREE])
    @pytest.mark.parametrize("layout", ["row", "outer_col", "outer_row"])
    def test_matches_scalar_calls(self, boundary, layout):
        spec = K.KernelSpec(boundary=boundary)
        xs = np.linspace(0.0, 1.0, 7)
        ys = np.random.default_rng(5).random(7)
        t, x, y = {
            "row": (self.TIMES[:, None], xs, ys),
            "outer_col": (self.TIMES[:, None, None], xs[:, None], ys[None, :]),
            "outer_row": (self.TIMES[:, None, None], xs[None, :], ys[:, None]),
        }[layout]
        use_series = K.truncation_plan(spec, self.TIMES)[1]
        assert use_series.any() and not use_series.all()
        got = K.eval_kernel(spec, t, x, y)
        assert got.shape == np.broadcast_shapes(t.shape, x.shape, y.shape)
        # bit for bit, against a row's call and against each point's call
        xb, yb = np.broadcast_arrays(x, y)
        for ti, row in zip(self.TIMES, got):
            assert np.array_equal(row, K.eval_kernel(spec, float(ti), x, y))
            assert np.array_equal(row.ravel(), [K.eval_kernel(spec, float(ti), xp, yp)
                                                for xp, yp in zip(xb.ravel(), yb.ravel())])

    def test_log_dirichlet_matches_scalar_calls(self):
        # times on both sides of the image/series branch at t = 1/2
        times = np.concatenate([self.TIMES, [0.5, 0.7, 3.0]])
        xs = np.linspace(0.05, 0.95, 7)
        got = K.log_eval_dirichlet(SPEC, times[:, None, None], xs[:, None], xs[None, :])
        assert got.shape == (len(times), 7, 7)
        for ti, block in zip(times, got):
            assert np.array_equal(block, K.log_eval_dirichlet(
                SPEC, float(ti), xs[:, None], xs[None, :]))
        with pytest.raises(K.KernelDomainError):
            K.log_eval_dirichlet(SPEC, np.array([[0.1], [0.0]]), 0.5, xs)

    def test_each_time_keeps_its_own_counts(self):
        x = np.linspace(0.0, 1.0, 5)
        t = self.TIMES[:, None]
        n, series, m = K.truncation_plan(SPEC, self.TIMES)
        assert len(set(n)) > 2 and len(set(m)) > 1
        for route, counts, sel in ((K.eval_kernel_series, n, series),
                                   (K.eval_kernel_images, m, ~series)):
            got = route(SPEC, t[sel], x, x, counts[sel, None])
            for ti, c, row in zip(self.TIMES[sel], counts[sel], got):
                want = route(SPEC, float(ti), x, x, int(c))
                assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("route", [K.eval_kernel, K.eval_kernel_series,
                                       K.eval_kernel_images,
                                       lambda spec, t, x, y: K.truncation_plan(spec, t)],
                             ids=["eval_kernel", "eval_kernel_series", "eval_kernel_images",
                                  "truncation_plan"])
    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan])
    def test_nonpositive_time_anywhere_rejected(self, route, bad):
        t = np.array([0.5, bad, 1e-4])[:, None]
        with pytest.raises(K.KernelDomainError):
            route(SPEC, t, np.linspace(0.1, 0.9, 3), 0.5)

    def test_times_must_stack_on_a_leading_axis(self):
        x = np.linspace(0.1, 0.9, 3)
        with pytest.raises(K.KernelDomainError):
            K.eval_kernel(SPEC, np.full((2, 3), 0.1), x, x)   # t varies along x
        with pytest.raises(K.KernelDomainError):
            K.eval_kernel(SPEC, np.full((3, 1), 0.1), x[:, None], x)   # x varies along t


class TestTruncation:
    def test_spec_example_t1(self):
        n, use_series, _ = K.truncation_plan(SPEC, 1.0)
        assert n <= 5
        # independent check of the dominating tail bound at N = 5
        assert 2 * math.exp(-SPEC.nu * 36 * math.pi ** 2) < 1e-12
        assert use_series

    def test_large_t_single_mode(self):
        n, _, _ = K.truncation_plan(SPEC, 50.0)
        assert n == 1

    def test_small_t_selects_images(self):
        _, use_series, m = K.truncation_plan(SPEC, 1e-4)
        assert not use_series
        assert m >= 1
        assert K._image_tail(SPEC.nu, 1e-4, m) <= SPEC.tol

    def test_tail_bound_dominates_true_tail(self):
        for t in (0.01, 0.1, 1.0):
            n, _ = K._series_terms(SPEC.nu, t, SPEC.tol)
            true_tail = 2 * sum(
                math.exp(-SPEC.nu * (k * math.pi) ** 2 * t) for k in range(n + 1, n + 3000)
            )
            assert true_tail <= K._series_tail(SPEC.nu, t, n) <= SPEC.tol

    def test_route_per_time(self):
        # the series wherever it reaches tol within series_cap, images below:
        # the route flips once along a time grid, at no stored switch time
        t = np.geomspace(1e-6, 10.0, 61)
        n, use_series, m = K.truncation_plan(SPEC, t)
        assert n.shape == use_series.shape == m.shape == t.shape
        assert np.array_equal(use_series, K._series_tail(SPEC.nu, t, SPEC.series_cap)
                              <= SPEC.tol)
        assert use_series.any() and not use_series.all()
        assert np.array_equal(use_series, np.sort(use_series))
        # tail <= tol at each chosen count, and not one term or image fewer
        assert np.all(n[use_series] <= SPEC.series_cap)
        assert np.all(K._series_tail(SPEC.nu, t[use_series], n[use_series]) <= SPEC.tol)
        few = n[use_series] > 1
        assert np.all(K._series_tail(SPEC.nu, t[use_series][few], n[use_series][few] - 1)
                      > SPEC.tol)
        assert np.all(m[use_series] == 0)
        assert np.all(K._image_tail(SPEC.nu, t[~use_series], m[~use_series]) <= SPEC.tol)
        few = m[~use_series] > 1
        assert np.all(K._image_tail(SPEC.nu, t[~use_series][few], m[~use_series][few] - 1)
                      > SPEC.tol)
        # a time's plan does not depend on the other times in the call
        for ti, row in zip(t, zip(n, use_series, m)):
            assert tuple(K.truncation_plan(SPEC, ti)) == row

    def test_vanishing_times_warn_nothing(self):
        # the lag times of a lambda = 1e5 energy window, horizon 1.2e-18 on
        # 400 panels: the series ratio q rounds to 1, an infinite tail
        t = np.linspace(0.0, 1.2e-18, 401)[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, use_series, m = K.truncation_plan(SPEC, t)
        assert not use_series.any() and np.all(m >= 1)

    def test_plan_needs_no_switch_time(self):
        # images at t = 1e-8, far below any series route
        _, use_series, m = K.truncation_plan(SPEC, 1e-8)
        assert not use_series
        assert m == K._image_terms(SPEC.nu, 1e-8, SPEC.tol, SPEC.image_cap)
        assert K.eval_kernel(SPEC, 1e-8, 0.5, 0.5) == pytest.approx(
            K.free_kernel(SPEC.nu, 1e-8, 0.5, 0.5), rel=1e-12)
        _, use_series, _ = K.truncation_plan(SPEC, 1.0)
        assert use_series
        assert K.eval_kernel(SPEC, 1.0, 0.3, 0.6) == pytest.approx(
            brute_force_series(SPEC.nu, 1.0, 0.3, 0.6), abs=1e-12)


class TestUpperBounds:
    def test_free_dominates_sampled(self):
        rng = np.random.default_rng(3)
        for t in np.geomspace(1e-3, 5.0, 8):
            xs, ys = rng.random(20), rng.random(20)
            g = K.eval_kernel(SPEC, float(t), xs, ys)
            ub = K.kernel_upper_bounds(SPEC, float(t), xs, ys)
            assert np.all(g <= ub.free_bound + 2 * SPEC.tol)

    def test_longtime_bound(self):
        ub = K.kernel_upper_bounds(SPEC, 1.0, 0.5, 0.5)
        assert ub.k3 == pytest.approx(2.0 / (1.0 - math.exp(-3 * SPEC.nu * math.pi ** 2)))
        xs = np.linspace(0, 1, 41)
        for t in np.geomspace(1.0, 10.0, 9):
            g = K.eval_kernel(SPEC, float(t), xs[:, None], xs[None, :])
            assert np.max(g) <= ub.k3 * math.exp(-SPEC.rate1 * t) + SPEC.tol

    def test_free_peak_value(self):
        ub = K.kernel_upper_bounds(SPEC, 1.0, 0.5, 0.5)
        assert ub.free_bound == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_longtime_slope_is_rate1(self):
        # log g_D(t,1/2,1/2) affine in t with slope -nu pi^2 for t >= 1
        ts = np.linspace(1.0, 6.0, 11)
        vals = np.array([K.eval_kernel(SPEC, float(t), 0.5, 0.5) for t in ts])
        slope = np.polyfit(ts, np.log(vals), 1)[0]
        assert slope == pytest.approx(-SPEC.rate1, rel=1e-6)


@pytest.fixture(scope="module")
def cal():
    return K.calibrate_lower_bound(SPEC, 0.2, n_xy=13)


class TestLowerBound:
    def test_calibrated_positive(self, cal):
        assert cal.spec.kappa1 > 0
        assert cal.spec.kappa2 > 0

    def test_inequality_on_grid(self, cal):
        xs = np.linspace(0.2, 0.8, 13)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        for t in cal.t_grid:
            lg = K.log_eval_dirichlet(SPEC, float(t), X, Y)
            branch = -0.5 * math.log(t) if t <= 0.04 else 0.0
            log_lb = math.log(cal.spec.kappa1) - SPEC.rate1 * t + branch \
                - cal.spec.kappa2 * (X - Y) ** 2 / t
            assert np.all(lg >= log_lb)

    def test_branch_jump_at_gamma_squared(self, cal):
        lb = cal.spec
        below = K.kernel_lower_bound(lb, SPEC, lb.gamma ** 2, 0.5, 0.5)
        above = K.kernel_lower_bound(lb, SPEC, lb.gamma ** 2 * (1 + 1e-12), 0.5, 0.5)
        assert below / above == pytest.approx(1.0 / lb.gamma, rel=1e-9)

    def test_batched_rows_match_scalar_calls(self, cal):
        # times on both sides of the t <= gamma^2 branch, the switch itself
        # included
        times = np.concatenate([np.geomspace(1e-3, 4.0, 10), [cal.spec.gamma ** 2]])
        xs = np.linspace(0.2, 0.8, 5)
        got = K.kernel_lower_bound(cal.spec, SPEC, times[:, None, None],
                                   xs[:, None], xs[None, :])
        assert got.shape == (len(times), 5, 5)
        for ti, block in zip(times, got):
            assert np.array_equal(block, K.kernel_lower_bound(
                cal.spec, SPEC, float(ti), xs[:, None], xs[None, :]))
            assert np.array_equal(block.ravel(), [
                K.kernel_lower_bound(cal.spec, SPEC, float(ti), x, y)
                for x in xs for y in xs])
        with pytest.raises(K.KernelDomainError):
            K.kernel_lower_bound(cal.spec, SPEC, np.array([[0.1], [0.0]]), 0.5, xs)

    def test_large_t_ratio_at_least_one(self, cal):
        for t in (2.0, 5.0, 10.0):
            g = K.eval_kernel(SPEC, t, 0.5, 0.5)
            lb = K.kernel_lower_bound(cal.spec, SPEC, t, 0.5, 0.5)
            assert g / lb >= 1.0

    def test_domain_error_outside_margin(self, cal):
        with pytest.raises(K.KernelDomainError):
            K.kernel_lower_bound(cal.spec, SPEC, 0.1, 0.1, 0.5)

    def test_log_eval_matches_linear(self):
        rng = np.random.default_rng(11)
        for t in np.geomspace(1e-4, 10.0, 10):
            xs = 0.05 + 0.9 * rng.random(12)
            ys = 0.05 + 0.9 * rng.random(12)
            lin = K.eval_kernel(SPEC, float(t), xs, ys)
            lg = np.exp(K.log_eval_dirichlet(SPEC, float(t), xs, ys))
            assert np.max(np.abs(lin - lg)) < 2 * SPEC.tol


class TestDerivative:
    def test_zero_at_center(self):
        assert abs(K.kernel_dx(SPEC, 0.1, 0.5, 0.5)) < SPEC.tol

    def test_finite_difference_cross_check(self):
        t, x, y = 0.05, 0.25, 0.75
        h = 1e-6
        fd = (K.eval_kernel(SPEC, t, x + h, y) - K.eval_kernel(SPEC, t, x - h, y)) / (2 * h)
        dv = K.kernel_dx(SPEC, t, x, y)
        assert dv == pytest.approx(fd, rel=1e-6)

    def test_fitted_constants_positive(self):
        rep = K.kernel_dx_bound_check(
            SPEC,
            np.geomspace(1e-3, 1.0, 8),
            np.linspace(0.05, 0.95, 9),
            np.linspace(0.05, 0.95, 9),
        )
        assert rep.finite
        assert rep.k1 > 0 and rep.k2 > 0

    def test_bound_holds_with_fitted_constants(self):
        ts = np.geomspace(1e-3, 1.0, 8)
        xs = np.linspace(0.05, 0.95, 9)
        rep = K.kernel_dx_bound_check(SPEC, ts, xs, xs)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        for t in ts:
            d = np.abs(K.kernel_dx(SPEC, float(t), X, Y))
            bound = rep.k1 / t * np.exp(-rep.k2 * (X - Y) ** 2 / t)
            assert np.all(d <= bound * (1 + 1e-9))


class TestSemigroup:
    def test_convolution_identity(self):
        rep = K.semigroup_check(SPEC, 0.05, 0.05, 0.5, 0.5, n_quad=2048)
        assert rep.residual_convolution < 1e-8

    def test_squared_kernel_identity(self):
        rep = K.semigroup_check(SPEC, 0.1, 0.1, 0.3, 0.3, n_quad=2048)
        assert rep.residual_square < 1e-8

    def test_free_kernel_analytic(self):
        rep = K.semigroup_check(K.KernelSpec(boundary=K.FREE), 0.1, 0.2, 0.3, 0.4)
        assert rep.residual_convolution == 0.0
        assert rep.residual_square == 0.0

    def test_neumann_identities(self):
        rep = K.semigroup_check(K.KernelSpec(boundary=K.NEUMANN), 0.07, 0.11, 0.4, 0.6,
                                n_quad=2048)
        assert rep.residual_convolution < 1e-8
        assert rep.residual_square < 1e-8

    def test_quadrature_refinement_stabilizes(self):
        res = [K.semigroup_check(SPEC, 0.05, 0.08, 0.3, 0.7, n_quad=n).residual_convolution
               for n in (256, 512, 1024)]
        assert res[-1] < 1e-10


class TestMass:
    def test_dirichlet_mass_below_one(self):
        for t in (0.01, 0.1, 1.0):
            for x in (0.25, 0.5, 0.75):
                assert K.kernel_mass(SPEC, t, x) <= 1.0 + 1e-10

    def test_neumann_conserves_mass(self):
        nspec = K.KernelSpec(boundary=K.NEUMANN)
        for t in (0.01, 0.1, 1.0):
            for x in (0.25, 0.5, 0.75):
                assert K.kernel_mass(nspec, t, x) == pytest.approx(1.0, abs=1e-10)


class TestSpecValidation:
    def test_bad_nu(self):
        with pytest.raises(K.KernelDomainError):
            K.KernelSpec(nu=0.0)

    def test_bad_tol(self):
        with pytest.raises(K.KernelDomainError):
            K.KernelSpec(tol=-1e-9)

    def test_bad_boundary(self):
        with pytest.raises(K.KernelDomainError):
            K.KernelSpec(boundary="periodic")

    def test_bad_gamma(self):
        with pytest.raises(K.KernelDomainError):
            K.LowerBoundSpec(gamma=0.3, kappa1=1.0, kappa2=1.0)
