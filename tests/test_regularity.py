"""GRR machinery tests: closed forms, scaling, modulus checks."""

import math
import tracemalloc

import numpy as np
import pytest

from sheatlab import regularity as R
from sheatlab.noise import GridSpec
from sheatlab.solver import InitialData, SimulationConfig, simulate_paths

PARAMS = R.GrrParams(p=2, delta=1, eps=0.5)


def sampled_paths(n_paths, n_interior=127, t=0.1, lam=1.0, seed=77):
    grid = GridSpec(n_interior=n_interior, dt=2e-4, horizon=t)
    cfg = SimulationConfig(grid=grid, lam=lam, master_seed=seed,
                           u0=InitialData.bump(0.2), observation_times=(t,))
    out = []
    for u in simulate_paths(cfg, range(n_paths)).field_at(t):
        # full profile on [0,1] including the Dirichlet endpoints
        out.append(np.concatenate([[0.0], u, [0.0]]))
    return out


def reference_b(f, params, cutoff_cells):
    """B by the per-band loop: each band's power moments in scalar
    arithmetic, added in band order, then the extrapolated [0, r_c] band."""
    n = len(f)
    h = 1.0 / (n - 1)
    a = params.p - (2.0 + params.delta - params.eps)
    r = np.arange(n) * h
    q = np.zeros(n)
    q[1:] = R._offset_means(f, h, params.p)[1:] / r[1:] ** params.p

    def band(d, lo, hi):
        m0 = (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
        m1 = (hi ** (a + 2) - lo ** (a + 2)) / (a + 2)
        return q[d] * m0 + (q[d + 1] - q[d]) / h * (m1 - r[d] * m0)

    c = cutoff_cells
    total = 0.0
    for d in range(c, n - 1):
        total += band(d, float(r[d]), float(r[d + 1]))
    return 2.0 * (total + band(c, 0.0, float(r[c])))


class TestParams:
    def test_kappa_closed_form(self):
        assert PARAMS.kappa == pytest.approx(8 * (1 + 1 / (1 - 0.5)))
        assert R.GrrParams(8, 1, 0.25).kappa == pytest.approx(8 * (1 + 4 / 3))

    def test_eps_range(self):
        with pytest.raises(R.RegularityError):
            R.GrrParams(p=2, delta=1, eps=1.0)
        with pytest.raises(R.RegularityError):
            R.GrrParams(p=2, delta=2, eps=1.5)
        with pytest.raises(R.RegularityError):
            R.GrrParams(p=0.5, delta=1, eps=0.5)


class TestGrrFunctional:
    def test_constant_is_zero(self):
        g = R.grr_functional(np.full(128, 3.7), PARAMS)
        assert g.value == 0.0
        assert not g.divergent

    def test_linear_closed_form(self):
        # B = int int |x-y|^{-1/2} dx dy = 8/3
        g = R.grr_functional(np.linspace(0, 1, 1025), PARAMS)
        assert g.value == pytest.approx(8.0 / 3.0, abs=1e-4)
        assert g.sensitivity < 1e-6

    def test_homogeneity(self):
        f = np.sin(np.linspace(0, 6, 256)) + 0.3
        a = R.grr_functional(f, PARAMS).value
        b = R.grr_functional(5.0 * f, PARAMS).value
        assert b == pytest.approx(5.0 ** PARAMS.p * a, rel=1e-12)

    def test_path_stable_under_cutoff_halving(self):
        params = R.GrrParams(p=8, delta=1, eps=0.25)
        for prof in sampled_paths(3):
            g = R.grr_functional(prof, params)
            assert not g.divergent
            assert math.isfinite(g.value)
            assert g.sensitivity <= 0.05 * g.value

    def test_white_noise_flagged_divergent(self):
        rng = np.random.default_rng(1)
        g = R.grr_functional(rng.standard_normal(512), PARAMS)
        assert g.divergent

    def test_too_few_nodes(self):
        with pytest.raises(R.RegularityError):
            R.grr_functional(np.zeros(32), PARAMS)


class TestHolderBound:
    def test_constant(self):
        rep = R.holder_bound_check(np.zeros(128), PARAMS)
        assert rep.max_ratio == 0.0
        assert rep.n_violations == 0

    def test_linear_within_bound(self):
        rep = R.holder_bound_check(np.linspace(0, 1, 513), PARAMS)
        assert rep.max_ratio <= 1.0
        assert rep.n_violations == 0

    def test_monotone_in_b(self):
        f = np.sin(np.linspace(0, 3, 128))
        lo = R.holder_bound_check(f, PARAMS, b_value=0.5)
        hi = R.holder_bound_check(f, PARAMS, b_value=2.0)
        assert hi.max_ratio <= lo.max_ratio

    def test_simulated_paths_no_violations(self):
        params = R.GrrParams(p=8, delta=1, eps=0.25)
        for prof in sampled_paths(10):
            rep = R.holder_bound_check(prof, params)
            assert rep.n_violations == 0

    def test_discrete_sup_gap_bound(self):
        # max over a refined grid is bounded by the coarse max plus the
        # Holder bound evaluated at the coarse spacing
        f_fine = np.sin(math.pi * np.linspace(0, 1, 1025)) ** 2
        coarse = f_fine[::8]
        g = R.grr_functional(f_fine, PARAMS)
        dx_coarse = 8.0 / 1024.0
        bound = np.max(coarse) + R.closed_form_bound(PARAMS, g.value, dx_coarse)
        assert np.max(f_fine) <= bound


class TestBatch:
    @pytest.mark.parametrize("params", [PARAMS, R.GrrParams(p=8, delta=1, eps=0.25),
                                        R.GrrParams(p=3.5, delta=0.7, eps=0.3)],
                             ids=["p2", "p8", "p3.5"])
    def test_rows_match_single_calls(self, params):
        # simulated paths, then a constant row, a smooth row and white noise;
        # simulated path 4 is checked against B = 0
        paths = sampled_paths(24)
        const, smooth, noise = len(paths), len(paths) + 1, len(paths) + 2
        batch = np.vstack(paths + [
            np.full(129, 3.7), np.sin(np.linspace(0, 6, 129)),
            np.random.default_rng(1).standard_normal(129)])
        g = R.grr_functional(batch, params)
        b_value = g.holder_b.copy()
        b_value[4] = 0.0
        rep = R.holder_bound_check(batch, params, b_value=b_value)
        assert rep.n_violations[4] > 0 and rep.max_ratio[4] == math.inf
        for k, prof in enumerate(batch):
            one = R.grr_functional(prof, params)
            one_rep = R.holder_bound_check(prof, params, b_value=b_value[k])
            assert g.value[k] == one.value
            assert g.value_at_half_cutoff[k] == one.value_at_half_cutoff
            assert g.divergent[k] == one.divergent
            assert rep.max_ratio[k] == one_rep.max_ratio
            assert rep.n_violations[k] == one_rep.n_violations
        assert g.value[const] == 0.0 and rep.max_ratio[const] == 0.0
        assert g.divergent[noise] and not g.divergent[[const, smooth]].any()

    def test_b_matches_band_loop(self):
        # the bands are now summed pairwise with numpy's powers, not in order
        # with scalar ones: agreement to roundoff over ~128 bands
        params = R.GrrParams(p=8, delta=1, eps=0.25)
        batch = np.vstack(sampled_paths(4) + [np.sin(np.linspace(0, 6, 129))])
        g = R.grr_functional(batch, params)
        for k, prof in enumerate(batch):
            assert g.value[k] == pytest.approx(reference_b(prof, params, 2), rel=1e-13)
            assert g.value_at_half_cutoff[k] == pytest.approx(
                reference_b(prof, params, 1), rel=1e-13)

    def test_leading_axes(self):
        batch = np.stack(sampled_paths(6)).reshape(2, 3, 129)
        g = R.grr_functional(batch, PARAMS)
        rep = R.holder_bound_check(batch, PARAMS)
        assert g.value.shape == rep.n_violations.shape == (2, 3)
        flat = R.grr_functional(batch.reshape(6, 129), PARAMS)
        assert np.array_equal(g.value.ravel(), flat.value)


class TestGrrGeneral:
    def test_power_law_matches_closed_form(self):
        for params in (PARAMS, R.GrrParams(p=8, delta=1, eps=0.25),
                       R.GrrParams(p=4, delta=0.5, eps=0.2)):
            pinv, phi = R.power_law_pair(params)
            for b, r in ((8.0 / 3.0, 0.5), (1.0, 1.0), (0.1, 0.037)):
                got = R.grr_general(pinv, phi, b, r)
                want = R.closed_form_bound(params, b, r)
                assert got == pytest.approx(want, rel=1e-8)

    def test_blocked_partition_sums_as_one_pass_in_bounded_memory(self):
        # criterion 9's six cases against the partition evaluated in one
        # pass, which holds about 16 MB of temporaries
        def one_pass(pinv, phi, b, r, n_points):
            ratio = R._STIELTJES_DEPTH ** (1.0 / n_points)
            edges = r * ratio ** np.arange(n_points + 1)
            mids = np.sqrt(edges[:-1] * edges[1:])
            return float(np.sum(pinv(b / mids) * (phi(edges[:-1]) - phi(edges[1:]))))

        n = R.STIELTJES_POINTS
        for params in (PARAMS, R.GrrParams(p=8, delta=1, eps=0.25),
                       R.GrrParams(p=4, delta=0.5, eps=0.2)):
            pinv, phi = R.power_law_pair(params)
            for b, r in ((8.0 / 3.0, 0.5), (2.0, 1.0)):
                tracemalloc.start()
                try:
                    got = R.grr_general(pinv, phi, b, r)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                fine, finer = (one_pass(pinv, phi, b, r, m) for m in (n, 2 * n))
                assert got == 8.0 * ((4.0 * finer - fine) / 3.0)
                assert peak < 6e6

    def test_zero_b(self):
        pinv, phi = R.power_law_pair(PARAMS)
        assert R.grr_general(pinv, phi, 0.0, 0.5) == 0.0

    def test_zero_separation(self):
        pinv, phi = R.power_law_pair(PARAMS)
        assert R.grr_general(pinv, phi, 1.0, 0.0) == 0.0

    def test_nonintegrable_singularity_flagged(self, monkeypatch):
        # phi with zero power at 0 makes Phi^{-1}(B/u) d phi non-integrable
        pinv = lambda v: np.asarray(v) ** 2.0
        phi = lambda u: np.asarray(u)
        monkeypatch.setattr(R, "STIELTJES_POINTS", 4000)
        with pytest.raises(R.RegularityError):
            R.grr_general(pinv, phi, 1.0, 0.5)
