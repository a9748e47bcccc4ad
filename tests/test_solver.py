"""Solver tests: exact deterministic limits, reproducibility, scheme agreement."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheatlab import oracle as O
from sheatlab import solver as S
from sheatlab.noise import GridSpec, NoiseStream, sine_transform

from reference_steps import step_semi_implicit, step_spectral

PI2 = math.pi ** 2


class TestSigmaSpec:
    def test_linear_constants(self):
        sg = S.SigmaSpec.linear(2.5)
        assert sg.lipschitz_upper == 2.5
        assert sg.lower_constant == 2.5
        assert sg(0.0) == 0.0

    def test_linear_plus_sine_constants(self):
        sg = S.SigmaSpec.linear_plus_sine(2.0, 0.5)
        assert sg.lipschitz_upper == 2.5
        assert sg.lower_constant == 1.5
        assert sg(0.0) == 0.0

    def test_invalid(self):
        with pytest.raises(S.ConfigError):
            S.SigmaSpec.linear_plus_sine(1.0, 1.0)
        with pytest.raises(S.ConfigError):
            S.SigmaSpec.linear(0.0)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_and_lower_bound_sampled(self, u, v):
        sg = S.SigmaSpec.linear_plus_sine(2.0, 0.5)
        assert abs(sg(u) - sg(v)) <= sg.lipschitz_upper * abs(u - v) + 1e-12
        assert abs(sg(u)) >= sg.lower_constant * abs(u) - 1e-12


class TestInitialData:
    def test_sine_nodes(self):
        grid = GridSpec(n_interior=15, dt=1e-3, horizon=0.1)
        vals = S.project_initial(S.InitialData.sine(1), grid)
        assert np.allclose(vals, np.sin(math.pi * grid.x))

    def test_bump_support_and_peak(self):
        grid = GridSpec(n_interior=255, dt=1e-3, horizon=0.1)
        vals = S.project_initial(S.InitialData.bump(0.2), grid)
        x = grid.x
        assert np.all(vals[(x < 0.2) | (x > 0.8)] == 0.0)
        assert vals[np.argmin(np.abs(x - 0.5))] == pytest.approx(1.0, abs=1e-4)
        assert np.all(vals[(x > 0.25) & (x < 0.75)] > 0)
        # (A1): support meets [gamma, 1-gamma] in positive measure
        assert np.mean(vals > 0) * 1.0 >= (1 - 2 * 0.2) * 0.9

    def test_table_evaluates_at_its_nodes(self):
        vals = (0.5, -1.0, 2.0, 0.25)
        u0 = S.InitialData.table(vals)
        nodes = (np.arange(len(vals)) + 1.0) / (len(vals) + 1.0)
        assert np.array_equal(u0(nodes), vals)
        # linear between nodes, constant beyond the outer ones
        assert u0(0.3) == pytest.approx(-0.25, rel=1e-14)
        assert u0(0.0) == 0.5 and u0(1.0) == 0.25

    def test_table_mismatch(self):
        grid = GridSpec(n_interior=8, dt=1e-3, horizon=0.1)
        with pytest.raises(S.ConfigError):
            S.project_initial(S.InitialData.table([1.0, 2.0]), grid)


class TestDeterministicDecay:
    def test_semi_implicit_sine_rate(self):
        grid = GridSpec(n_interior=255, dt=1e-4, horizon=0.5)
        cfg = S.SimulationConfig(grid=grid, lam=0.0, u0=S.InitialData.sine(1),
                                 observation_times=(0.5,))
        u = S.simulate_path(cfg, 0).field_at(0.5)
        exact = math.exp(-0.5 * PI2 * 0.5) * np.sin(math.pi * grid.x)
        assert np.max(np.abs(u - exact)) / np.max(exact) < 0.01

    def test_spectral_exact_decay(self):
        grid = GridSpec(n_interior=63, dt=1e-3, horizon=0.1)
        cfg = S.SimulationConfig(grid=grid, lam=0.0, scheme="spectral",
                                 u0=S.InitialData.sine(1), observation_times=(0.1,))
        u = S.simulate_path(cfg, 0).field_at(0.1)
        exact = math.exp(-0.5 * PI2 * 0.1) * np.sin(math.pi * grid.x)
        assert np.max(np.abs(u - exact)) < 1e-12

    def test_spectral_mode_isolation(self):
        grid = GridSpec(n_interior=63, dt=1e-3, horizon=0.1)
        cfg = S.SimulationConfig(grid=grid, lam=0.0, scheme="spectral",
                                 u0=S.InitialData.sine(3), observation_times=(0.1,))
        stream = NoiseStream(0, 0, grid)
        coeffs = sine_transform(S.project_initial(cfg.u0, grid)) * math.sqrt(grid.dx)
        for k in range(10):
            coeffs = step_spectral(coeffs, stream, k, cfg)
        mask = np.ones(63, dtype=bool)
        mask[2] = False
        assert np.max(np.abs(coeffs[mask])) < 1e-12
        assert coeffs[2] == pytest.approx(
            math.sqrt(0.5) * math.exp(-0.5 * 9 * PI2 * 0.01), rel=1e-10)

    def test_neumann_constant_invariant(self):
        grid = GridSpec(n_interior=63, dt=1e-3, horizon=0.2)
        cfg = S.SimulationConfig(grid=grid, lam=0.0, boundary="neumann",
                                 u0=S.InitialData.table(np.ones(63)),
                                 observation_times=(0.2,))
        u = S.simulate_path(cfg, 0).field_at(0.2)
        assert np.max(np.abs(u - 1.0)) < 1e-12

    def test_near_boundary_decrease_under_refinement(self):
        # lam = 0: the nodal value adjacent to x = 0 shrinks as dx -> 0
        prev = None
        for n in (31, 63, 127):
            grid = GridSpec(n_interior=n, dt=1e-4, horizon=0.1)
            cfg = S.SimulationConfig(grid=grid, lam=0.0, u0=S.InitialData.bump(0.2),
                                     observation_times=(0.1,))
            u = S.simulate_path(cfg, 0).field_at(0.1)
            if prev is not None:
                assert u[0] < prev
            prev = u[0]


class TestReproducibility:
    def test_deterministic_config_twice(self):
        grid = GridSpec(n_interior=31, dt=1e-3, horizon=0.1)
        cfg = S.SimulationConfig(grid=grid, lam=0.0, u0=S.InitialData.bump(0.2),
                                 observation_times=(0.05, 0.1))
        a, b = S.simulate_path(cfg, 0), S.simulate_path(cfg, 0)
        assert np.array_equal(a.values, b.values)

    def test_batch_grouping_invariance(self):
        grid = GridSpec(n_interior=31, dt=1e-3, horizon=0.1)
        cfg = S.SimulationConfig(grid=grid, lam=2.0, master_seed=11,
                                 u0=S.InitialData.bump(0.2),
                                 observation_times=(0.05, 0.1))
        together = S.simulate_paths(cfg, range(6))
        assert together.values.shape == (6, 2, 31)
        assert together.log_scale.shape == (6, 2)
        alone = [S.simulate_path(cfg, i) for i in range(6)]
        split = [*S.simulate_paths(cfg, [0, 1]), *S.simulate_paths(cfg, [2, 3, 4, 5])]
        for i, (a, b, c) in enumerate(zip(together, alone, split)):
            assert a.sample_index == b.sample_index == c.sample_index == i
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.values, c.values)

    def test_chunked_stepping_invariance(self):
        grid = GridSpec(n_interior=31, dt=1e-3, horizon=0.1)
        cfg = S.SimulationConfig(grid=grid, lam=2.0, master_seed=11,
                                 u0=S.InitialData.bump(0.2), observation_times=(0.1,))
        a = S.simulate_paths(cfg, [3], chunk_steps=7)[0]
        b = S.simulate_paths(cfg, [3], chunk_steps=256)[0]
        assert np.array_equal(a.values, b.values)

    def test_observation_subsampling_consistent(self):
        grid = GridSpec(n_interior=31, dt=1e-3, horizon=0.1)
        dense = S.SimulationConfig(grid=grid, lam=1.5, master_seed=4,
                                   u0=S.InitialData.bump(0.2),
                                   observation_times=(0.025, 0.05, 0.075, 0.1))
        sparse = S.SimulationConfig(grid=grid, lam=1.5, master_seed=4,
                                    u0=S.InitialData.bump(0.2),
                                    observation_times=(0.05, 0.1))
        pd_, ps = S.simulate_path(dense, 7), S.simulate_path(sparse, 7)
        for t in (0.05, 0.1):
            assert np.array_equal(pd_.field_at(t), ps.field_at(t))

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_step_function_matches_engine(self, boundary):
        grid = GridSpec(n_interior=15, dt=1e-3, horizon=0.01)
        cfg = S.SimulationConfig(grid=grid, lam=1.0, master_seed=2, boundary=boundary,
                                 u0=S.InitialData.sine(1), observation_times=(0.01,))
        stream = NoiseStream(2, 0, grid)
        state = S.project_initial(cfg.u0, grid)
        factor = S._implicit_factor(cfg)
        for k in range(grid.n_steps):
            state = step_semi_implicit(state, stream, k, cfg, factor=factor)
        engine = S.simulate_path(cfg, 0).field_at(0.01)
        assert np.allclose(state, engine, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lam", [1.0, 4.0])
    def test_spectral_step_function_matches_engine(self, lam):
        # step_spectral steps sine-mode coefficients, the engine the nodal field
        grid = GridSpec(n_interior=15, dt=1e-3, horizon=0.01)
        cfg = S.SimulationConfig(grid=grid, lam=lam, master_seed=2, scheme="spectral",
                                 u0=S.InitialData.bump(0.2), observation_times=(0.01,))
        stream = NoiseStream(2, 0, grid)
        coeffs = sine_transform(S.project_initial(cfg.u0, grid)) * math.sqrt(grid.dx)
        for k in range(grid.n_steps):
            coeffs = step_spectral(coeffs, stream, k, cfg)
        state = sine_transform(coeffs) / math.sqrt(grid.dx)
        engine = S.simulate_path(cfg, 0).field_at(0.01)
        assert np.max(np.abs(state - engine)) <= 1e-13 * np.max(np.abs(engine))


def dense_implicit_matrix(cfg):
    """I - nu dt L as a dense matrix, L the second difference with the
    Dirichlet closure or the Neumann mirror ghost closure."""
    n, dx = cfg.grid.n_interior, cfg.grid.dx
    lap = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
           + np.diag(np.ones(n - 1), -1)) / dx ** 2
    if cfg.boundary == "neumann":
        lap[0, 0] = lap[-1, -1] = -1.0 / dx ** 2
    return np.eye(n) - cfg.nu * cfg.grid.dt * lap


class TestPropagator:
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_semi_implicit_matches_dense_solve(self, boundary):
        grid = GridSpec(n_interior=127, dt=2.5e-4, horizon=0.01)
        cfg = S.SimulationConfig(grid=grid, lam=1.0, boundary=boundary,
                                 observation_times=(0.01,))
        u = np.random.default_rng(8).standard_normal((64, 127))
        dense = np.linalg.solve(dense_implicit_matrix(cfg), u.T).T
        batch = u.copy()
        got = S._propagator(cfg)(batch)
        assert got.shape == (64, 127)
        assert np.shares_memory(got, batch)   # solved in place, rows as columns
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_not_positive_definite_is_config_error(self):
        # nu < 0 passes no SimulationConfig; forced here, the first pivot is
        # negative and the factor refuses it
        cfg = S.SimulationConfig(grid=GridSpec(n_interior=63, dt=1e-2, horizon=0.1),
                                 lam=1.0, observation_times=(0.1,))
        object.__setattr__(cfg, "nu", -0.5)   # diagonal 1 - 40 < 0
        with pytest.raises(S.ConfigError):
            S._implicit_factor(cfg)

    def test_spectral_renormalized_batch_equals_single_runs(self):
        grid = GridSpec(n_interior=31, dt=1e-3, horizon=1.0)
        cfg = S.SimulationConfig(grid=grid, lam=20.0, scheme="spectral", master_seed=5,
                                 u0=S.InitialData.bump(0.2),
                                 observation_times=(0.25, 0.5, 1.0))
        batch = S.simulate_paths(cfg, [5, 0, 3, 1])
        assert np.all(batch.log_scale[:, -1] > 0)   # every sample renormalized
        for i, sample in enumerate([5, 0, 3, 1]):
            alone = S.simulate_path(cfg, sample)
            assert np.array_equal(batch.values[i], alone.values)
            assert np.array_equal(batch.log_scale[i], alone.log_scale)


class TestStability:
    def test_nan_aborts_with_step(self):
        grid = GridSpec(n_interior=7, dt=1e-3, horizon=0.01)
        cfg = S.SimulationConfig(grid=grid, lam=1.0, observation_times=(0.01,))
        stream = NoiseStream(0, 3, grid)
        bad = np.full(7, np.nan)
        with pytest.raises(S.PathDivergedError) as err:
            step_semi_implicit(bad, stream, 2, cfg)
        assert err.value.step_index == 2
        assert err.value.sample_index == 3

    def test_renormalization_keeps_path_finite(self):
        grid = GridSpec(n_interior=63, dt=2e-5, horizon=0.02)
        cfg = S.SimulationConfig(grid=grid, lam=64.0, master_seed=7,
                                 u0=S.InitialData.bump(0.2), observation_times=(0.02,))
        p = S.simulate_path(cfg, 0)
        assert np.all(np.isfinite(p.values))
        assert p.log_scale[0] > 0  # renormalization fired
        assert np.max(p.log_abs_at(0.02)) > math.log(1e100)
        # a sample's rescaling is its own: the batch's row equals the lone path
        ens = S.simulate_paths(cfg, [2, 0, 1])
        assert np.array_equal(ens[1].values, p.values)
        assert np.array_equal(ens[1].log_scale, p.log_scale)

    def test_spectral_neumann_unsupported(self):
        grid = GridSpec(n_interior=15, dt=1e-3, horizon=0.01)
        with pytest.raises(S.UnsupportedSchemeError):
            S.SimulationConfig(grid=grid, lam=0.0, boundary="neumann",
                               scheme="spectral", observation_times=(0.01,))

    def test_dt_bound_enforced(self):
        with pytest.raises(S.ConfigError):
            S.SimulationConfig(grid=GridSpec(n_interior=63, dt=0.1, horizon=1.0),
                               lam=1.0, observation_times=(1.0,))


PRODUCER_CASES = {
    "semi_implicit": dict(lam=2.0),
    "spectral": dict(lam=2.0, scheme="spectral"),
    "neumann": dict(lam=2.0, boundary="neumann"),
    "linear_plus_sine": dict(lam=2.0, sigma=S.SigmaSpec.linear_plus_sine(1.5, 0.5)),
    "lam0": dict(lam=0.0),
}


def reference_march(cfg, sample):
    """One sample stepped to the horizon by the per-sample reference steppers."""
    grid = cfg.grid
    stream = NoiseStream(cfg.master_seed, sample, grid)
    state = S.project_initial(cfg.u0, grid)
    if cfg.scheme == "spectral":
        coeffs = sine_transform(state) * math.sqrt(grid.dx)
        for k in range(grid.n_steps):
            coeffs = step_spectral(coeffs, stream, k, cfg)
        return sine_transform(coeffs) / math.sqrt(grid.dx)
    factor = S._implicit_factor(cfg)
    for k in range(grid.n_steps):
        state = step_semi_implicit(state, stream, k, cfg, factor=factor)
    return state


class TestNoiseProducer:
    """The next chunk's noise is drawn on a producer thread while the march
    steps the current one, and the march draws the samples the producer has
    not reached; values must depend on neither."""

    @staticmethod
    def config(horizon=0.2, **kwargs):
        grid = GridSpec(n_interior=15, dt=1e-3, horizon=horizon)
        return S.SimulationConfig(grid=grid, master_seed=9, u0=S.InitialData.sine(1),
                                  observation_times=(0.05, horizon), **kwargs)

    @pytest.mark.parametrize("case", PRODUCER_CASES)
    def test_chunking_is_bit_identical_and_matches_steppers(self, case):
        cfg = self.config(**PRODUCER_CASES[case])
        samples = [4, 0, 2]
        runs = [S.simulate_paths(cfg, samples, chunk_steps=c)
                for c in (1, 7, 128, cfg.grid.n_steps + 5)]
        for run in runs[1:]:
            assert np.array_equal(run.values, runs[0].values)
            assert np.array_equal(run.log_scale, runs[0].log_scale)
        for path, sample in zip(runs[0], samples):
            engine = path.field_at(0.2)
            ref = reference_march(cfg, sample)
            assert np.max(np.abs(ref - engine)) <= 1e-12 * np.max(np.abs(engine))

    def test_concurrent_calls_under_fast_switching(self):
        # more callers than cores, each handing 3-step chunks between its
        # march and its producer with a thread switch every microsecond: a
        # buffer refilled while still read would move a value
        cfg = self.config(lam=2.0, scheme="spectral")
        expected = S.simulate_paths(cfg, range(4), chunk_steps=3).values
        results = {}

        def run(i):
            results[i] = S.simulate_paths(cfg, range(4), chunk_steps=3).values

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        assert all(np.array_equal(v, expected) for v in results.values())

    def test_one_producer_thread_and_none_for_lam0(self, monkeypatch):
        started = []
        thread_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            thread_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        before = threading.active_count()
        S.simulate_paths(self.config(lam=0.0), [0, 1], chunk_steps=7)
        assert started == []
        S.simulate_paths(self.config(lam=1.0), [0, 1], chunk_steps=7)
        assert len(started) == 1
        assert threading.active_count() == before

    def test_divergence_mid_chunk_waits_for_the_running_fill(self, monkeypatch):
        # 300 steps in chunks of 128 with 2 samples: a nan enters at step 40,
        # while the producer's fill of chunk 1 is held, and the check at the
        # step-50 observation raises; every wait is bounded, so a fault
        # cannot hang
        cfg = self.config(horizon=0.3, lam=1.0)
        diverged = S.PathDivergedError
        fill_started, fill_done, raised = (threading.Event() for _ in range(3))
        in_flight = []
        calls = []
        real_block, real_propagator = S.sample_block, S._propagator

        def held_block(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:          # chunk 1, sample 0: on the producer
                fill_started.set()
                raised.wait(5)
            out = real_block(*args, **kwargs)
            if len(calls) == 4:
                fill_done.set()
            return out

        def poisoned_propagator(cfg):
            propagate, steps = real_propagator(cfg), []

            def poisoned(u):
                steps.append(None)
                if len(steps) == 40:
                    fill_started.wait(5)
                    u[:] = np.nan
                return propagate(u)
            return poisoned

        class RecordingDiverged(diverged):
            def __init__(self, *args):
                in_flight.append(fill_started.is_set() and not fill_done.is_set())
                raised.set()
                super().__init__(*args)

        monkeypatch.setattr(S, "sample_block", held_block)
        monkeypatch.setattr(S, "_propagator", poisoned_propagator)
        monkeypatch.setattr(S, "PathDivergedError", RecordingDiverged)
        before = threading.active_count()
        with pytest.raises(diverged) as err:
            S.simulate_paths(cfg, [0, 1], chunk_steps=128)
        assert err.value.step_index == 50
        assert in_flight == [True]
        assert fill_done.is_set()       # the call returned after the fill ended
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing_call", [1, 3])   # main thread, producer
    def test_fill_exception_surfaces_as_itself(self, monkeypatch, failing_call):
        boom = RuntimeError("noise source failed")
        calls = []
        real_block = S.sample_block

        def failing_block(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing_call:
                raise boom
            return real_block(*args, **kwargs)

        monkeypatch.setattr(S, "sample_block", failing_block)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as err:
            S.simulate_paths(self.config(lam=1.0), [0, 1], chunk_steps=7)
        assert err.value is boom
        assert threading.active_count() == before

    @pytest.mark.parametrize("chunk_steps", [0, -1])
    def test_chunk_steps_below_one_is_config_error(self, monkeypatch, chunk_steps):
        # a chunk of no steps never advances the march; should the check be
        # missing, the guard turns that loop into a failure, not a hang
        calls = []
        real_block = S.sample_block

        def guarded_block(*args, **kwargs):
            calls.append(None)
            if len(calls) > 100:
                raise AssertionError("the march does not advance")
            return real_block(*args, **kwargs)

        monkeypatch.setattr(S, "sample_block", guarded_block)
        with pytest.raises(S.ConfigError):
            S.simulate_paths(self.config(lam=1.0), [0], chunk_steps=chunk_steps)
        assert calls == []


@pytest.fixture(scope="module")
def ensemble():
    grid = GridSpec(n_interior=31, dt=5e-4, horizon=0.25)
    cfg = S.SimulationConfig(grid=grid, lam=1.0, master_seed=314,
                             u0=S.InitialData.bump(0.2),
                             observation_times=(0.25,))
    return cfg, S.simulate_paths(cfg, range(800))


class TestEnsembleLaws:
    def test_mean_consistency_with_heat_propagation(self, ensemble):
        # E u(t,x) solves the deterministic heat equation (noise has zero mean)
        cfg, paths = ensemble
        fields = np.stack([p.field_at(0.25) for p in paths])
        mean = fields.mean(axis=0)
        se = fields.std(axis=0, ddof=1) / math.sqrt(len(paths))
        d1 = O._d1_field(O.OracleConfig(lam=0.0, u0=cfg.u0, horizon=0.25,
                                        n_time_panels=10, n_x=31),
                         np.array([0.25]), cfg.grid.x)[0]
        assert np.all(np.abs(mean - d1) <= 4 * se + 1e-12)

    def test_positivity_of_mean_field(self, ensemble):
        cfg, paths = ensemble
        fields = np.stack([p.field_at(0.25) for p in paths])
        mean = fields.mean(axis=0)
        se = fields.std(axis=0, ddof=1) / math.sqrt(len(paths))
        assert np.all(mean >= -3 * se)

    def test_second_moment_matches_oracle(self, ensemble):
        cfg, paths = ensemble
        sq = np.stack([p.field_at(0.25) for p in paths]) ** 2
        j = 15  # x = 0.5
        mc, se = sq[:, j].mean(), sq[:, j].std(ddof=1) / math.sqrt(sq.shape[0])
        mf = O.second_moment_volterra(O.OracleConfig(
            lam=1.0, u0=cfg.u0, horizon=0.25, n_time_panels=250, n_x=31))
        m = math.exp(mf.log_m_at(0.25, 0.5))
        err = m * abs(math.expm1(mf.error_log_at(0.25, 0.5)))
        assert abs(mc - m) <= 1.96 * se + err


class TestSchemeAgreement:
    def test_self_convergence_under_refinement(self):
        # shared noise per level; ensemble-mean difference between the two
        # schemes shrinks under dt -> dt/4, dx -> dx/2. The theoretical
        # per-level factor is ~sqrt(2) (the dt^{1/4} strong order dominates
        # the scheme difference), so the contract is monotone decrease plus
        # a compound factor over two refinements.
        means = []
        for n_int, dt in ((31, 1e-3), (63, 2.5e-4), (127, 6.25e-5)):
            grid = GridSpec(n_interior=n_int, dt=dt, horizon=0.25)
            base = dict(grid=grid, lam=1.0, master_seed=55,
                        u0=S.InitialData.sine(1), observation_times=(0.25,))
            pf = S.simulate_paths(S.SimulationConfig(scheme="semi_implicit", **base),
                                  range(96))
            ps = S.simulate_paths(S.SimulationConfig(scheme="spectral", **base),
                                  range(96))
            stride = (n_int + 1) // 32
            sel = np.arange(stride, n_int + 1, stride) - 1  # common nodes x = j/32
            d = [np.sqrt(np.mean((a.field_at(0.25) - b.field_at(0.25))[sel] ** 2))
                 for a, b in zip(pf, ps)]
            means.append(float(np.mean(d)))
        assert means[0] > means[1] > means[2]
        assert means[0] / means[2] >= 1.7
