"""Solver tests: exact deterministic limits, reproducibility, scheme agreement."""

import collections
import dataclasses
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheatlab import oracle as O
from sheatlab import solver as S
from sheatlab.noise import GridSpec, NoiseStream
from sheatlab.solver import sine_transform

from reference_steps import step_semi_implicit, step_spectral

PI2 = math.pi ** 2


def chunk_budget(steps, k, n):
    """The NOISE_BUFFER_BYTES under which a march of k samples on n nodes
    draws its noise `steps` steps at a time."""
    return 8 * k * n * steps


class TestSigmaSpec:
    def test_linear_constants(self):
        sg = S.SigmaSpec(2.5)
        assert sg.lipschitz_upper == 2.5
        assert sg.lower_constant == 2.5
        assert sg(0.0) == 0.0

    def test_linear_plus_sine_constants(self):
        sg = S.SigmaSpec(2.0, 0.5)
        assert sg.lipschitz_upper == 2.5
        assert sg.lower_constant == 1.5
        assert sg(0.0) == 0.0

    def test_sine_free_is_the_linear_sigma(self):
        # one value, one hash: the runner holds one ensemble for both
        assert S.SigmaSpec(1.5) == S.SigmaSpec(1.5, 0.0)
        assert hash(S.SigmaSpec(1.5)) == hash(S.SigmaSpec(1.5, 0.0))
        assert S.SigmaSpec(1.5, 0.0).is_homogeneous
        assert not S.SigmaSpec(1.5, 0.5).is_homogeneous
        assert S.SigmaSpec() == S.SigmaSpec(1.0, 0.0)

    def test_invalid(self):
        with pytest.raises(S.ConfigError):
            S.SigmaSpec(1.0, 1.0)
        with pytest.raises(S.ConfigError):
            S.SigmaSpec(0.0)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_and_lower_bound_sampled(self, u, v):
        sg = S.SigmaSpec(2.0, 0.5)
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
        u = S.simulate_paths(cfg, [0]).field_at(0.5)[0]
        exact = math.exp(-0.5 * PI2 * 0.5) * np.sin(math.pi * grid.x)
        assert np.max(np.abs(u - exact)) / np.max(exact) < 0.01

    def test_spectral_exact_decay(self):
        grid = GridSpec(n_interior=63, dt=1e-3, horizon=0.1)
        cfg = S.SimulationConfig(grid=grid, lam=0.0, scheme="spectral",
                                 u0=S.InitialData.sine(1), observation_times=(0.1,))
        u = S.simulate_paths(cfg, [0]).field_at(0.1)[0]
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
        u = S.simulate_paths(cfg, [0]).field_at(0.2)[0]
        assert np.max(np.abs(u - 1.0)) < 1e-12

    def test_near_boundary_decrease_under_refinement(self):
        # lam = 0: the nodal value adjacent to x = 0 shrinks as dx -> 0
        prev = None
        for n in (31, 63, 127):
            grid = GridSpec(n_interior=n, dt=1e-4, horizon=0.1)
            cfg = S.SimulationConfig(grid=grid, lam=0.0, u0=S.InitialData.bump(0.2),
                                     observation_times=(0.1,))
            u = S.simulate_paths(cfg, [0]).field_at(0.1)[0]
            if prev is not None:
                assert u[0] < prev
            prev = u[0]


class TestReproducibility:
    def test_deterministic_config_twice(self):
        grid = GridSpec(n_interior=31, dt=1e-3, horizon=0.1)
        cfg = S.SimulationConfig(grid=grid, lam=0.0, u0=S.InitialData.bump(0.2),
                                 observation_times=(0.05, 0.1))
        a, b = S.simulate_paths(cfg, [0]), S.simulate_paths(cfg, [0])
        assert np.array_equal(a.values, b.values)

    def test_batch_grouping_invariance(self):
        grid = GridSpec(n_interior=31, dt=1e-3, horizon=0.1)
        cfg = S.SimulationConfig(grid=grid, lam=2.0, master_seed=11,
                                 u0=S.InitialData.bump(0.2),
                                 observation_times=(0.05, 0.1))
        together = S.simulate_paths(cfg, range(6))
        assert together.values.shape == (6, 2, 31)
        assert together.log_scale.shape == (6, 2)
        alone = [S.simulate_paths(cfg, [i]) for i in range(6)]
        split = [S.simulate_paths(cfg, [0, 1]), S.simulate_paths(cfg, [2, 3, 4, 5])]
        for parts in (alone, split):
            assert np.array_equal(np.concatenate([p.samples for p in parts]), range(6))
            assert np.array_equal(np.concatenate([p.values for p in parts]),
                                  together.values)

    def test_chunked_stepping_invariance(self, monkeypatch):
        grid = GridSpec(n_interior=31, dt=1e-3, horizon=0.1)
        cfg = S.SimulationConfig(grid=grid, lam=2.0, master_seed=11,
                                 u0=S.InitialData.bump(0.2), observation_times=(0.1,))
        monkeypatch.setattr(S, "NOISE_BUFFER_BYTES", chunk_budget(7, 1, 31))
        a = S.simulate_paths(cfg, [3])
        monkeypatch.setattr(S, "NOISE_BUFFER_BYTES", chunk_budget(256, 1, 31))
        b = S.simulate_paths(cfg, [3])
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("scheme", ["semi_implicit", "spectral"])
    def test_batch_size_never_changes_a_row(self, scheme):
        # a sample's values may not depend on its batch's row count: a dense
        # GEMM propagator (u @ P) breaks this, since BLAS blocks by rows and
        # a one-row batch goes through GEMV
        grid = GridSpec(n_interior=255, dt=1e-3, horizon=0.01)
        cfg = S.SimulationConfig(grid=grid, lam=2.0, master_seed=5, scheme=scheme,
                                 u0=S.InitialData.bump(0.2), observation_times=(0.01,))
        whole = S.simulate_paths(cfg, range(130))
        for k in (1, 2, 63, 64, 65, 128):
            batch = S.simulate_paths(cfg, range(1, 1 + k))
            assert np.array_equal(batch.values, whole.values[1:1 + k]), k
            assert np.array_equal(batch.log_scale, whole.log_scale[1:1 + k]), k

    def test_observation_subsampling_consistent(self):
        grid = GridSpec(n_interior=31, dt=1e-3, horizon=0.1)
        dense = S.SimulationConfig(grid=grid, lam=1.5, master_seed=4,
                                   u0=S.InitialData.bump(0.2),
                                   observation_times=(0.025, 0.05, 0.075, 0.1))
        sparse = S.SimulationConfig(grid=grid, lam=1.5, master_seed=4,
                                    u0=S.InitialData.bump(0.2),
                                    observation_times=(0.05, 0.1))
        pd_, ps = S.simulate_paths(dense, [7]), S.simulate_paths(sparse, [7])
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
        engine = S.simulate_paths(cfg, [0]).field_at(0.01)[0]
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
        engine = S.simulate_paths(cfg, [0]).field_at(0.01)[0]
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
            alone = S.simulate_paths(cfg, [sample])
            assert np.array_equal(batch.values[i], alone.values[0])
            assert np.array_equal(batch.log_scale[i], alone.log_scale[0])


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
        p = S.simulate_paths(cfg, [0])
        assert np.all(np.isfinite(p.values))
        assert p.log_scale[0, 0] > 0  # renormalization fired
        assert np.max(p.log_abs_at(0.02)) > math.log(1e100)
        # a sample's rescaling is its own: the batch's row equals the lone path
        ens = S.simulate_paths(cfg, [2, 0, 1])
        assert np.array_equal(ens[1:2].values, p.values)
        assert np.array_equal(ens[1:2].log_scale, p.log_scale)

    def test_ensemble_log_abs_rows_are_the_paths(self):
        grid = GridSpec(n_interior=63, dt=2e-5, horizon=0.02)
        cfg = S.SimulationConfig(grid=grid, lam=64.0, master_seed=7,
                                 u0=S.InitialData.bump(0.2), observation_times=(0.01, 0.02))
        ens = S.simulate_paths(cfg, [2, 0, 1])
        assert np.all(ens.log_scale[:, -1] > 0)    # every row renormalized
        for t in (0.01, 0.02):
            rows = ens.log_abs_at(t)
            assert rows.shape == (3, 63)
            for i, sample in enumerate([2, 0, 1]):
                alone = S.simulate_paths(cfg, [sample])
                assert np.array_equal(rows[i], alone.log_abs_at(t)[0])
                assert np.array_equal(ens.field_at(t)[i], alone.field_at(t)[0])

    def test_field_at_rows_past_float_range(self):
        # rows at log scale 0, 700 (exp finite) and 800 (exp overflows)
        cfg = S.SimulationConfig(grid=GridSpec(n_interior=3, dt=1e-3, horizon=0.01),
                                 lam=1.0, observation_times=(0.01,))
        row = [0.5, -2.0, 0.0, 1e-300]
        ens = S.Ensemble(config=cfg, samples=np.arange(3), times=np.array([0.01]),
                         values=np.array([[row]] * 3),
                         log_scale=np.array([[0.0], [700.0], [800.0]]))
        u = ens.field_at(0.01)
        assert u.shape == (3, 4)
        assert np.array_equal(u[0], row)
        assert np.array_equal(u[1], np.array(row) * math.exp(700.0))
        assert np.array_equal(u[2, :3], [math.inf, -math.inf, 0.0])
        assert u[2, 3] == pytest.approx(math.exp(math.log(1e-300) + 800.0), rel=1e-12)
        assert np.all(np.isfinite(ens.log_abs_at(0.01)) == (np.array(row) != 0))

    def test_ensemble_takes_slices_only(self):
        grid = GridSpec(n_interior=15, dt=1e-3, horizon=0.01)
        cfg = S.SimulationConfig(grid=grid, lam=1.0, observation_times=(0.01,))
        ens = S.simulate_paths(cfg, [4, 5, 6])
        assert np.array_equal(ens[1:].samples, [5, 6])
        assert np.array_equal(ens[1:].field_at(0.01), ens.field_at(0.01)[1:])
        with pytest.raises(TypeError):
            ens[0]

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
    "linear_plus_sine": dict(lam=2.0, sigma=S.SigmaSpec(1.5, 0.5)),
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
    def test_chunking_is_bit_identical_and_matches_steppers(self, case, monkeypatch):
        cfg = self.config(**PRODUCER_CASES[case])
        samples = [4, 0, 2]
        runs = []
        for c in (1, 7, 128, cfg.grid.n_steps + 5):
            monkeypatch.setattr(S, "NOISE_BUFFER_BYTES", chunk_budget(c, len(samples), 15))
            runs.append(S.simulate_paths(cfg, samples))
        for run in runs[1:]:
            assert np.array_equal(run.values, runs[0].values)
            assert np.array_equal(run.log_scale, runs[0].log_scale)
        for engine, sample in zip(runs[0].field_at(0.2), samples):
            ref = reference_march(cfg, sample)
            assert np.max(np.abs(ref - engine)) <= 1e-12 * np.max(np.abs(engine))

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # more callers than cores, each handing 3-step chunks between its
        # march and its producer with a thread switch every microsecond: a
        # buffer refilled while still read would move a value
        cfg = self.config(lam=2.0, scheme="spectral")
        monkeypatch.setattr(S, "NOISE_BUFFER_BYTES", chunk_budget(3, 4, 15))
        expected = S.simulate_paths(cfg, range(4)).values
        results = {}

        def run(i):
            results[i] = S.simulate_paths(cfg, range(4)).values

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
        monkeypatch.setattr(S, "NOISE_BUFFER_BYTES", chunk_budget(7, 2, 15))
        before = threading.active_count()
        S.simulate_paths(self.config(lam=0.0), [0, 1])
        assert started == []
        S.simulate_paths(self.config(lam=1.0), [0, 1])
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
        monkeypatch.setattr(S, "NOISE_BUFFER_BYTES", chunk_budget(128, 2, 15))
        before = threading.active_count()
        with pytest.raises(diverged) as err:
            S.simulate_paths(cfg, [0, 1])
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
        monkeypatch.setattr(S, "NOISE_BUFFER_BYTES", chunk_budget(7, 2, 15))
        before = threading.active_count()
        with pytest.raises(RuntimeError) as err:
            S.simulate_paths(self.config(lam=1.0), [0, 1])
        assert err.value is boom
        assert threading.active_count() == before

    def test_chunk_length_follows_the_byte_budget(self, monkeypatch):
        # 64 samples on 127 nodes: 4 MiB // (8 * 64 * 127) = 64 steps, so
        # 130 steps are drawn as 64, 64 and 2; a budget below one step
        # draws one step at a time, with the same values
        grid = GridSpec(n_interior=127, dt=1e-4, horizon=0.013)
        cfg = S.SimulationConfig(grid=grid, lam=2.0, master_seed=9,
                                 u0=S.InitialData.bump(0.2), observation_times=(0.013,))
        lengths = []
        real_block = S.sample_block

        def recording_block(stream, n_steps, **kwargs):
            lengths.append(n_steps)
            return real_block(stream, n_steps, **kwargs)

        monkeypatch.setattr(S, "sample_block", recording_block)
        budgeted = S.simulate_paths(cfg, range(64))
        assert collections.Counter(lengths) == {64: 128, 2: 64}
        lengths.clear()
        monkeypatch.setattr(S, "NOISE_BUFFER_BYTES", 1)
        one_step = S.simulate_paths(cfg, range(64))
        assert collections.Counter(lengths) == {1: 130 * 64}
        assert np.array_equal(one_step.values, budgeted.values)

    def test_noise_memory_is_bounded_by_the_budget(self):
        # 256 samples on 63 nodes: 32-step chunks, two buffers of 4.1 MB
        grid = GridSpec(n_interior=63, dt=1e-3, horizon=0.2)
        cfg = S.SimulationConfig(grid=grid, lam=1.0, master_seed=3,
                                 u0=S.InitialData.bump(0.2), observation_times=(0.2,))
        S.load_kernels()        # scipy's import is not the march's memory
        tracemalloc.start()
        try:
            S.simulate_paths(cfg, range(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


GROUP_CASES = {
    "semi_implicit": (dict(), (0.5, 2.0, 60.0)),
    "spectral": (dict(scheme="spectral"), (0.5, 2.0, 60.0)),
    "neumann": (dict(boundary="neumann"), (0.5, 2.0, 60.0)),
    "linear_plus_sine": (dict(sigma=S.SigmaSpec(1.5, 0.5)), (0.5, 2.0)),
    "lam0": (dict(), (0.0, 2.0)),
    "one_sample": (dict(samples=[3]), (0.5, 2.0)),
}


class TestGroupMarch:
    """Configs that differ only in lam march as one state on shared noise;
    each member must equal its own run, bit for bit."""

    @staticmethod
    def configs(lams, horizon=0.2, **kwargs):
        grid = GridSpec(n_interior=15, dt=1e-3, horizon=horizon)
        return [S.SimulationConfig(grid=grid, lam=lam, master_seed=9,
                                   u0=S.InitialData.bump(0.2),
                                   observation_times=(0, 0.05, horizon), **kwargs)
                for lam in lams]

    @pytest.mark.parametrize("case", GROUP_CASES)
    def test_members_equal_their_own_runs(self, case):
        kwargs, lams = dict(GROUP_CASES[case][0]), GROUP_CASES[case][1]
        samples = kwargs.pop("samples", [4, 0, 2])
        cfgs = self.configs(lams, **kwargs)
        group = S.simulate_group(cfgs, samples)
        assert [ens.config for ens in group] == cfgs
        for cfg, ens in zip(cfgs, group):
            alone = S.simulate_paths(cfg, samples)
            assert list(ens.samples) == samples
            assert np.array_equal(ens.values, alone.values)
            assert np.array_equal(ens.log_scale, alone.log_scale)
        if case == "lam0":    # no noise enters the lam = 0 member
            decay = S.simulate_paths(cfgs[0], [0]).values[0]
            assert all(np.array_equal(row, decay) for row in group[0].values)
        if len(lams) == 3 and cfgs[0].sigma.is_homogeneous:
            assert np.any(group[-1].log_scale > 0)     # the lam = 60 rows renormalized

    def test_diverged_member_leaves_the_others(self, monkeypatch):
        sigma = S.SigmaSpec(1.5, 0.5)
        cfgs = self.configs((0.5, 100000.0, 1.0), horizon=0.3, sigma=sigma)
        samples = [4, 0, 2]
        monkeypatch.setattr(S, "NOISE_BUFFER_BYTES", chunk_budget(7, 3, 15))
        group = S.simulate_group(cfgs, samples)
        assert isinstance(group[1], S.PathDivergedError)
        with pytest.raises(S.PathDivergedError) as alone:
            S.simulate_paths(cfgs[1], samples)
        assert str(group[1]) == str(alone.value)
        assert (group[1].step_index, group[1].sample_index) \
            == (alone.value.step_index, alone.value.sample_index)
        for i in (0, 2):
            own = S.simulate_paths(cfgs[i], samples)
            assert np.array_equal(group[i].values, own.values)
            assert np.array_equal(group[i].log_scale, own.log_scale)

    def test_configs_differing_beyond_lam_are_refused(self):
        a, b = self.configs((0.5, 1.0))
        with pytest.raises(S.ConfigError):
            S.simulate_group([a, dataclasses.replace(b, master_seed=10)], [0])

    def test_diverged_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(S.PathDivergedError(96, 0)))
        assert str(err) == "non-finite state at step 96, sample 0"
        assert (err.step_index, err.sample_index) == (96, 0)


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
        fields = paths.field_at(0.25)
        mean = fields.mean(axis=0)
        se = fields.std(axis=0, ddof=1) / math.sqrt(len(paths))
        heat = O.OracleConfig(lam=0.0, u0=cfg.u0, horizon=0.25, n_time_panels=10, n_x=31)
        d1 = O._d1_field(heat, np.array([0.25]), cfg.grid.x, O._d1_coefficients(heat))[0]
        assert np.all(np.abs(mean - d1) <= 4 * se + 1e-12)

    def test_positivity_of_mean_field(self, ensemble):
        cfg, paths = ensemble
        fields = paths.field_at(0.25)
        mean = fields.mean(axis=0)
        se = fields.std(axis=0, ddof=1) / math.sqrt(len(paths))
        assert np.all(mean >= -3 * se)

    def test_second_moment_matches_oracle(self, ensemble):
        cfg, paths = ensemble
        sq = paths.field_at(0.25) ** 2
        j = 15  # x = 0.5
        mc, se = sq[:, j].mean(), sq[:, j].std(ddof=1) / math.sqrt(sq.shape[0])
        (mf,) = O.second_moments([O.OracleConfig(
            lam=1.0, u0=cfg.u0, horizon=0.25, n_time_panels=250, n_x=31)])
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
            d = [np.sqrt(np.mean((a - b)[sel] ** 2))
                 for a, b in zip(pf.field_at(0.25), ps.field_at(0.25))]
            means.append(float(np.mean(d)))
        assert means[0] > means[1] > means[2]
        assert means[0] / means[2] >= 1.7
