"""Noise module tests: reproducibility, distributional bands, transform ties."""

import math

import numpy as np
import pytest

from sheatlab import noise as N
from sheatlab.solver import sine_transform

from reference_steps import sample_increments


GRID = N.GridSpec(n_interior=32, dt=1e-3, horizon=0.1)


def stream(sample=0, seed=123):
    return N.NoiseStream(master_seed=seed, sample_index=sample, grid=GRID)


class TestGridSpec:
    def test_dx(self):
        assert GRID.dx == pytest.approx(1.0 / 33.0)

    def test_n_steps_covers_horizon(self):
        assert GRID.n_steps * GRID.dt >= GRID.horizon - GRID.dt / 2

    def test_ragged_horizon(self):
        g = N.GridSpec(n_interior=4, dt=0.3, horizon=1.0)
        assert g.n_steps == 4

    def test_validation(self):
        with pytest.raises(N.NoiseDomainError):
            N.GridSpec(n_interior=0, dt=0.1, horizon=1.0)
        with pytest.raises(N.NoiseDomainError):
            N.GridSpec(n_interior=4, dt=-0.1, horizon=1.0)


class TestReproducibility:
    def test_same_inputs_identical(self):
        a = sample_increments(stream(), 5)
        b = sample_increments(stream(), 5)
        assert np.array_equal(a, b)

    def test_block_matches_single_step(self):
        block, _ = N.sample_block(stream(), GRID.n_steps)
        for k in (0, 3, GRID.n_steps - 1):
            assert np.array_equal(block[k], sample_increments(stream(), k))

    def test_chunked_block_matches_full(self):
        full, _ = N.sample_block(stream(), 50)
        s = stream()
        first, g = N.sample_block(s, 20)
        second, _ = N.sample_block(s, 30, generator=g)
        assert np.array_equal(full, np.vstack([first, second]))

    def test_out_fill_matches_allocating_path(self):
        # a caller's buffer continued across chunks, with a short last chunk
        full, _ = N.sample_block(stream(), 50)
        buf = np.full((3, 20, GRID.n_interior), np.nan)
        g = None
        for i, (lo, hi) in enumerate([(0, 20), (20, 40), (40, 50)]):
            blk, g = N.sample_block(stream(), hi - lo, generator=g,
                                    out=buf[i, :hi - lo])
            assert np.shares_memory(blk, buf)
            assert np.array_equal(buf[i, :hi - lo], full[lo:hi])
        assert np.all(np.isnan(buf[2, 10:]))   # nothing past the short chunk

    def test_out_shape_checked(self):
        with pytest.raises(N.NoiseDomainError):
            N.sample_block(stream(), 5, out=np.empty((4, GRID.n_interior)))

    def test_distinct_samples_differ(self):
        a = sample_increments(stream(sample=0), 0)
        b = sample_increments(stream(sample=1), 0)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sample_increments(stream(seed=1), 0)
        b = sample_increments(stream(seed=2), 0)
        assert not np.array_equal(a, b)

    def test_step_out_of_range(self):
        with pytest.raises(N.NoiseDomainError):
            sample_increments(stream(), GRID.n_steps)
        with pytest.raises(N.NoiseDomainError):
            sample_increments(stream(), -1)


class TestDistribution:
    def test_mean_and_variance_bands(self):
        # ensemble of 1e5 draws at a fixed (step, cell)
        n = 100_000
        g = N.GridSpec(n_interior=4, dt=1e-3, horizon=1e-3)
        vals = np.array([
            N.sample_block(N.NoiseStream(7, s, g), 1)[0][0, 2] for s in range(n)
        ])
        var = g.dt * g.dx
        assert abs(vals.mean()) < 4 * math.sqrt(var / n)
        assert abs(vals.var() / var - 1.0) < 0.05

    def test_cross_sample_correlation(self):
        n = 100_000
        g = N.GridSpec(n_interior=1, dt=1e-3, horizon=1e-3)
        a = np.array([N.sample_block(N.NoiseStream(7, s, g), 1)[0][0, 0]
                      for s in range(n)])
        b = np.array([N.sample_block(N.NoiseStream(7, s, g), 1)[0][0, 0]
                      for s in range(n, 2 * n)])
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 4 / math.sqrt(n)

    def test_cross_cell_and_cross_step_correlation(self):
        block, _ = N.sample_block(stream(), GRID.n_steps)
        n = block.shape[0]
        r_cell = np.corrcoef(block[:, 0], block[:, 1])[0, 1]
        r_step = np.corrcoef(block[:-1, 0], block[1:, 0])[0, 1]
        assert abs(r_cell) < 4 / math.sqrt(n)
        assert abs(r_step) < 4 / math.sqrt(n)

    def test_quadratic_variation(self):
        g = N.GridSpec(n_interior=256, dt=1e-3, horizon=1.0)
        s = N.NoiseStream(99, 0, g)
        block, _ = N.sample_block(s, 1000)
        qv = np.sum(block ** 2, axis=1)
        expected = g.n_interior * g.dt * g.dx
        assert abs(qv.mean() / expected - 1.0) < 0.05


def modes(strm, step=0):
    """Sine-mode increments: the orthonormal sine transform of the cell block."""
    block, _ = N.sample_block(strm, step + 1)
    return sine_transform(block[step]) / math.sqrt(strm.grid.dx)


class TestSpectral:
    def test_transform_is_projection_on_sines(self):
        # mode m equals sqrt(2) * sum_j sin(m pi x_j) dW_j
        dw = sample_increments(stream(), 0)
        xj = GRID.x
        got = modes(stream())
        for m in (1, 3, 7):
            manual = math.sqrt(2.0) * np.sum(np.sin(m * math.pi * xj) * dw)
            assert got[m - 1] == pytest.approx(manual, rel=1e-12, abs=1e-15)

    def test_mode_variance(self):
        n = 100_000
        g = N.GridSpec(n_interior=8, dt=1e-3, horizon=1e-3)
        vals = np.array([modes(N.NoiseStream(5, s, g))[2] for s in range(n)])
        assert abs(vals.var() / g.dt - 1.0) < 0.05

    def test_modes_uncorrelated(self):
        n = 100_000
        g = N.GridSpec(n_interior=8, dt=1e-3, horizon=1e-3)
        pairs = np.array([modes(N.NoiseStream(5, s, g))[[0, 3]] for s in range(n)])
        rho = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(rho) < 4 / math.sqrt(n)
