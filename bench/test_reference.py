"""Tests of the benchmark's references and tracer.

    python3 -m pytest bench -q

The references are checked against closed forms at lambda = 0 and, for the
noise term, against a brute-force Monte Carlo on a three-node grid.
"""

import math
import sys
import time
import types

import numpy as np

import reference as ref
import tracer


def _sine_mode_moment(factor, n, steps):
    x = ref.grid_x(n)
    return {s: (np.sin(math.pi * x) * factor ** s) ** 2 for s in steps}


def test_semi_implicit_moment_at_lambda_zero():
    n, dt, nu = 31, 1e-3, 0.5
    dx = 1.0 / (n + 1)
    u0 = np.sin(math.pi * ref.grid_x(n))
    got = ref.scheme_second_moment("semi_implicit", u0, dt, 0.0, [0, 1, 50], nu=nu)
    # the discrete Laplacian's first eigenvalue is -(4/dx^2) sin^2(pi dx/2)
    factor = 1.0 / (1.0 + nu * dt * 4.0 / dx ** 2 * math.sin(math.pi * dx / 2) ** 2)
    want = _sine_mode_moment(factor, n, [0, 1, 50])
    for s in want:
        np.testing.assert_allclose(got[s], want[s], rtol=1e-12, atol=1e-15)


def test_spectral_moment_at_lambda_zero():
    n, dt, nu = 31, 1e-3, 0.5
    u0 = np.sin(math.pi * ref.grid_x(n))
    got = ref.scheme_second_moment("spectral", u0, dt, 0.0, [1, 50], nu=nu)
    want = _sine_mode_moment(math.exp(-nu * math.pi ** 2 * dt), n, [1, 50])
    for s in want:
        np.testing.assert_allclose(got[s], want[s], rtol=1e-12, atol=1e-15)


def test_moment_noise_term_against_brute_force():
    n, dt, lam, steps = 3, 0.05, 1.5, 6
    u0 = np.array([0.5, 1.0, 0.25])
    exact = ref.scheme_second_moment("semi_implicit", u0, dt, lam, [steps])[steps]
    p = ref.step_matrix("semi_implicit", n, dt, 0.5)
    rng = np.random.default_rng(7)
    u = np.tile(u0, (200_000, 1))
    for _ in range(steps):
        xi = rng.standard_normal(u.shape) * math.sqrt(dt * (n + 1))
        u = (u * (1.0 + lam * xi)) @ p
    mc = np.mean(u ** 2, axis=0)
    se = np.std(u ** 2, axis=0) / math.sqrt(u.shape[0])
    assert np.all(np.abs(mc - exact) < 5 * se)


def test_dirichlet_kernel_propagates_the_first_mode():
    t, nu, m = 0.05, 0.5, 4000
    y = (np.arange(m) + 0.5) / m
    x = np.array([0.1, 0.5, 0.8])
    g = ref.dirichlet_kernel(t, x[:, None], y[None, :], nu=nu)
    got = g @ np.sin(math.pi * y) / m
    want = math.exp(-nu * math.pi ** 2 * t) * np.sin(math.pi * x)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_dirichlet_kernel_matches_images_at_small_time():
    t, nu = 1e-3, 0.5
    x, y = np.array([0.3, 0.5, 0.52]), np.array([0.31, 0.5, 0.6])
    free = lambda d: np.exp(-d ** 2 / (4 * nu * t)) / math.sqrt(4 * math.pi * nu * t)
    images = sum(free(x - y + 2 * k) - free(x + y + 2 * k) for k in range(-3, 4))
    np.testing.assert_allclose(ref.dirichlet_kernel(t, x, y, nu=nu), images, rtol=1e-12)


def test_tracer_self_time_and_absent_layers(monkeypatch):
    fake = types.ModuleType("sheatlab.benchfake")

    def inner():
        time.sleep(0.02)

    def outer():
        fake.inner()                  # resolved through the module, as callers do
        time.sleep(0.01)

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "sheatlab.benchfake", fake)
    tr = tracer.Tracer().install([("kernel", "sheatlab.benchfake:inner", None),
                                  ("oracle", "sheatlab.benchfake:outer", None),
                                  ("noise", "sheatlab.benchfake:gone", None)])
    try:
        fake.outer()
    finally:
        tr.uninstall()
    assert fake.inner is inner and fake.outer is outer
    assert [s.name for s in tr.spans] == ["oracle.outer", "kernel.inner"]
    assert tr.spans[1].parent == 0 and tr.spans[0].parent == -1
    m = tr.metrics()
    assert 0.009 < m["oracle.self_s"][0] < 0.015
    assert 0.019 < m["kernel.self_s"][0] < 0.03
    assert tr.missing == ["sheatlab.benchfake:gone"]
    assert "noise" in tr.absent_layers() and "kernel" not in tr.absent_layers()
