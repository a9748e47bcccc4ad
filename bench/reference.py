"""Independent references for the benchmark's output checks, in plain numpy.

Nothing here imports sheatlab: each formula is written out again from the
equation, so a fault in the package cannot hide in its own yardstick.

* ``scheme_second_moment``: the exact second moment E[u_j^2] of the discrete
  schemes for linear sigma(u) = k u. One step is u' = P (u + lam k u * xi)
  with independent xi_j ~ Normal(0, dt/dx), so the covariance obeys

      C <- P (C + lam^2 k^2 (dt/dx) diag C) P^T

  with P = (I - nu dt L)^{-1} (semi-implicit; L the Dirichlet second
  difference) or P = S diag(exp(-nu n^2 pi^2 dt)) S (spectral exponential
  Euler; S the orthonormal DST-I matrix).
* ``dirichlet_kernel``: the Dirichlet heat kernel summed directly as its
  eigenfunction series.
"""

import math

import numpy as np

SCHEMES = ("semi_implicit", "spectral")


def grid_x(n_interior):
    """Interior nodes j/(n+1), j = 1..n."""
    return np.arange(1, n_interior + 1) / (n_interior + 1.0)


def dst_matrix(n):
    """Orthonormal DST-I matrix; symmetric and its own inverse."""
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * math.pi / (n + 1))


def bump(x, gamma):
    """Standard mollifier on [gamma, 1 - gamma] with peak 1 at x = 1/2."""
    s = (2.0 * np.asarray(x, dtype=float) - 1.0) / (1.0 - 2.0 * gamma)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def step_matrix(scheme, n_interior, dt, nu):
    """The deterministic part P of one step, as a dense symmetric matrix."""
    dx = 1.0 / (n_interior + 1)
    if scheme == "semi_implicit":
        lap = (np.diag(np.full(n_interior, -2.0))
               + np.diag(np.ones(n_interior - 1), 1)
               + np.diag(np.ones(n_interior - 1), -1)) / dx ** 2
        return np.linalg.inv(np.eye(n_interior) - nu * dt * lap)
    if scheme == "spectral":
        s = dst_matrix(n_interior)
        decay = np.exp(-nu * (np.arange(1, n_interior + 1) * math.pi) ** 2 * dt)
        return (s * decay) @ s
    raise ValueError(f"unknown scheme {scheme!r}")


def scheme_second_moment(scheme, u0, dt, lam, steps, nu=0.5, k=1.0):
    """Exact E[u_j^2] of the scheme after each step count in ``steps``.

    u0 holds the initial values at the interior nodes. Returns
    {step: array of E[u_j^2]}; step 0 is allowed.
    """
    u0 = np.asarray(u0, dtype=float)
    n = u0.size
    p = step_matrix(scheme, n, dt, nu)
    noise = (lam * k) ** 2 * dt * (n + 1)          # lam^2 k^2 dt/dx
    wanted = sorted(set(int(s) for s in steps))
    cov = np.outer(u0, u0)
    out = {}
    if wanted and wanted[0] == 0:
        out[0] = np.diag(cov).copy()
    for step in range(1, wanted[-1] + 1):
        cov[np.diag_indices(n)] *= 1.0 + noise
        cov = p @ cov @ p
        if step in wanted:
            out[step] = np.diag(cov).copy()
    return out


def dirichlet_kernel(t, x, y, nu=0.5, n_terms=None):
    """g_D(t,x,y) = 2 sum_n exp(-nu n^2 pi^2 t) sin(n pi x) sin(n pi y).

    The default term count leaves a tail below exp(-40) of the leading
    term's scale.
    """
    if n_terms is None:
        n_terms = int(math.ceil(math.sqrt(40.0 / (nu * math.pi ** 2 * t)))) + 2
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    n = np.arange(1, n_terms + 1)[:, None]
    decay = np.exp(-nu * (n * math.pi) ** 2 * t)
    terms = decay * np.sin(n * math.pi * x.ravel()) * np.sin(n * math.pi * y.ravel())
    return (2.0 * terms.sum(axis=0)).reshape(x.shape)
