"""The benchmark's own random process, its samples and its error arithmetic.

Everything here is independent of fdrecon: the truth the checks compare
against, the integrated squared error and the two-pass variance are
computed by the benchmark itself.
"""

from __future__ import annotations

import numpy as np

GRID_SIZE = 51
# Eigenvalues and orthonormal eigenfunctions (on [0, 1]) of the process.
EIGENVALUES = (1.0, 0.5, 0.1)


def grid_points(size: int = GRID_SIZE) -> np.ndarray:
    return np.linspace(0.0, 1.0, size)


def mean_function(u):
    u = np.asarray(u, dtype=float)
    return 1.0 + 0.5 * u + 0.5 * np.sin(2.0 * np.pi * u)


def eigenfunctions(u, rank: int = len(EIGENVALUES)) -> np.ndarray:
    """Shape (len(u), rank): the shifted Legendre polynomials of degree 0, 1, 2."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    cols = [np.ones_like(u), np.sqrt(3.0) * (2.0 * u - 1.0), np.sqrt(5.0) * (6.0 * u * u - 6.0 * u + 1.0)]
    return np.stack(cols[:rank], axis=1)


def covariance_function(rank: int = len(EIGENVALUES)):
    """gamma(u, v) = sum_k lambda_k phi_k(u) phi_k(v), broadcasting over u and v."""
    lam = np.array(EIGENVALUES[:rank])

    def gamma(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        pu = eigenfunctions(u.ravel(), rank)
        pv = eigenfunctions(v.ravel(), rank)
        return ((pu * lam) * pv).sum(axis=1).reshape(u.shape)

    return gamma


def draw_scores(rng: np.random.Generator, n: int, rank: int = len(EIGENVALUES)) -> np.ndarray:
    return rng.standard_normal((n, rank)) * np.sqrt(np.array(EIGENVALUES[:rank]))


def curve_values(u, scores: np.ndarray) -> np.ndarray:
    """Values of one curve with the given scores at the points u."""
    return mean_function(u) + eigenfunctions(u, scores.size) @ scores


def dense_sample(seed: int, n: int = 50, m: int = 60, noise_sd: float = 0.05):
    """Half complete curves, half observed on [a, b] with 0.11 < a < 0.25 or 0.75 < b < 0.89.

    Every second curve is partial by the CLI's 10% completeness margin, so
    each sample has the same number of curves to reconstruct. Returns
    (rows, intervals, truth): rows of (curve_id, u, y), each curve's
    observed interval and its values on the grid.
    """
    rng = np.random.default_rng([seed, 1])
    scores = draw_scores(rng, n)
    grid = grid_points()
    rows, intervals, truth = [], {}, {}
    for i in range(n):
        cid = f"c{i:03d}"
        a, b = 0.0, 1.0
        if i % 2:
            side = rng.integers(3)  # missing at the start, the end or both
            if side != 1:
                a = rng.uniform(0.11, 0.25)
            if side != 0:
                b = rng.uniform(0.75, 0.89)
        u = np.sort(rng.uniform(a, b, m))
        if i % 2 == 0:
            u[0], u[-1] = 0.0, 1.0
        y = curve_values(u, scores[i]) + noise_sd * rng.standard_normal(m)
        rows.extend((cid, float(x), float(z)) for x, z in zip(u, y))
        intervals[cid] = (float(u[0]), float(u[-1]))
        truth[cid] = curve_values(grid, scores[i])
    return rows, intervals, truth


def fragment_sample(seed: int, n: int = 1000, m: int = 15, length: float = 0.4,
                    noise_sd: float = 0.05):
    """n fragments [a, a + length] with m noisy points each; none is complete.

    Returns a list of (curve_id, u, y) and the grid truth, shape (n, GRID_SIZE).
    """
    rng = np.random.default_rng([seed, 2])
    scores = draw_scores(rng, n)
    grid = grid_points()
    fragments, truth = [], np.empty((n, grid.size))
    for i in range(n):
        a = rng.uniform(0.0, 1.0 - length)
        u = np.sort(rng.uniform(a, a + length, m))
        y = curve_values(u, scores[i]) + noise_sd * rng.standard_normal(m)
        fragments.append((f"f{i:04d}", u, y))
        truth[i] = curve_values(grid, scores[i])
    return fragments, truth


def trapezoid(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Trapezoid rule over the last axis."""
    values = np.asarray(values, dtype=float)
    du = np.diff(u)
    return 0.5 * ((values[..., 1:] + values[..., :-1]) * du).sum(axis=-1)


def ise(estimate, truth, u: np.ndarray) -> np.ndarray:
    """Integrated squared error over the last axis."""
    return trapezoid((np.asarray(estimate) - np.asarray(truth)) ** 2, u)


def two_pass_moments(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population variance over axis 0, variance from centred values."""
    samples = np.asarray(samples, dtype=float)
    mean = samples.sum(axis=0) / samples.shape[0]
    centred = samples - mean
    return mean, (centred * centred).sum(axis=0) / samples.shape[0]
