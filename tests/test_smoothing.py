"""Tests for the kernel, local-linear estimators and the noise-variance estimate."""

import numpy as np
import pytest
from scipy.integrate import quad

from fdrecon import (
    Bandwidths,
    Curve,
    InsufficientLocalDataError,
    MeanEstimate,
    NotEstimableError,
    build_dataset,
    epanechnikov,
    estimate_noise_variance,
    llk_covariance,
    llk_curve,
    llk_mean,
)
from fdrecon.core import DomainGrid


class TestEpanechnikov:
    def test_center(self):
        assert epanechnikov(0.0) == 0.75

    def test_compact_support(self):
        assert epanechnikov(1.0) == 0.0
        assert epanechnikov(-1.2) == 0.0

    def test_kernel_constants_by_quadrature(self):
        # Second moment and roughness of the kernel via numeric integration.
        nu2, _ = quad(lambda v: v * v * epanechnikov(v), -1, 1)
        rough, _ = quad(lambda v: epanechnikov(v) ** 2, -1, 1)
        assert nu2 == pytest.approx(0.2, abs=1e-10)
        assert rough == pytest.approx(0.6, abs=1e-10)

    def test_vectorized(self):
        out = epanechnikov(np.array([-2.0, 0.0, 0.5, 2.0]))
        assert out.tolist() == [0.0, 0.75, 0.75 * 0.75, 0.0]


class TestLlkCurve:
    def test_constant_data(self):
        u = np.linspace(0, 1, 12)
        c = Curve("a", u, np.full(12, 3.25))
        got = llk_curve(c, np.array([0.2, 0.5, 0.9]), 0.3)
        assert np.allclose(got, 3.25, atol=1e-12)

    def test_affine_exactness(self):
        rng = np.random.default_rng(1)
        u = np.sort(rng.uniform(0, 1, 25))
        c = Curve("a", u, 3.0 * u - 1.0)
        targets = np.linspace(u[0], u[-1], 11)
        got = llk_curve(c, targets, 0.2)
        assert np.max(np.abs(got - (3.0 * targets - 1.0))) < 1e-9

    def test_matches_normal_equation_oracle(self):
        # Brute-force weighted least squares on a 5-point fixture with a
        # bandwidth covering every point.
        u = np.array([0.1, 0.3, 0.45, 0.7, 0.9])
        y = np.array([1.0, -0.5, 2.0, 0.3, 1.7])
        c = Curve("a", u, y)
        at = 0.5
        h = 2.0
        w = epanechnikov((u - at) / h)
        X = np.stack([np.ones(5), u - at], axis=1)
        beta = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
        assert llk_curve(c, at, h) == pytest.approx(beta[0], abs=1e-12)

    def test_insufficient_data_error(self):
        c = Curve("a", np.array([0.1, 0.9]), np.array([1.0, 2.0]))
        with pytest.raises(InsufficientLocalDataError) as err:
            llk_curve(c, 0.5, 0.05)
        assert err.value.effective_count == 0

    def test_out_of_window_points_do_not_matter(self):
        u = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
        y1 = np.array([1.0, 2.0, 1.5, 0.0, 0.0])
        y2 = np.array([1.0, 2.0, 1.5, 99.0, -99.0])
        c1, c2 = Curve("a", u, y1), Curve("a", u, y2)
        assert llk_curve(c1, 0.2, 0.15) == llk_curve(c2, 0.2, 0.15)


class TestLlkMean:
    def _dataset(self, fn, n=30, m=40, seed=0, noise=0.0):
        rng = np.random.default_rng(seed)
        curves = []
        for i in range(n):
            u = np.sort(rng.uniform(0, 1, m))
            curves.append(Curve(f"c{i}", u, fn(u) + noise * rng.normal(size=m)))
        return build_dataset(curves, domain=(0, 1))

    def test_constant_curves(self):
        ds = self._dataset(lambda u: np.full_like(u, 2.5))
        est = llk_mean(ds, ds.grid, 0.1)
        assert np.allclose(est.values, 2.5, atol=1e-10)

    def test_sine_target_within_bias_bound(self):
        # Oracle: the analytic target; the dense equally spaced design leaves
        # only the O(h^2) smoothing bias, whose bound at h=0.05 is 0.00987.
        curves = [
            Curve(f"c{i}", np.linspace(0, 1, 301), np.sin(2 * np.pi * np.linspace(0, 1, 301)))
            for i in range(20)
        ]
        ds = build_dataset(curves, domain=(0, 1))
        est = llk_mean(ds, ds.grid, 0.05)
        assert np.max(np.abs(est.values - np.sin(2 * np.pi * ds.grid.points))) < 1e-2

    def test_single_curve_equals_curve_smoother(self):
        rng = np.random.default_rng(3)
        u = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 58)), [1.0]])
        c = Curve("only", u, np.sin(3 * u) + 0.1 * rng.normal(size=60))
        ds = build_dataset([c], domain=(0, 1))
        est = llk_mean(ds, ds.grid, 0.15)
        direct = llk_curve(c, ds.grid.points, 0.15)
        assert np.allclose(est.values, direct, atol=1e-12)

    def test_not_estimable_error(self):
        c = Curve("a", np.array([0.4, 0.45, 0.5]), np.zeros(3))
        ds = build_dataset([c], domain=(0, 1))
        with pytest.raises(NotEstimableError, match="mean not estimable"):
            llk_mean(ds, ds.grid, 0.05)

    def test_affine_exactness(self):
        ds = self._dataset(lambda u: 2.0 - 4.0 * u, n=10, m=30, seed=4)
        est = llk_mean(ds, ds.grid, 0.2)
        assert np.max(np.abs(est.values - (2.0 - 4.0 * ds.grid.points))) < 1e-9


class TestLlkCovariance:
    def test_constant_curves_variance(self):
        # Curves X_i = z_i have covariance Var(z) = 1 everywhere.
        rng = np.random.default_rng(7)
        n = 400
        curves = []
        for i in range(n):
            u = np.sort(rng.uniform(0, 1, 12))
            curves.append(Curve(f"c{i}", u, np.full(12, rng.normal())))
        ds = build_dataset(curves, domain=(0, 1), grid_size=21)
        mean = llk_mean(ds, ds.grid, 0.2)
        cov = llk_covariance(ds, mean, ds.grid, 0.2)
        g = ds.grid.points
        interior = (g >= 0.1) & (g <= 0.9)
        core = cov.surface[np.ix_(interior, interior)]
        assert np.max(np.abs(core[np.isfinite(core)] - 1.0)) < 3.0 / np.sqrt(n)
        # boundary cells average fewer effective curves under one-sided
        # kernel windows; allow four times the interior budget there
        assert np.nanmax(np.abs(cov.surface[cov.mask] - 1.0)) < 12.0 / np.sqrt(n)

    def test_identical_curves_zero_covariance(self):
        rng = np.random.default_rng(9)
        curves = []
        for i in range(25):
            u = np.sort(rng.uniform(0, 1, 20))
            curves.append(Curve(f"c{i}", u, np.sin(2 * np.pi * u)))
        ds = build_dataset(curves, domain=(0, 1), grid_size=21)
        mean = llk_mean(ds, ds.grid, 0.1)
        cov = llk_covariance(ds, mean, ds.grid, 0.15)
        assert np.nanmax(np.abs(cov.surface)) < 0.01

    def test_mask_from_fragment_geometry(self):
        # Fragments no wider than 0.55 leave the far corner without pairs;
        # oracle = direct pair counting inside the kernel windows.
        rng = np.random.default_rng(11)
        curves = []
        for i in range(40):
            a = rng.uniform(0, 0.45)
            b = min(a + 0.55, 1.0)
            u = np.sort(rng.uniform(a, b, 12))
            curves.append(Curve(f"c{i}", u, rng.normal(size=12)))
        ds = build_dataset(curves, domain=(0, 1), grid_size=21)
        mean = llk_mean(ds, ds.grid, 0.15)
        h = 0.05
        cov = llk_covariance(ds, mean, ds.grid, h, min_pairs=5)
        g = ds.grid.points
        r = int(np.argmin(np.abs(g - 0.05)))
        s = int(np.argmin(np.abs(g - 0.95)))
        assert not cov.mask[r, s]
        u1 = np.concatenate([np.repeat(c.u, c.n_obs) for c in curves])
        u2 = np.concatenate([np.tile(c.u, c.n_obs) for c in curves])
        count = np.sum((np.abs(u1 - g[r]) < h) & (np.abs(u2 - g[s]) < h))
        assert count < 5

    def test_surface_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        curves = []
        for i in range(30):
            u = np.sort(rng.uniform(0, 1, 15))
            z = rng.normal(size=2)
            curves.append(Curve(f"c{i}", u, z[0] + z[1] * u))
        ds = build_dataset(curves, domain=(0, 1), grid_size=31)
        mean = llk_mean(ds, ds.grid, 0.1)
        cov = llk_covariance(ds, mean, ds.grid, 0.1)
        m = cov.mask
        assert np.array_equal(m, m.T)
        assert np.array_equal(cov.surface[m], cov.surface.T[m])

    def test_mask_monotone_in_bandwidth(self):
        rng = np.random.default_rng(17)
        curves = []
        for i in range(15):
            a = rng.uniform(0, 0.4)
            u = np.sort(rng.uniform(a, a + 0.5, 10))
            curves.append(Curve(f"c{i}", u, rng.normal(size=10)))
        ds = build_dataset(curves, domain=(0, 1), grid_size=21)
        mean = llk_mean(ds, ds.grid, 0.2)
        small = llk_covariance(ds, mean, ds.grid, 0.08, min_pairs=5)
        large = llk_covariance(ds, mean, ds.grid, 0.16, min_pairs=5)
        assert not np.any(small.mask & ~large.mask)


class TestNoiseVariance:
    def _fit(self, sigma, n=80, m=30, seed=21, rank_weights=(1.0, 0.5)):
        rng = np.random.default_rng(seed)
        phi1 = lambda u: np.sqrt(2) * np.sin(np.pi * u)
        phi2 = lambda u: np.sqrt(2) * np.cos(np.pi * u)
        curves = []
        for i in range(n):
            u = np.sort(rng.uniform(0, 1, m))
            x = rank_weights[0] * rng.normal() * phi1(u) + rank_weights[1] * rng.normal() * phi2(u)
            curves.append(Curve(f"c{i}", u, x + sigma * rng.normal(size=m)))
        ds = build_dataset(curves, domain=(0, 1))
        mean = llk_mean(ds, ds.grid, 0.08)
        cov = llk_covariance(ds, mean, ds.grid, 0.08)
        return estimate_noise_variance(ds, mean, cov), cov

    def test_noiseless_finite_rank(self):
        nv, cov = self._fit(0.0)
        assert nv.sigma2 < 0.05 * np.nanmax(cov.surface)

    def test_recovers_moderate_noise(self):
        nv, _ = self._fit(0.3)
        assert 0.5 * 0.09 < nv.sigma2 < 2.0 * 0.09

    def test_dgp1_benchmark_noise(self):
        # Generator configuration with noise variance 0.0125 at n=100, m=30;
        # the estimate must land within a factor of two.
        from fdrecon.simulation import DgpConfig, generate_dgp
        from fdrecon.reconstruct import fit_reconstruction_model

        cfg = DgpConfig(dgp=1, n=100, m=30, seed=5, replications=1)
        ds, _ = generate_dgp(cfg, 0)
        model = fit_reconstruction_model(ds)
        assert 0.5 * 0.0125 < model.sigma2.sigma2 < 2.0 * 0.0125

    def test_dgp2_benchmark_noise(self):
        from fdrecon.simulation import DgpConfig, generate_dgp
        from fdrecon.reconstruct import fit_reconstruction_model

        cfg = DgpConfig(dgp=2, n=100, m=30, seed=5, replications=1)
        ds, _ = generate_dgp(cfg, 0)
        model = fit_reconstruction_model(ds)
        assert 0.5 * 0.125 < model.sigma2.sigma2 < 2.0 * 0.125


class TestBandwidths:
    def test_positive_validation(self):
        from fdrecon.errors import UsageError

        with pytest.raises(UsageError):
            Bandwidths(0.0, 0.1, 0.1)

    def test_rule_of_thumb_rates(self):
        rng = np.random.default_rng(2)
        def make(n, m):
            curves = [
                Curve(f"c{i}", np.sort(rng.uniform(0, 1, m)), rng.normal(size=m))
                for i in range(n)
            ]
            return build_dataset(curves, domain=(0, 1))

        small = Bandwidths.rule_of_thumb(make(20, 10))
        big = Bandwidths.rule_of_thumb(make(80, 40))
        assert big.h_x < small.h_x
        assert big.h_mu < small.h_mu
        assert big.h_gamma < small.h_gamma


def _raw_pairs_oracle(ds, mean):
    """Every ordered within-curve pair j != l as (u_j, u_l, centred product)."""
    u1, u2, c = [], [], []
    for curve in ds.curves:
        r = curve.y - mean.at(curve.u)
        for j in range(curve.n_obs):
            for k in range(curve.n_obs):
                if j != k:
                    u1.append(curve.u[j])
                    u2.append(curve.u[k])
                    c.append(r[j] * r[k])
    return np.array(u1), np.array(u2), np.array(c)


def _covariance_oracle(ds, mean, h, min_pairs):
    """Cell-by-cell 3x3 weighted normal equations over all raw pairs.

    Returns (surface, mask, counts, n_fallback) by the rules llk_covariance
    documents: a pair enters a cell when both coordinates lie strictly
    inside the kernel windows, the cell needs min_pairs pairs of positive
    weight in both coordinates, a singular design takes the local-constant
    value, and the surface is symmetrized.
    """
    u1, u2, c = _raw_pairs_oracle(ds, mean)
    g = ds.grid.points
    L = g.size
    surface = np.full((L, L), np.nan)
    counts = np.zeros((L, L), dtype=int)
    n_fallback = 0
    for r in range(L):
        for q in range(L):
            d1, d2 = (u1 - g[r]) / h, (u2 - g[q]) / h
            inside = (u1 > g[r] - h) & (u1 < g[r] + h) & (u2 > g[q] - h) & (u2 < g[q] + h)
            k1, k2 = epanechnikov(d1) * inside, epanechnikov(d2) * inside
            w = k1 * k2
            counts[r, q] = np.count_nonzero((k1 > 0) & (k2 > 0))
            if counts[r, q] < min_pairs:
                continue
            X = np.stack([np.ones_like(d1), d1, d2], axis=1)
            A = X.T @ (w[:, None] * X)
            b = X.T @ (w * c)
            if abs(np.linalg.det(A)) > 1e-10 * A[0, 0] ** 3:
                surface[r, q] = np.linalg.solve(A, b)[0]
            else:
                surface[r, q] = b[0] / A[0, 0]
                n_fallback += 1
    mask = (counts >= min_pairs) & (counts >= min_pairs).T
    surface = 0.5 * (surface + surface.T)
    surface[~mask] = np.nan
    return surface, mask, counts, n_fallback


def _covariance_ten_passes(ds, mean, grid, h, min_pairs):
    """llk_covariance with one prefix-sum pass per moment: ten passes, the reference.

    Returns (surface, mask, n_fallback).
    """
    from scipy import sparse

    from fdrecon.smoothing import _kernel_weights

    sizes = np.array([c.n_obs for c in ds.curves])
    u = ds.pooled_u()
    resid = ds.pooled_y() - mean.at(u)
    L, N = grid.size, u.size
    curve = np.repeat(np.arange(sizes.size), sizes)
    slot = np.arange(N) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rows, cols, d, w = _kernel_weights(u, grid.points, h)
    Wa = sparse.csr_array((w, cols, np.searchsorted(rows, np.arange(L + 1))), shape=(L, N))

    def moment(a, b):
        padded = np.zeros((sizes.size, sizes.max() + 2, L))
        padded[curve[cols], slot[cols] + 1, rows] = b
        others = np.cumsum(padded, axis=1)[curve, slot]
        others += np.cumsum(padded[:, ::-1], axis=1)[:, ::-1][curve, slot + 2]
        Wa.data = a
        return Wa @ others

    positive = (w > 0).astype(float)
    mask = np.rint(moment(positive, positive)).astype(np.int64) >= int(min_pairs)
    left, right, r = (1.0, d, 1.0), (1.0, 1.0, d), resid[cols]
    A = np.empty((L, L, 3, 3))
    b = np.empty((L, L, 3))
    for i in range(3):
        b[..., i] = moment(w * left[i] * r, w * right[i] * r)
        for j in range(i, 3):
            A[..., i, j] = A[..., j, i] = moment(w * left[i] * left[j], w * right[i] * right[j])
    s00, t00 = A[..., 0, 0], b[..., 0]
    surface = np.full((L, L), np.nan)
    solvable = mask & (np.abs(np.linalg.det(A)) > 1e-10 * np.maximum(s00, 1e-300) ** 3)
    surface[solvable] = np.linalg.solve(A[solvable], b[solvable][..., None])[..., 0, 0]
    fallback = mask & ~solvable
    surface[fallback] = t00[fallback] / s00[fallback]
    mask &= mask.T
    with np.errstate(invalid="ignore"):
        surface = 0.5 * (surface + surface.T)
    surface[~mask] = np.nan
    return surface, mask, int(fallback.sum())


def _bare_curve(cid, u, y):
    """A curve without Curve's check, which asks for two distinct abscissae.

    The covariance smoother takes any number of observations per curve; a
    curve of one pairs with nothing.
    """
    curve = object.__new__(Curve)
    for name, value in (("id", cid), ("u", u), ("y", y)):
        object.__setattr__(curve, name, value)
    return curve


def _ten_pass_sample(source):
    """(dataset, mean bandwidth or None for the rule of thumb) of the ten-pass comparison."""
    from fdrecon import DgpConfig, generate_dgp

    rng = np.random.default_rng(38)
    if source.startswith("dgp"):
        dgp = int(source[-1])
        cfg = DgpConfig(dgp=dgp, n=50, m=15 if dgp in (1, 2) else None, seed=dgp, replications=1)
        return generate_dgp(cfg, 0)[0], None
    if source in ("dense", "fragments"):
        curves = []
        for i in range(40):
            a = rng.uniform(0, 0.6) if source == "fragments" else rng.uniform(0, 0.25) * (i % 2)
            b = a + 0.4 if source == "fragments" else 1.0 - rng.uniform(0, 0.25) * (i % 2)
            u = np.sort(rng.uniform(a, b, 15 if source == "fragments" else 60))
            curves.append(Curve(f"c{i}", u, np.sin(3 * u) * rng.normal() + 0.05 * rng.normal(size=u.size)))
        return build_dataset(curves), None
    grid_size = 51
    if source.startswith("grid"):
        grid_size, lengths = int(source[4:]), rng.integers(2, 21, 30)
    elif source == "single":
        lengths = np.where(np.arange(45) % 3 == 0, 1, rng.integers(2, 16, 45))
    elif source == "mixed":
        lengths = np.concatenate([[1, 200], rng.integers(1, 201, 38)])
    else:  # the benchmark's scale: 1,000 fragments of 15 points
        lengths = np.full(1000, 15)
    curves = []
    for i, m in enumerate(lengths):
        a = rng.uniform(0, 0.6)
        u = np.sort(rng.uniform(a, a + 0.4, m))
        y = np.sin(3 * u) * rng.normal() + 0.05 * rng.normal(size=m)
        curves.append(Curve(f"c{i}", u, y) if m > 1 else _bare_curve(f"c{i}", u, y))
    return build_dataset(curves, domain=(0.0, 1.0), grid_size=grid_size), 0.3


def _noise_pairs_oracle(ds, mean, h_t):
    """All within-curve pairs closer than h_t as (midpoint, gap, half squared difference)."""
    s, t, d = [], [], []
    for curve in ds.curves:
        r = curve.y - mean.at(curve.u)
        for j in range(curve.n_obs):
            for k in range(j + 1, curve.n_obs):
                gap = curve.u[k] - curve.u[j]
                if gap < h_t:
                    s.append(0.5 * (curve.u[k] + curve.u[j]))
                    t.append(gap)
                    d.append(0.5 * (r[k] - r[j]) ** 2)
    return np.array(s), np.array(t), np.array(d)


def _noise_fit_oracle(s, t, d, target, h_s, h_t):
    """One target's noise fit solved directly; (value or None, number of columns)."""
    window = (s > target - h_s) & (s < target + h_s)
    ds_ = (s[window] - target) / h_s
    w = epanechnikov(ds_) * epanechnikov(t[window] / h_t)
    pos = w > 0
    if window.sum() < 5 or pos.sum() < 5:
        return None, 0
    tq = (t[window] / h_t) ** 2
    cols = [np.ones(ds_.size), ds_] + ([tq] if np.ptp(tq[pos]) > 1e-8 else [])
    X = np.stack(cols, axis=1)
    A = X.T @ (w[:, None] * X)
    b = X.T @ (w * d[window])
    try:
        return float(np.linalg.solve(A, b)[0]), len(cols)
    except np.linalg.LinAlgError:
        return float(b[0] / A[0, 0]), len(cols)


def _difference_pairs_by_curve(ds, mean, h_t):
    """Close pairs one curve at a time, lag by lag: the pair order of ``_difference_pairs``."""
    s, t, d = [], [], []
    for c in ds.curves:
        r = c.y - mean.at(c.u)
        for lag in range(1, c.n_obs):
            gaps = c.u[lag:] - c.u[:-lag]
            keep = gaps < h_t
            if not np.any(keep):
                break
            s.append(0.5 * (c.u[lag:] + c.u[:-lag])[keep])
            t.append(gaps[keep])
            d.append(0.5 * (r[lag:] - r[:-lag])[keep] ** 2)
    return tuple(np.concatenate(v) if v else np.array([]) for v in (s, t, d))


class TestDifferencePairs:
    def test_vectorized_pairs_equal_the_per_curve_loop(self):
        from fdrecon.smoothing import _difference_pairs

        rng = np.random.default_rng(53)
        curves = []
        for i in range(25):
            a = rng.uniform(0, 0.6)
            m = int(rng.integers(2, 20))
            curves.append(Curve(f"f{i}", np.sort(rng.uniform(a, a + 0.4, m)), rng.normal(size=m)))
        lattice = np.linspace(0, 1, 11)
        curves += [Curve(f"l{i}", lattice, rng.normal(size=11)) for i in range(5)]
        ds = build_dataset(curves, domain=(0, 1), grid_size=21)
        mean = llk_mean(ds, ds.grid, 0.3)
        for h_t in (0.005, 0.05, 0.12, 2.0):
            got = _difference_pairs(ds, mean, h_t)
            want = _difference_pairs_by_curve(ds, mean, h_t)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            pairs = _noise_pairs_oracle(ds, mean, h_t)
            assert got[0].size == pairs[0].size
            np.testing.assert_allclose(np.sort(got[2]), np.sort(pairs[2]), rtol=1e-15, atol=0)

    def test_no_close_pair(self):
        from fdrecon.smoothing import _difference_pairs

        ds = build_dataset([Curve("a", np.array([0.0, 0.5, 1.0]), np.zeros(3))], domain=(0, 1))
        got = _difference_pairs(ds, llk_mean(ds, ds.grid, 0.6), 0.1)
        assert [v.size for v in got] == [0, 0, 0]


class TestBruteForceOracles:
    """The windowed estimators against direct solves over all raw pairs."""

    def _assert_covariance_matches(self, ds, mean, h):
        for min_pairs in (1, 3, 5, 8):
            cov = llk_covariance(ds, mean, ds.grid, h, min_pairs=min_pairs)
            surface, mask, counts, n_fallback = _covariance_oracle(ds, mean, h, min_pairs)
            assert np.array_equal(cov.mask, mask)
            assert cov.diagnostics["n_fallback"] == n_fallback
            assert cov.diagnostics["n_pairs"] == sum(c.n_obs * (c.n_obs - 1) for c in ds.curves)
            scale = np.max(np.abs(surface[mask]))
            np.testing.assert_allclose(cov.surface[mask], surface[mask], rtol=1e-12, atol=1e-12 * scale)
        return counts, n_fallback

    def test_covariance_random_fragments(self):
        # Fragments leave cells below min_pairs in the far corners.
        rng = np.random.default_rng(31)
        curves = []
        for i in range(12):
            a = rng.uniform(0, 0.5)
            u = np.sort(rng.uniform(a, a + 0.5, 8))
            curves.append(Curve(f"c{i}", u, np.sin(3 * u) * rng.normal() + 0.2 * rng.normal(size=8)))
        ds = build_dataset(curves, domain=(0, 1), grid_size=11)
        mean = llk_mean(ds, ds.grid, 0.2)
        counts, _ = self._assert_covariance_matches(ds, mean, 0.15)
        assert np.any((counts > 0) & (counts < 8)) and np.any(counts >= 8)

    def test_covariance_singular_cells_fall_back(self):
        # On [0, 0.5] only lattice points 0.25 apart fall in a 0.15 window,
        # so every window there holds one abscissa: a singular design.
        rng = np.random.default_rng(37)
        lattice = np.linspace(0, 1, 5)
        curves = [Curve(f"l{i}", lattice, rng.normal() * lattice + rng.normal(size=5) * 0.1)
                  for i in range(10)]
        for i in range(10):
            u = np.sort(rng.uniform(0.55, 1.0, 8))
            curves.append(Curve(f"r{i}", u, rng.normal() * u))
        ds = build_dataset(curves, domain=(0, 1), grid_size=21)
        mean = llk_mean(ds, ds.grid, 0.3)
        _, n_fallback = self._assert_covariance_matches(ds, mean, 0.15)
        assert n_fallback > 0

    @pytest.mark.parametrize(
        "source",
        ["dgp1", "dgp2", "dgp3", "dgp4", "dense", "fragments", "grid5", "grid21", "grid51",
         "grid101", "single", "mixed", "bench_fragments"],
    )
    def test_covariance_equals_the_ten_pass_reference(self, source, monkeypatch):
        # One prefix-sum pass per distinct right factor, run in blocks of
        # grid columns, forms every moment as its own whole-grid pass does,
        # so the surface is the same bit for bit at every block width: one
        # column, 8 (L not a multiple of it, or below it) and the default.
        from fdrecon import smoothing

        ds, h_mu = _ten_pass_sample(source)
        bw = Bandwidths.rule_of_thumb(ds)
        mean = llk_mean(ds, ds.grid, bw.h_mu if h_mu is None else h_mu)
        surface, mask, n_fallback = _covariance_ten_passes(ds, mean, ds.grid, bw.h_gamma, 5)
        sizes = np.array([c.n_obs for c in ds.curves])
        per_column = 2 * (sizes.max() + 2) * sizes.size  # before- and after-sums
        for bound in (per_column, 8 * per_column, smoothing.COV_BLOCK_ELEMENTS):
            monkeypatch.setattr(smoothing, "COV_BLOCK_ELEMENTS", bound)
            cov = llk_covariance(ds, mean, ds.grid, bw.h_gamma)
            np.testing.assert_array_equal(cov.mask, mask)
            np.testing.assert_array_equal(cov.surface, surface)
            assert cov.diagnostics["n_fallback"] == n_fallback
        assert source != "fragments" or not mask.all()

    def test_noise_variance_target_by_target(self):
        # Curves of two points 0.02 apart on [0.1, 0.5] give targets there a
        # single gap level, which drops the quadratic gap column; dense
        # random curves on [0.45, 0.95] keep it elsewhere.
        from fdrecon.smoothing import _noise_fits

        rng = np.random.default_rng(41)
        curves = []
        for i in range(60):
            a = rng.uniform(0.1, 0.48)
            u = np.array([a, a + 0.02])
            curves.append(Curve(f"p{i}", u, rng.normal() + 0.1 * rng.normal(size=2)))
        for i in range(30):
            u = np.sort(rng.uniform(0.45, 0.95, 12))
            curves.append(Curve(f"r{i}", u, rng.normal() * u + 0.1 * rng.normal(size=12)))
        ds = build_dataset(curves, domain=(0, 1), grid_size=41)
        mean = llk_mean(ds, ds.grid, 0.15)
        cov = llk_covariance(ds, mean, ds.grid, 0.1)
        nv = estimate_noise_variance(ds, mean, cov)

        h_s, h_t = cov.bandwidth, nv.diagnostics["h_t"]
        g = ds.grid.points
        targets = g[(g >= 0.25 - 1e-12) & (g <= 0.75 + 1e-12) & np.diagonal(cov.mask)]
        s, t, d = _noise_pairs_oracle(ds, mean, h_t)
        fits = [_noise_fit_oracle(s, t, d, x, h_s, h_t) for x in targets]
        want = np.array([np.nan if v is None else v for v, _ in fits])
        n_cols = {k for _, k in fits}
        assert {2, 3} <= n_cols

        got = _noise_fits(s, t, d, targets, h_s, h_t)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        ok = np.isfinite(want)
        np.testing.assert_allclose(got[ok], want[ok], rtol=1e-12, atol=1e-12 * np.max(np.abs(want[ok])))

        assert nv.diagnostics["n_targets"] == ok.sum()
        assert nv.diagnostics["n_pairs"] == s.size
        assert nv.diagnostics["frac_clipped"] == np.mean(want[ok] < 0)
        assert nv.sigma2 == pytest.approx(np.mean(np.clip(want[ok], 0, None)), rel=1e-12)


class TestCovarianceWorkingSet:
    """The covariance smoother's peak memory stays bounded as the sample grows."""

    @staticmethod
    def _peak_mb(curves):
        import tracemalloc

        ds = build_dataset(curves, domain=(0.0, 1.0), grid_size=51)
        bw = Bandwidths.rule_of_thumb(ds)
        mean = llk_mean(ds, ds.grid, bw.h_mu)
        tracemalloc.start()
        try:
            llk_covariance(ds, mean, ds.grid, bw.h_gamma)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_fragments_peak(self):
        # 1,000 fragments of 15 points: one whole-grid pass peaked at 29-30 MB.
        rng = np.random.default_rng(61)
        curves = []
        for i in range(1000):
            a = rng.uniform(0.0, 0.6)
            u = np.sort(rng.uniform(a, a + 0.4, 15))
            curves.append(Curve(f"f{i}", u, np.sin(3 * u) * rng.normal() + 0.05 * rng.normal(size=15)))
        assert self._peak_mb(curves) <= 10.0

    def test_long_curves_peak(self):
        # 20 curves of 500 points: one whole-grid pass peaked at 18-19 MB.
        rng = np.random.default_rng(62)
        curves = []
        for i in range(20):
            u = np.sort(rng.uniform(0.0, 1.0, 500))
            curves.append(Curve(f"c{i}", u, np.sin(3 * u) * rng.normal() + 0.05 * rng.normal(size=500)))
        assert self._peak_mb(curves) <= 8.0


class TestGroupedWindows:
    """Windows confined to a group equal calls on each group's points alone, bit for bit."""

    @staticmethod
    def grouped_input(rng, n_groups=7):
        xs, ts = [], []
        for g in range(n_groups):
            m = int(rng.integers(0, 12))  # some groups are empty
            x = np.round(rng.uniform(0, 1, m), 2)  # ties within a group
            t = np.concatenate([rng.uniform(0, 1, 4), x[:2] + 0.1, x[:1] - 0.1])
            xs.append(x)
            ts.append(t)
        return xs, ts

    def test_kernel_weights_match_per_group_calls(self):
        from fdrecon.smoothing import _kernel_weights

        rng = np.random.default_rng(21)
        for _ in range(50):
            xs, ts = self.grouped_input(rng)
            h = float(rng.uniform(0.05, 0.3))
            x, t = np.concatenate(xs), np.concatenate(ts)
            x_group = np.repeat(np.arange(len(xs)), [a.size for a in xs])
            t_group = np.repeat(np.arange(len(ts)), [a.size for a in ts])
            rows, cols, d, w = _kernel_weights(x, t, h, groups=(x_group, t_group))
            want = [[], [], [], []]
            x_off = t_off = 0
            for xg, tg in zip(xs, ts):
                r, c, dd, ww = _kernel_weights(xg, tg, h)
                for part, v in zip(want, (r + t_off, c + x_off, dd, ww)):
                    part.append(v)
                x_off += xg.size
                t_off += tg.size
            for got, parts in zip((rows, cols, d, w), want):
                assert np.array_equal(got, np.concatenate(parts))

    def test_grouped_local_linear_fits_match_per_group_fits(self):
        from fdrecon.smoothing import _llk_fit_1d

        rng = np.random.default_rng(22)
        for _ in range(30):
            xs, ts = self.grouped_input(rng)
            ys = [rng.normal(size=x.size) for x in xs]
            x, y, t = np.concatenate(xs), np.concatenate(ys), np.concatenate(ts)
            x_group = np.repeat(np.arange(len(xs)), [a.size for a in xs])
            t_group = np.repeat(np.arange(len(ts)), [a.size for a in ts])
            got = _llk_fit_1d(x, y, t, 0.2, groups=(x_group, t_group))
            want = [_llk_fit_1d(xg, yg, tg, 0.2) for xg, yg, tg in zip(xs, ys, ts)]
            for g, parts in zip(got, zip(*want)):
                np.testing.assert_array_equal(g, np.concatenate(parts))
