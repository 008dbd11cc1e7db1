"""Tests for the subdomain eigen-analysis and the extrapolated basis."""

import numpy as np
import pytest

from fdrecon import (
    CovarianceEstimate,
    Curve,
    DegenerateCovarianceError,
    NotEstimableError,
    Subdomain,
    curve_subdomain,
    eigen_on_subdomain,
    extrapolate_basis,
    integral_scores,
)
from fdrecon.core import DomainGrid


def brownian_cov(grid, band=None):
    return CovarianceEstimate.from_function(
        grid, lambda u, v: np.minimum(u, v), band_halfwidth=band
    )


class TestSubdomain:
    def test_from_interval_indices(self):
        g = DomainGrid.regular((0, 1), 11)
        s = Subdomain.from_interval(g, 0.28, 0.74)
        assert s.grid_indices.tolist() == [3, 4, 5, 6, 7]
        assert s.intervals == ((0.28, 0.74),)

    def test_complement(self):
        g = DomainGrid.regular((0, 1), 11)
        s = Subdomain.from_interval(g, 0.0, 0.5)
        comp = s.complement(g)
        assert comp.grid_indices.tolist() == [6, 7, 8, 9, 10]

    def test_blocks_multi_interval(self):
        g = DomainGrid.regular((0, 1), 21)
        s = Subdomain.from_indices(g, [0, 1, 2, 3, 10, 11, 12])
        assert len(s.blocks()) == 2
        assert s.intervals[0] == pytest.approx((0.0, 0.15))
        assert s.intervals[1] == pytest.approx((0.5, 0.6))

    def test_trapezoid_weights_per_block(self):
        g = DomainGrid.regular((0, 1), 21)
        s = Subdomain.from_indices(g, [0, 1, 2, 10, 11, 12, 13])
        w = s.trapezoid_weights(g)
        # each block integrates its own length
        assert w[:3].sum() == pytest.approx(0.1)
        assert w[3:].sum() == pytest.approx(0.15)

    def test_contains(self):
        g = DomainGrid.regular((0, 1), 21)
        s = Subdomain.from_indices(g, [0, 1, 2, 10, 11])
        got = s.contains(np.array([0.05, 0.3, 0.52, 0.9]))
        assert got.tolist() == [True, False, True, False]


class TestEigenOnSubdomain:
    def test_rank_one_analytic(self):
        # gamma(u,v) = 2 sin(pi u) sin(pi v): single eigenpair with
        # eigenvalue 1 and eigenfunction sqrt(2) sin(pi u).
        grid = DomainGrid.regular((0, 1), 101)
        cov = CovarianceEstimate.from_function(
            grid, lambda u, v: 2.0 * np.sin(np.pi * u) * np.sin(np.pi * v)
        )
        sub = Subdomain.from_interval(grid, 0.0, 1.0)
        eig = eigen_on_subdomain(cov, sub, lambda_rel_floor=1e-6)
        assert eig.k_available == 1
        assert eig.eigenvalues[0] == pytest.approx(1.0, abs=1e-2)
        target = np.sqrt(2) * np.sin(np.pi * grid.points)
        assert np.max(np.abs(eig.eigenfunctions[:, 0] - target)) < 1e-2

    def test_degenerate_covariance(self):
        grid = DomainGrid.regular((0, 1), 21)
        cov = CovarianceEstimate.from_function(grid, lambda u, v: 0.0 * u * v)
        sub = Subdomain.from_interval(grid, 0.0, 1.0)
        with pytest.raises(DegenerateCovarianceError):
            eigen_on_subdomain(cov, sub)

    def test_brownian_eigenpairs(self):
        # Analytic oracle: lambda_k = (2/((2k-1) pi))^2 and
        # phi_k = sqrt(2) sin((k - 1/2) pi u) on [0, 1].
        grid = DomainGrid.regular((0, 1), 201)
        cov = brownian_cov(grid)
        sub = Subdomain.from_interval(grid, 0.0, 1.0)
        eig = eigen_on_subdomain(cov, sub)
        for k in range(1, 4):
            lam = (2.0 / ((2 * k - 1) * np.pi)) ** 2
            assert eig.eigenvalues[k - 1] == pytest.approx(lam, rel=0.02)
            target = np.sqrt(2) * np.sin((k - 0.5) * np.pi * grid.points)
            got = eig.eigenfunctions[:, k - 1]
            sign = np.sign(got @ target)
            assert np.max(np.abs(sign * got - target)) < 0.05

    def test_normalization_and_orthogonality(self):
        grid = DomainGrid.regular((0, 1), 101)
        cov = brownian_cov(grid)
        sub = Subdomain.from_interval(grid, 0.1, 0.8)
        eig = eigen_on_subdomain(cov, sub)
        w = sub.trapezoid_weights(grid)
        G = eig.eigenfunctions.T @ (w[:, None] * eig.eigenfunctions)
        assert np.max(np.abs(G - np.eye(eig.k_available))) < 1e-8

    def test_not_estimable_on_masked_region(self):
        grid = DomainGrid.regular((0, 1), 51)
        cov = brownian_cov(grid, band=0.3)
        sub = Subdomain.from_interval(grid, 0.0, 0.8)
        with pytest.raises(NotEstimableError, match="not estimable"):
            eigen_on_subdomain(cov, sub)

    def test_deterministic_sign(self):
        grid = DomainGrid.regular((0, 1), 51)
        rng = np.random.default_rng(0)
        A = rng.normal(size=(51, 4))
        surf = A @ np.diag([4.0, 2.0, 1.0, 0.5]) @ A.T
        cov = CovarianceEstimate(grid, 0.5 * (surf + surf.T), np.ones((51, 51), bool), 0.1)
        sub = Subdomain.from_interval(grid, 0.0, 1.0)
        e1 = eigen_on_subdomain(cov, sub)
        e2 = eigen_on_subdomain(cov, sub)
        assert np.array_equal(e1.eigenfunctions, e2.eigenfunctions)
        assert np.all(e1.eigenfunctions.sum(axis=0) > -1e-12)

    def test_trace_consistency(self):
        grid = DomainGrid.regular((0, 1), 101)
        cov = CovarianceEstimate.from_function(
            grid,
            lambda u, v: 2.0 * np.sin(np.pi * u) * np.sin(np.pi * v)
            + 0.8 * np.cos(np.pi * u) * np.cos(np.pi * v)
            + 0.3 * np.sin(3 * np.pi * u) * np.sin(3 * np.pi * v),
        )
        sub = Subdomain.from_interval(grid, 0.05, 0.85)
        eig = eigen_on_subdomain(cov, sub)
        w = sub.trapezoid_weights(grid)
        trace = float(w @ np.diagonal(cov.surface)[sub.grid_indices])
        assert abs(eig.eigenvalues.sum() - trace) < 0.02 * trace

    def test_tail_sums_smaller_on_subdomain(self):
        # Eigenvalue tail mass on a subinterval never exceeds the tail mass
        # on the full interval.
        grid = DomainGrid.regular((0, 1), 101)
        cov = brownian_cov(grid)
        full = eigen_on_subdomain(cov, Subdomain.from_interval(grid, 0.0, 1.0))
        sub = eigen_on_subdomain(cov, Subdomain.from_interval(grid, 0.2, 0.7))
        lam_full = full.eigenvalues
        lam_sub = sub.eigenvalues
        for K in range(0, 6):
            tail_full = lam_full[K:].sum()
            tail_sub = lam_sub[K:].sum()
            assert tail_sub <= tail_full + 1e-9


class TestExtrapolateBasis:
    def test_identity_on_subdomain(self):
        grid = DomainGrid.regular((0, 1), 101)
        cov = brownian_cov(grid)
        sub = Subdomain.from_interval(grid, 0.0, 0.6)
        eig = extrapolate_basis(eigen_on_subdomain(cov, sub), cov)
        on_sub = eig.extrapolated[sub.grid_indices, :]
        assert np.max(np.abs(on_sub - eig.eigenfunctions)) < 1e-6
        assert eig.diagnostics["extrapolation_identity_residual"] < 1e-6

    def test_brownian_constant_extension(self):
        # For min(u, v) with observed [0, theta], the covariance rows beyond
        # theta match the row at theta, so every extrapolated function is
        # constant beyond theta at its boundary value.
        grid = DomainGrid.regular((0, 1), 101)
        cov = brownian_cov(grid)
        theta = 0.6
        sub = Subdomain.from_interval(grid, 0.0, theta)
        eig = extrapolate_basis(eigen_on_subdomain(cov, sub), cov)
        beyond = grid.points > theta + 1e-9
        edge = sub.grid_indices[-1]
        for k in range(min(4, eig.k_available)):
            assert np.max(np.abs(eig.extrapolated[beyond, k] - eig.eigenfunctions[-1, k])) < 1e-8
            assert eig.extrapolated[edge, k] == pytest.approx(eig.eigenfunctions[-1, k], abs=1e-8)

    def test_rank_one_extension_proportional(self):
        # For gamma = phi(u) phi(v) the extension is proportional to phi on
        # the whole domain, normalized over the subdomain.
        grid = DomainGrid.regular((0, 1), 101)
        phi = lambda u: 1.0 + 0.5 * np.sin(2 * np.pi * u)
        cov = CovarianceEstimate.from_function(grid, lambda u, v: phi(u) * phi(v))
        sub = Subdomain.from_interval(grid, 0.2, 0.55)
        eig = extrapolate_basis(eigen_on_subdomain(cov, sub), cov)
        ext = eig.extrapolated[:, 0]
        ratio = ext / phi(grid.points)
        assert np.max(np.abs(ratio - ratio[0])) < 1e-8

    def test_non_estimable_rows_marked(self):
        grid = DomainGrid.regular((0, 1), 51)
        cov = brownian_cov(grid, band=0.5)
        sub = Subdomain.from_interval(grid, 0.0, 0.4)
        eig = extrapolate_basis(eigen_on_subdomain(cov, sub), cov)
        row_ok = np.all(np.isfinite(eig.extrapolated), axis=1)
        # estimable rows are exactly those whose distance to every subdomain
        # point stays within the band halfwidth
        expected = grid.points <= 0.5 + 1e-9
        assert np.array_equal(row_ok, expected)

    def test_boundary_continuity_on_grid(self):
        # Smooth synthetic covariance: the first grid point beyond the
        # boundary differs from the boundary eigenfunction value by O(delta).
        grid = DomainGrid.regular((0, 1), 201)
        cov = CovarianceEstimate.from_function(
            grid,
            lambda u, v: 2.0 * np.sin(np.pi * u) * np.sin(np.pi * v)
            + np.cos(np.pi * u) * np.cos(np.pi * v),
        )
        theta = 0.6
        sub = Subdomain.from_interval(grid, 0.0, theta)
        eig = extrapolate_basis(eigen_on_subdomain(cov, sub), cov)
        edge = sub.grid_indices[-1]
        for k in range(eig.k_available):
            jump = abs(eig.extrapolated[edge + 1, k] - eig.eigenfunctions[-1, k])
            scale = max(1.0, np.max(np.abs(eig.eigenfunctions[:, k])))
            assert jump < 10.0 * grid.delta * scale

    def test_fve_truncation(self):
        grid = DomainGrid.regular((0, 1), 101)
        cov = brownian_cov(grid)
        eig = eigen_on_subdomain(cov, Subdomain.from_interval(grid, 0.0, 1.0))
        k90 = eig.fve_truncation(0.9)
        frac = np.cumsum(eig.eigenvalues) / eig.eigenvalues.sum()
        assert frac[k90 - 1] >= 0.9
        assert k90 == 1 or frac[k90 - 2] < 0.9


class TestInterpColumns:
    def test_matches_np_interp_value_for_value(self):
        from fdrecon.eigensystem import interp_columns

        rng = np.random.default_rng(7)
        xp = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 18)), [1.0]])
        fp = rng.normal(size=(xp.size, 4)) * 10.0 ** rng.uniform(-4, 4, size=4)
        fp[5, 2] = np.nan
        u = np.concatenate([rng.uniform(-0.2, 1.2, 60), xp, [np.nextafter(1.0, 2.0)]])
        got = interp_columns(u, xp, fp)
        for j in range(fp.shape[1]):
            ref = np.interp(u, xp, fp[:, j])
            np.testing.assert_array_equal(got[:, j], ref)
        np.testing.assert_array_equal(interp_columns(0.3, xp[:1], fp[:1]), fp[:1])
        # Each point in its own column: the same values.
        col = rng.integers(0, fp.shape[1], u.size)
        np.testing.assert_array_equal(interp_columns(u, xp, fp, col), got[np.arange(u.size), col])
        np.testing.assert_array_equal(interp_columns(u[:3], xp[:1], fp[:1], col[:3]), fp[0, col[:3]])


LEGENDRE = [
    lambda u: np.ones_like(u),
    lambda u: np.sqrt(3.0) * (2.0 * u - 1.0),
    lambda u: np.sqrt(5.0) * (6.0 * u * u - 6.0 * u + 1.0),
]
RANK3_LAMBDA = (0.25, 0.1, 0.04)


def rank3_model(band=None):
    from fdrecon import Bandwidths, MeanEstimate, NoiseVariance, ReconstructionModel

    grid = DomainGrid.regular((0, 1), 51)
    cov = CovarianceEstimate.from_function(
        grid,
        lambda u, v: sum(RANK3_LAMBDA[k] * LEGENDRE[k](u) * LEGENDRE[k](v) for k in range(3)),
        band_halfwidth=band,
    )
    mean = MeanEstimate.from_function(grid, lambda u: 1.0 + 0.5 * u)
    return ReconstructionModel(mean, cov, NoiseVariance(0.0), Bandwidths(0.05, 0.05, 0.05))


def rank3_curve(cid, u, z):
    y = 1.0 + 0.5 * u + sum(np.sqrt(RANK3_LAMBDA[k]) * z[k] * LEGENDRE[k](u) for k in range(3))
    return Curve(cid, u, y)


class TestOffGridEnds:
    # The observed interval [0.113, 0.587] falls between grid points
    # (spacing h = 0.02), so its ends become eigenproblem nodes.
    A, B = 0.113, 0.587

    def test_ends_are_nodes_and_scores_recovered(self):
        model = rank3_model()
        grid = model.grid
        z = np.array([1.2, -0.7, 0.9])
        curve = rank3_curve("t", np.linspace(self.A, self.B, 400), z)
        eig = model.eigensystem_for(curve_subdomain(curve, grid))
        assert eig.nodes[0] == self.A and eig.nodes[-1] == self.B
        assert np.array_equal(eig.nodes[1:-1], grid.points[eig.subdomain.grid_indices])
        assert eig.weights.sum() == pytest.approx(self.B - self.A, abs=1e-12)
        assert eig.diagnostics["n_snapped_ends"] == 0

        # Oracle: the node quadrature of the true centred curve. The dense
        # trapezoid over the observations differs from it by the O(h^2)
        # quadrature error only; clamping the eigenfunctions past the
        # snapped grid ends instead costs O(h).
        h = grid.delta
        nodes = eig.nodes
        centred = rank3_curve("n", nodes, z).y - (1.0 + 0.5 * nodes)
        oracle = eig.eigenfunctions[:, :3].T @ (eig.weights * centred)
        scores = integral_scores(curve, eig, model.mean, 3, quadrature="trapezoid")
        assert np.max(np.abs(scores.values - oracle)) < 5 * h**2
        # a rank-3 curve is its own three-term expansion on the interval
        expansion = eig.phi_at(nodes, 3) @ scores.values
        assert np.max(np.abs(expansion - centred)) < 25 * h**2

    def test_same_snapped_indices_distinct_eigensystems(self):
        model = rank3_model()
        grid = model.grid
        z = np.array([0.3, 0.5, -1.1])
        c1 = rank3_curve("a", np.linspace(self.A, self.B, 50), z)
        c2 = rank3_curve("b", np.linspace(0.105, 0.595, 50), z)
        s1, s2 = curve_subdomain(c1, grid), curve_subdomain(c2, grid)
        assert np.array_equal(s1.grid_indices, s2.grid_indices)
        assert s1.key() != s2.key()
        e1, e2 = model.eigensystem_for(s1), model.eigensystem_for(s2)
        assert e1 is not e2
        assert (e1.nodes[0], e1.nodes[-1]) == (self.A, self.B)
        assert (e2.nodes[0], e2.nodes[-1]) == (0.105, 0.595)

    def test_complement_round_trips_exact_ends(self):
        grid = DomainGrid.regular((0, 1), 51)
        sub = Subdomain.from_interval(grid, self.A, self.B)
        comp = sub.complement(grid)
        assert comp.intervals == ((0.0, self.A), (self.B, 1.0))
        back = comp.complement(grid)
        assert back.intervals == sub.intervals
        assert np.array_equal(back.grid_indices, sub.grid_indices)
        assert back.key() == sub.key()

    def test_gcv_and_reconstruction_share_one_eigensystem(self):
        from fdrecon import build_dataset, reconstruct_ano, select_truncation_gcv

        model = rank3_model()
        rng = np.random.default_rng(3)
        complete = [
            rank3_curve(f"c{i}", np.sort(rng.uniform(0, 1, 60)), rng.normal(size=3))
            for i in range(8)
        ]
        target = rank3_curve("t", np.linspace(self.A, self.B, 60), rng.normal(size=3))
        ds = build_dataset(complete + [target], domain=(0, 1))
        grid = model.grid
        k, _ = select_truncation_gcv(
            "ano", model, ds, curve_subdomain(target, grid).complement(grid)
        )
        reconstruct_ano(target, model, k)
        assert len(model._eig_cache) == 1

    def test_non_estimable_end_cells_keep_snapped_nodes(self):
        # Band half-width 0.27 and observed [0.105, 0.395]: the snapped grid
        # square [0.12, 0.38] (0.26 wide) is estimable, but adding either
        # end's enclosing cell widens it to 0.28, which is not.
        from fdrecon import reconstruct_ano

        model = rank3_model(band=0.27)
        grid = model.grid
        z = np.array([0.4, -0.2, 0.6])
        u = np.linspace(0.105, 0.395, 80)
        curve = rank3_curve("t", u, z)
        eig = model.eigensystem_for(curve_subdomain(curve, grid))
        assert eig.diagnostics["n_snapped_ends"] == 2
        assert np.array_equal(eig.nodes, grid.points[eig.subdomain.grid_indices])
        # the quadrature stops at the snapped ends: observations beyond them
        # do not enter
        inside = (u >= eig.nodes[0]) & (u <= eig.nodes[-1])
        full = integral_scores(curve, eig, model.mean, 3)
        restricted = integral_scores(Curve("r", u[inside], curve.y[inside]), eig, model.mean, 3)
        assert np.array_equal(full.values, restricted.values)
        rec = reconstruct_ano(curve, model, 3)
        assert np.all(np.isfinite(rec.values[eig.subdomain.grid_indices]))
