"""Tests for the reconstruction estimators, GCV and the error-variance diagnostic."""

import numpy as np
import pytest

from fdrecon import (
    Bandwidths,
    CovarianceEstimate,
    Curve,
    MeanEstimate,
    NoiseVariance,
    ReconstructionModel,
    Subdomain,
    build_dataset,
    curve_subdomain,
    error_variance,
    fit_reconstruction_model,
    reconstruct_ano,
    reconstruct_ayes,
    reconstruct_kraus,
    reconstruct_pace,
    reconstruct_with_method,
    select_gcv,
    select_kraus_ridge_gcv,
    select_truncation_gcv,
)
from fdrecon.core import DomainGrid
from fdrecon.reconstruct import PROV_NON_ESTIMABLE, PROV_OBSERVED, PROV_RECONSTRUCTED

# Orthonormal Legendre basis on [0, 1]: restrictions to subintervals stay
# well conditioned, unlike trigonometric triples.
PHI = [
    lambda u: np.ones_like(u),
    lambda u: np.sqrt(3.0) * (2.0 * u - 1.0),
    lambda u: np.sqrt(5.0) * (6.0 * u * u - 6.0 * u + 1.0),
]
LAM = (0.25, 0.1, 0.04)
MU = lambda u: 1.0 + 0.5 * u


def rank3_curve_values(u, z):
    return MU(u) + sum(np.sqrt(LAM[k]) * z[k] * PHI[k](u) for k in range(3))


def rank3_dataset(n=200, m=150, seed=0, noise=0.0, frag_prob=0.5, grid_size=51, lam=LAM):
    rng = np.random.default_rng(seed)
    curves, zs = [], []
    for i in range(n):
        if rng.random() < frag_prob:
            a, b = rng.uniform(0, 0.25), rng.uniform(0.75, 1.0)
        else:
            a, b = 0.0, 1.0
        u = np.sort(rng.uniform(a, b, m))
        z = rng.normal(size=3)
        zs.append(z)
        y = MU(u) + sum(np.sqrt(lam[k]) * z[k] * PHI[k](u) for k in range(3))
        curves.append(Curve(f"c{i}", u, y + noise * rng.normal(size=m)))
    return build_dataset(curves, domain=(0, 1), grid_size=grid_size), zs


def rank3_model(grid_size=51):
    grid = DomainGrid.regular((0, 1), grid_size)
    cov = CovarianceEstimate.from_function(
        grid, lambda u, v: sum(LAM[k] * PHI[k](u) * PHI[k](v) for k in range(3))
    )
    mean = MeanEstimate.from_function(grid, MU)
    return ReconstructionModel(mean, cov, NoiseVariance(0.0), Bandwidths(0.05, 0.05, 0.05))


def brownian_model(grid_size=101):
    grid = DomainGrid.regular((0, 1), grid_size)
    cov = CovarianceEstimate.from_function(grid, lambda u, v: np.minimum(u, v))
    mean = MeanEstimate.zero(grid)
    return ReconstructionModel(mean, cov, NoiseVariance(0.0), Bandwidths(0.08, 0.08, 0.08))


def brownian_path(grid, seed=0):
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=grid.size - 1) * np.sqrt(grid.delta)
    return np.concatenate([[0.0], np.cumsum(steps)])


class TestReconstructAno:
    def test_finite_rank_exact_recovery(self):
        # Rank-3 noiseless process with the exact covariance: reconstruction
        # recovers the true curve on the missing part up to quadrature error.
        model = rank3_model()
        grid = model.grid
        rng = np.random.default_rng(1)
        z = rng.normal(size=3)
        obs_u = grid.points[(grid.points >= 0.1) & (grid.points <= 0.6)]
        curve = Curve("t", obs_u, rank3_curve_values(obs_u, z))
        rec = reconstruct_ano(curve, model, k=3, quadrature="trapezoid")
        truth = rank3_curve_values(grid.points, z)
        err = np.trapezoid((rec.values - truth) ** 2, grid.points)
        assert err < 1e-6

    def test_zero_score_curve_returns_mean(self):
        model = rank3_model()
        grid = model.grid
        obs_u = grid.points[(grid.points >= 0.2) & (grid.points <= 0.8)]
        curve = Curve("t", obs_u, MU(obs_u))
        rec = reconstruct_ano(curve, model, k=3, quadrature="trapezoid")
        assert np.allclose(rec.values, model.mean.values, atol=1e-9)

    def test_brownian_constant_extension(self):
        # With covariance min(u, v) and observed [0, 0.6], the reconstruction
        # beyond 0.6 is the last observed value.
        model = brownian_model()
        grid = model.grid
        path = brownian_path(grid, seed=3)
        inside = grid.points <= 0.6 + 1e-12
        curve = Curve("bm", grid.points[inside], path[inside])
        rec = reconstruct_ano(curve, model, k=None or model.eigensystem_for(
            curve_subdomain(curve, grid)).k_available, quadrature="trapezoid")
        x_at_theta = path[inside][-1]
        beyond = grid.points > 0.6 + 1e-12
        assert np.max(np.abs(rec.values[beyond] - x_at_theta)) < 1e-6

    def test_provenance_tags(self):
        model = rank3_model()
        grid = model.grid
        obs_u = grid.points[(grid.points >= 0.3) & (grid.points <= 0.7)]
        curve = Curve("t", obs_u, MU(obs_u))
        rec = reconstruct_ano(curve, model, k=2, quadrature="trapezoid")
        o_idx = curve_subdomain(curve, grid).grid_indices
        assert np.all(rec.provenance[o_idx] == PROV_OBSERVED)
        m_idx = np.setdiff1d(np.arange(grid.size), o_idx)
        assert np.all(rec.provenance[m_idx] == PROV_RECONSTRUCTED)

    def test_non_estimable_points_tagged(self):
        grid = DomainGrid.regular((0, 1), 51)
        cov = CovarianceEstimate.from_function(
            grid, lambda u, v: np.minimum(u, v) + 0.1, band_halfwidth=0.5
        )
        model = ReconstructionModel(
            MeanEstimate.zero(grid), cov, NoiseVariance(0.0), Bandwidths(0.1, 0.1, 0.1)
        )
        obs_u = grid.points[grid.points <= 0.3 + 1e-12]
        curve = Curve("t", obs_u, np.sin(obs_u))
        rec = reconstruct_ano(curve, model, k=2, quadrature="trapezoid")
        far = grid.points > 0.5 + 0.3
        assert np.all(rec.provenance[far] == PROV_NON_ESTIMABLE)
        assert np.all(np.isnan(rec.values[far]))


class TestReconstructAyes:
    def test_boundary_continuity(self):
        # The first missing grid value connects with the smoothed curve at
        # the boundary: the jump is O(grid spacing).
        ds, zs = rank3_dataset(n=80, m=120, seed=5, noise=0.01)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.05, 0.04, 0.06))
        grid = model.grid
        rng = np.random.default_rng(7)
        z = rng.normal(size=3)
        u = np.sort(rng.uniform(0.15, 0.65, 120))
        curve = Curve("t", u, rank3_curve_values(u, z))
        rec = reconstruct_ayes(curve, model, k=3, quadrature="trapezoid")
        o_idx = curve_subdomain(curve, grid).grid_indices
        deriv = np.max(np.abs(np.diff(rec.values[o_idx]))) / grid.delta
        left_jump = abs(rec.values[o_idx[0] - 1] - rec.values[o_idx[0]])
        right_jump = abs(rec.values[o_idx[-1] + 1] - rec.values[o_idx[-1]])
        assert left_jump <= 5 * grid.delta * max(deriv, 1.0)
        assert right_jump <= 5 * grid.delta * max(deriv, 1.0)

    def test_k_zero_is_anchored_mean_shift(self):
        model = rank3_model()
        grid = model.grid
        rng = np.random.default_rng(8)
        u = np.sort(rng.uniform(0.3, 0.7, 80))
        curve = Curve("t", u, MU(u) + 0.2 * PHI[0](u))
        rec = reconstruct_ayes(curve, model, k=0)
        lo, hi = curve.observed_interval
        from fdrecon import llk_curve

        x_at_b = llk_curve(curve, hi, model.bandwidths.h_x)
        right = grid.points > hi
        expected = x_at_b + model.mean.values[right] - model.mean.at(hi)
        assert np.allclose(rec.values[right], expected, atol=1e-10)

    def test_two_interval_anchor_interpolation(self):
        # Direct evaluation of the interpolated anchors between two observed
        # intervals with w = (u - B1)/(A2 - B1).
        model = rank3_model(grid_size=101)
        grid = model.grid
        rng = np.random.default_rng(9)
        u1 = np.sort(rng.uniform(0.0, 0.3, 60))
        u2 = np.sort(rng.uniform(0.6, 1.0, 60))
        u = np.concatenate([u1, u2])
        z = rng.normal(size=3)
        curve = Curve("t", u, rank3_curve_values(u, z))
        sub = Subdomain.from_indices(
            grid,
            np.concatenate(
                [
                    np.nonzero(grid.points <= 0.3)[0],
                    np.nonzero(grid.points >= 0.6)[0],
                ]
            ),
        )
        eig = model.eigensystem_for(sub)
        k = 3
        rec = reconstruct_ayes(curve, model, k=k, subdomain=sub, quadrature="trapezoid")

        from fdrecon import integral_scores, llk_curve

        scores = integral_scores(curve, eig, model.mean, k, quadrature="trapezoid")
        at = 0.45
        w = (at - 0.3) / (0.6 - 0.3)
        assert w == pytest.approx(0.5)
        x_b1 = llk_curve(curve, 0.3, model.bandwidths.h_x)
        x_a2 = llk_curve(curve, 0.6, model.bandwidths.h_x)
        x_ends, ok = end_smoothing(curve, eig, model)
        assert ok.all()
        assert x_ends[1:3] == pytest.approx([x_b1, x_a2], abs=1e-10)
        # The anchor mixes the facing ends' values, mean and eigenfunctions alike.
        ax = (1 - w) * x_b1 + w * x_a2
        amu = (1 - w) * model.mean.at(0.3) + w * model.mean.at(0.6)
        aphi = (1 - w) * eig.phi_at([0.3], k)[0] + w * eig.phi_at([0.6], k)[0]
        gi = int(np.argmin(np.abs(grid.points - at)))
        ext = eig.extrapolated[gi, :k]
        expected = ax + model.mean.values[gi] - amu + float((ext - aphi) @ scores.values)
        assert rec.values[gi] == pytest.approx(expected, abs=1e-10)

    def test_finite_rank_recovery(self):
        model = rank3_model()
        grid = model.grid
        rng = np.random.default_rng(10)
        z = rng.normal(size=3)
        u = np.linspace(0.1, 0.6, 400)
        curve = Curve("t", u, rank3_curve_values(u, z))
        rec = reconstruct_ayes(curve, model, k=3, quadrature="trapezoid")
        truth = rank3_curve_values(grid.points, z)
        miss = (grid.points < 0.1) | (grid.points > 0.6)
        err = np.trapezoid((rec.values[miss] - truth[miss]) ** 2, grid.points[miss])
        assert err < 1e-3


class TestReconstructPace:
    def test_complete_dense_recovery(self):
        model = rank3_model()
        grid = model.grid
        rng = np.random.default_rng(11)
        z = rng.normal(size=3)
        curve = Curve("t", grid.points, rank3_curve_values(grid.points, z))
        rec = reconstruct_pace(curve, model, k=3)
        truth = rank3_curve_values(grid.points, z)
        assert np.trapezoid((rec.values - truth) ** 2, grid.points) < 1e-3

    def test_mean_curve(self):
        model = rank3_model()
        grid = model.grid
        curve = Curve("t", grid.points, MU(grid.points))
        rec = reconstruct_pace(curve, model, k=3)
        assert np.allclose(rec.values, model.mean.values, atol=1e-8)

    def test_band_mask_refused(self):
        grid = DomainGrid.regular((0, 1), 51)
        cov = CovarianceEstimate.from_function(
            grid, lambda u, v: np.minimum(u, v) + 0.1, band_halfwidth=0.4
        )
        model = ReconstructionModel(
            MeanEstimate.zero(grid), cov, NoiseVariance(0.0), Bandwidths(0.1, 0.1, 0.1)
        )
        curve = Curve("t", grid.points[:20], np.zeros(20))
        from fdrecon import NotEstimableError

        with pytest.raises(NotEstimableError, match="iterative"):
            reconstruct_pace(curve, model, k=1)


class TestOneExpansion:
    """Every reconstruction and every GCV split is the one truncated-expansion kernel."""

    def test_ayes_is_ano_plus_interpolated_end_residuals(self):
        # One observation within h_x of a_1 = 0.6: that end fit fails and
        # drops out, so between the intervals the shift decays from b_0's
        # residual to nothing.
        from fdrecon import integral_scores

        model = rank3_model(grid_size=101)
        grid = model.grid
        rng = np.random.default_rng(12)
        u = np.concatenate([
            np.sort(rng.uniform(0.0, 0.3, 60)), [0.6], np.sort(rng.uniform(0.7, 1.0, 60))
        ])
        curve = Curve("t", u, rank3_curve_values(u, rng.normal(size=3)) + 0.05 * np.sin(9 * u))
        sub = Subdomain.from_indices(
            grid, np.nonzero((grid.points <= 0.3) | (grid.points >= 0.6))[0]
        )
        eig = model.eigensystem_for(sub)
        k = 2
        ano = reconstruct_ano(curve, model, k, subdomain=sub, quadrature="trapezoid")
        ayes = reconstruct_ayes(curve, model, k, subdomain=sub, quadrature="trapezoid")
        x, ok = end_smoothing(curve, eig, model)
        assert ok.tolist() == [True, True, False, True]
        assert ayes.diagnostics["n_anchor_fallback"] == 1

        xi = integral_scores(curve, eig, model.mean, k, quadrature="trapezoid").values
        ends = np.array(sub.intervals).ravel()
        plain_ends = model.mean.at(ends) + eig.end_values[:, :k] @ xi
        missing = ayes.provenance == PROV_RECONSTRUCTED
        w = (grid.points[missing] - 0.3) / (0.6 - 0.3)
        assert np.all((w > 0) & (w < 1))
        shift = (1 - w) * (x[1] - plain_ends[1])
        np.testing.assert_allclose(
            ayes.values[missing], ano.values[missing] + shift, rtol=1e-13, atol=1e-13
        )
        assert np.array_equal(ayes.provenance, ano.provenance)

    def test_pace_is_ano_on_the_full_eigensystem(self):
        from fdrecon import pace_scores

        model = rank3_model()
        grid = model.grid
        rng = np.random.default_rng(13)
        u = np.sort(rng.uniform(0.1, 0.6, 30))
        curve = Curve("t", u, rank3_curve_values(u, rng.normal(size=3)))
        rec = reconstruct_pace(curve, model, k=3)
        eig = model.full_eigensystem()
        xi = pace_scores(curve, eig, model.cov, model.sigma2, model.mean, 3).values
        assert np.array_equal(rec.values, model.mean.values + eig.extrapolated[:, :3] @ xi)
        via_ano = reconstruct_ano(curve, model, 3, scores_method="pace")
        assert via_ano.method == rec.method == "pace"
        assert np.array_equal(via_ano.values, rec.values)
        assert np.array_equal(via_ano.provenance, rec.provenance)
        assert np.all(rec.provenance[curve_subdomain(curve, grid).grid_indices] == PROV_OBSERVED)

    def test_unknown_score_route_names_every_route(self):
        from fdrecon import UsageError

        model = rank3_model()
        u = np.linspace(0.2, 0.7, 20)
        curve = Curve("t", u, MU(u))
        with pytest.raises(UsageError, match=r"expected 'integral', 'ce' or 'pace'"):
            reconstruct_ano(curve, model, 2, scores_method="bogus")

    def test_gcv_residual_is_the_one_curve_expansion(self):
        # Scored at a DGP-1 target's part, some splits' end fits fail; at
        # every K, each such split's GCV residual is that of the one-curve
        # expansion at its pseudo-missing points, with the GCV's scores.
        from fdrecon import DgpConfig, generate_dgp
        from fdrecon.reconstruct import (
            _Expansion, _SplitBatch, _anchor_weights, _ends, _expansion, _gcv_candidates,
            _split_scores,
        )
        from fdrecon.smoothing import _smoothed_on

        cfg = DgpConfig(dgp=1, n=50, m=15, seed=1, replications=1, n_targets=5)
        ds, targets = generate_dgp(cfg, 0)
        model = fit_reconstruction_model(ds)
        o_sub = curve_subdomain(targets.curves[4], model.grid)
        batch = _SplitBatch(ds, [o_sub], 0.1)
        eigsys, candidates = _gcv_candidates("ayes", model, o_sub, batch.n_complete, None)
        k = max(candidates)
        xi, errors = _split_scores("integral", batch, [0], [eigsys], [k], model, "riemann")
        expansion = _Expansion(batch, [0], {0: (eigsys, candidates)}, model)
        rss = expansion.rss(xi, aligned=True)

        at = np.array(o_sub.intervals).ravel()
        u_obs, y_obs, g_obs = batch.obs
        u_miss, y_miss, g_miss = batch.miss
        checked = 0
        for s in range(batch.n):
            x, ok = _smoothed_on(u_obs[g_obs == s], y_obs[g_obs == s], at, model.bandwidths.h_x)
            if ok.all() or errors[s] is not None:
                continue
            checked += 1
            u, y = u_miss[g_miss == s], y_miss[g_miss == s]
            weights = _anchor_weights(o_sub.intervals, u)
            for kk in range(1, k + 1):
                values = _expansion(
                    model.mean.at(u), eigsys.extrapolated_at(u, kk), xi[s, :kk],
                    ends=_ends(eigsys, model.mean, weights, kk, x, ok),
                )
                resid = values - y
                resid[~np.isfinite(resid)] = 0.0
                assert rss[s, kk - 1] == pytest.approx(np.mean(resid**2), rel=1e-12)
        assert checked


class TestReconstructKraus:
    def test_large_ridge_shrinks_to_mean(self):
        model = rank3_model()
        grid = model.grid
        rng = np.random.default_rng(12)
        z = rng.normal(size=3)
        u = np.sort(rng.uniform(0.0, 0.6, 200))
        curve = Curve("t", u, rank3_curve_values(u, z))
        rec = reconstruct_kraus(curve, model, rho=1e9)
        miss = grid.points > 0.6
        assert np.max(np.abs(rec.values[miss] - model.mean.values[miss])) < 1e-3

    def test_tiny_ridge_matches_expansion_estimate(self):
        # Rank-2 affine fixture: the curve smoother reproduces affine data
        # exactly, so both routes consume identical inputs and converge to
        # the same grid-level optimal reconstruction as the ridge vanishes.
        grid = DomainGrid.regular((0, 1), 51)
        cov = CovarianceEstimate.from_function(
            grid, lambda u, v: 0.3 * PHI[0](u) * PHI[0](v) + 0.1 * PHI[1](u) * PHI[1](v)
        )
        model = ReconstructionModel(
            MeanEstimate.from_function(grid, MU), cov, NoiseVariance(0.0),
            Bandwidths(0.05, 0.05, 0.05),
        )
        rng = np.random.default_rng(13)
        z = rng.normal(size=2)
        obs_u = grid.points[grid.points <= 0.6 + 1e-12]
        y = MU(obs_u) + np.sqrt(0.3) * z[0] * PHI[0](obs_u) + np.sqrt(0.1) * z[1] * PHI[1](obs_u)
        curve = Curve("t", obs_u, y)
        rec_k = reconstruct_kraus(curve, model, rho=1e-10)
        rec_a = reconstruct_ano(curve, model, k=2, quadrature="trapezoid")
        miss = grid.points > 0.6
        assert np.max(np.abs(rec_k.values[miss] - rec_a.values[miss])) < 1e-3

    def test_requires_positive_ridge(self):
        from fdrecon import UsageError

        model = rank3_model()
        grid = model.grid
        curve = Curve("t", grid.points[:31], MU(grid.points[:31]))
        with pytest.raises(UsageError, match="positive"):
            reconstruct_kraus(curve, model, rho=0.0)


class TestErrorVariance:
    def test_zero_on_observed_part(self):
        model = brownian_model()
        grid = model.grid
        sub = Subdomain.from_interval(grid, 0.0, 0.6)
        eig = model.eigensystem_for(sub)
        inside = grid.points[(grid.points > 0.05) & (grid.points < 0.6)]
        ev = error_variance(eig, model.cov, inside)
        assert np.max(ev) < 1e-6

    def test_brownian_linear_growth(self):
        # Var(X(u) - X(theta)) = u - theta for the Wiener covariance.
        model = brownian_model()
        grid = model.grid
        theta = 0.6
        eig = model.eigensystem_for(Subdomain.from_interval(grid, 0.0, theta))
        beyond = grid.points[grid.points > theta]
        ev = error_variance(eig, model.cov, beyond)
        assert np.max(np.abs(ev - (beyond - theta))) < 1e-6

    def test_finite_rank_zero_everywhere(self):
        model = rank3_model()
        grid = model.grid
        eig = model.eigensystem_for(Subdomain.from_interval(grid, 0.1, 0.7))
        ev = error_variance(eig, model.cov, grid.points)
        assert np.nanmax(ev) < 1e-8

    def test_nonincreasing_in_components(self):
        from dataclasses import replace

        model = brownian_model()
        grid = model.grid
        sub = Subdomain.from_interval(grid, 0.0, 0.5)
        eig = model.eigensystem_for(sub)
        u = np.array([0.7, 0.9])
        full = error_variance(eig, model.cov, u)
        fewer = replace(
            eig,
            eigenvalues=eig.eigenvalues[:3],
            eigenfunctions=eig.eigenfunctions[:, :3],
            extrapolated=eig.extrapolated[:, :3],
        )
        assert np.all(error_variance(fewer, model.cov, u) >= full - 1e-12)


    def test_small_k_leaves_the_dropped_variance(self):
        # On an estimated covariance the sum over every retained component
        # reaches gamma(u, u), so the clipped variance reads 0; the K a
        # reconstruction used leaves the variance of the components it drops.
        ds, _ = rank3_dataset(n=80, m=40, seed=4, noise=0.05, frag_prob=0.0)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        grid = model.grid
        c = ds.curves[0]
        part = Curve("part", c.u[c.u <= 0.6], c.y[c.u <= 0.6])
        eig = model.eigensystem_for(curve_subdomain(part, grid))
        want = error_variance(eig, model.cov, grid.points, k=1)
        assert np.nanmax(want) > 1e-2
        assert np.nanmax(error_variance(eig, model.cov, grid.points)) < np.nanmax(want)
        for method in ("ano", "ayes", "ayesce"):
            rec = reconstruct_with_method(method, part, model, k=1, include_error_variance=True)
            np.testing.assert_array_equal(rec.error_variance, want)
        pace = reconstruct_pace(part, model, 1, include_error_variance=True)
        np.testing.assert_array_equal(
            pace.error_variance, error_variance(model.full_eigensystem(), model.cov, grid.points, k=1)
        )

    def test_k_beyond_the_retained_components_is_the_full_sum(self):
        model = brownian_model()
        eig = model.eigensystem_for(Subdomain.from_interval(model.grid, 0.0, 0.5))
        u = np.array([0.3, 0.7, 0.9])
        np.testing.assert_array_equal(
            error_variance(eig, model.cov, u, k=eig.k_available + 5), error_variance(eig, model.cov, u)
        )


class TestMethodInvariances:
    def test_score_route_is_the_only_difference(self):
        # With identical score vectors the aligned and plain variants produce
        # identical outputs regardless of the score label.
        ds, _ = rank3_dataset(n=60, m=80, seed=20, noise=0.02)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        rng = np.random.default_rng(21)
        z = rng.normal(size=3)
        u = np.sort(rng.uniform(0.1, 0.7, 60))
        curve = Curve("t", u, rank3_curve_values(u, z))
        a = reconstruct_with_method("ano", curve, model, k=2)
        b = reconstruct_with_method("anoce", curve, model, k=2)
        # same expansion machinery: outputs differ only through the scores
        eig = model.eigensystem_for(curve_subdomain(curve, model.grid))
        from fdrecon import ce_scores, integral_scores

        si = integral_scores(curve, eig, model.mean, 2)
        sc = ce_scores(curve, eig, model.cov, model.sigma2, model.mean, 2)
        delta = eig.extrapolated[:, :2] @ (si.values - sc.values)
        assert np.allclose(a.values - b.values, delta, atol=1e-9)

    def test_translation_equivariance(self):
        ds, _ = rank3_dataset(n=60, m=80, seed=22, noise=0.02)
        shift = 4.0
        shifted = build_dataset(
            [Curve(c.id, c.u, c.y + shift) for c in ds.curves], domain=(0, 1)
        )
        bw = Bandwidths(0.06, 0.05, 0.07)
        m1 = fit_reconstruction_model(ds, bandwidths=bw)
        m2 = fit_reconstruction_model(shifted, bandwidths=bw)
        assert np.allclose(m2.mean.values, m1.mean.values + shift, atol=1e-9)
        rng = np.random.default_rng(23)
        z = rng.normal(size=3)
        u = np.sort(rng.uniform(0.1, 0.7, 60))
        y = rank3_curve_values(u, z)
        r1 = reconstruct_with_method("ano", Curve("t", u, y), m1, k=2)
        r2 = reconstruct_with_method("ano", Curve("t", u, y + shift), m2, k=2)
        assert np.allclose(r2.values, r1.values + shift, atol=1e-6)


class TestGcv:
    def test_rank3_selection(self):
        # Moderate noise keeps spurious components from helping the
        # pseudo-missing predictions; seed 0 is one of the recovering seeds.
        ds, _ = rank3_dataset(
            n=100, m=40, seed=0, noise=0.2, frag_prob=0.4,
            lam=(1.0, 0.6, 0.36),
        )
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.06))
        grid = model.grid
        target_m = Subdomain.from_interval(grid, 0.78, 1.0)
        k, details = select_truncation_gcv("ano", model, ds, target_m)
        assert k == 3
        assert details["n_complete"] >= 2

    def test_pole_candidates_excluded(self):
        ds, _ = rank3_dataset(n=40, m=60, seed=31, noise=0.01)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        grid = model.grid
        target_m = Subdomain.from_interval(grid, 0.7, 1.0)
        from fdrecon import classify_complete

        n_c = len(classify_complete(ds))
        k, details = select_truncation_gcv("ano", model, ds, target_m)
        assert max(details["candidates"]) <= n_c - 1

    def test_ties_break_to_smaller_k(self):
        # Construct a direct tie by feeding equal RSS values through the
        # criterion: argmin on an ascending candidate grid returns the first.
        rss = np.array([5.0, 5.0, 7.0])
        ks = np.array([1, 2, 3])
        denom = (1 - ks / 10) ** 2
        gcv = rss / denom
        assert ks[int(np.argmin(gcv))] == 1

    def test_no_complete_curves(self):
        rng = np.random.default_rng(33)
        curves = []
        for i in range(10):
            u = np.sort(rng.uniform(0.2, 0.7, 30))
            curves.append(Curve(f"c{i}", u, rng.normal(size=30)))
        ds = build_dataset(curves, domain=(0, 1))
        model = rank3_model()
        from fdrecon import NotEstimableError
        from fdrecon.reconstruct import select_truncations_gcv

        target_m = Subdomain.from_interval(model.grid, 0.8, 1.0)
        with pytest.raises(NotEstimableError, match="no complete curves"):
            select_truncation_gcv("ano", model, ds, target_m)
        with pytest.raises(NotEstimableError, match="no complete curves"):
            select_kraus_ridge_gcv(model, ds, target_m)
        # The many-method call puts the error in every slot instead.
        got = select_truncations_gcv(["ano", "kraus", "pace"], model, ds, target_m)
        assert list(got) == ["ano", "kraus", "pace"]
        for result in got.values():
            assert isinstance(result, NotEstimableError)
            assert str(result) == "no complete curves for GCV"

    def test_rescaling_invariance(self):
        ds, _ = rank3_dataset(n=50, m=60, seed=34, noise=0.01)
        scaled = build_dataset(
            [Curve(c.id, c.u, 3.0 * c.y) for c in ds.curves], domain=(0, 1)
        )
        bw = Bandwidths(0.06, 0.05, 0.07)
        m1 = fit_reconstruction_model(ds, bandwidths=bw)
        m2 = fit_reconstruction_model(scaled, bandwidths=bw)
        tm = Subdomain.from_interval(m1.grid, 0.75, 1.0)
        k1, _ = select_truncation_gcv("ano", m1, ds, tm)
        k2, _ = select_truncation_gcv("ano", m2, scaled, tm)
        assert k1 == k2

    def test_shared_pass_matches_single_method_calls(self):
        from fdrecon.reconstruct import select_truncations_gcv

        ds, _ = rank3_dataset(n=60, m=60, seed=36, noise=0.05)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        # Off-grid ends, so the subdomain eigensystem has end nodes.
        tm = Subdomain.from_interval(model.grid, 0.1234, 0.8765).complement(model.grid)
        methods = ["ano", "ayes", "anoce", "ayesce", "pace", "kraus"]
        for k_candidates in (None, [1, 2, 4]):
            together = select_truncations_gcv(methods, model, ds, tm, k_candidates=k_candidates)
            for m in methods[:-1]:
                alone = select_truncation_gcv(m, model, ds, tm, k_candidates=k_candidates)
                assert together[m] == alone
            # kraus takes its ridge choice in the same call; K candidates do not apply.
            assert together["kraus"] == select_kraus_ridge_gcv(model, ds, tm)

    def test_kraus_ridge_selection_returns_candidate(self):
        ds, _ = rank3_dataset(n=60, m=80, seed=35, noise=0.02)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        tm = Subdomain.from_interval(model.grid, 0.75, 1.0)
        rho, details = select_kraus_ridge_gcv(model, ds, tm)
        assert rho > 0
        assert rho in details["gcv"] or details["gcv"] == {}


# The GCV selections as loops over the splits, one score, smoother and
# prediction call per split and method: the oracles the stacked
# evaluation in select_truncations_gcv and select_kraus_ridge_gcv must match.

GCV_METHODS = ["ano", "ayes", "anoce", "ayesce", "pace"]


def reference_splits(model, dataset, target_m, margin_fraction=0.1):
    """The complete curves split at target_m, in id order: (curve, inside, pseudo curve) or None."""
    from fdrecon import NotEstimableError, classify_complete

    complete = sorted(classify_complete(dataset, margin_fraction))
    if not complete:
        raise NotEstimableError("no complete curves for GCV")
    o_sub = target_m.complement(model.grid)
    by_id = {c.id: c for c in dataset.curves}
    splits = []
    for cid in complete:
        c = by_id[cid]
        inside = o_sub.contains(c.u)
        if np.all(inside) or np.unique(c.u[inside]).size < 2:
            splits.append(None)
        else:
            splits.append((c, inside, Curve(c.id, c.u[inside], c.y[inside])))
    return o_sub, splits


def end_smoothing(curve, eigsys, model):
    """Local-linear curve values at the subdomain interval ends and whether each fit held."""
    from fdrecon.smoothing import _smoothed_on

    ends = np.array(eigsys.subdomain.intervals).ravel()
    return _smoothed_on(curve.u, curve.y, ends, model.bandwidths.h_x)


def reference_aligned(curve, u, eigsys, model, xi):
    """The aligned expansion at u for every K up to len(xi), one column per K, K by K.

    At each K, an interval end takes the curve's smoothed value where its
    local fit held and the plain expansion's value at that K where it
    failed; a point mixes the ends' values, mean and eigenfunctions by
    ``_anchor_weights`` and adds the rest of the expansion.
    """
    from fdrecon.reconstruct import _anchor_weights

    ends = np.array(eigsys.subdomain.intervals).ravel()
    x, ok = end_smoothing(curve, eigsys, model)
    lo, hi, w = _anchor_weights(eigsys.subdomain.intervals, u)

    def mix(at_ends):
        wk = w.reshape((-1,) + (1,) * (at_ends.ndim - 1))
        return (1 - wk) * at_ends[lo] + wk * at_ends[hi]

    out = np.empty((u.size, xi.size))
    for k in range(1, xi.size + 1):
        phi_ends = eigsys.end_values[:, :k]
        x_k = np.where(ok, x, model.mean.at(ends) + phi_ends @ xi[:k])
        anchor = mix(x_k) + model.mean.at(u) - mix(model.mean.at(ends))
        out[:, k - 1] = anchor + (eigsys.extrapolated_at(u, k) - mix(phi_ends)) @ xi[:k]
    return out


def reference_truncations_gcv(
    methods, model, dataset, target_m, k_candidates=None, margin_fraction=0.1, quadrature="riemann"
):
    from fdrecon import DataError, FdreconError, InsufficientLocalDataError, NotEstimableError
    from fdrecon.reconstruct import _SCORE_ROUTES, _gcv_candidates, _gcv_choice, _scores

    o_sub, splits = reference_splits(model, dataset, target_m, margin_fraction)
    n_complete = len(splits)
    states = {}
    for method in methods:
        try:
            eigsys, candidates = _gcv_candidates(method, model, o_sub, n_complete, k_candidates)
        except FdreconError as exc:
            states[method] = exc
            continue
        k = max(candidates)
        states[method] = dict(
            eigsys=eigsys, candidates=candidates, k=k, rss=np.zeros(k), used=0, skipped=0, error=None
        )
    for split in splits:
        for method, st in states.items():
            if not isinstance(st, dict) or st["error"] is not None:
                continue
            if split is None:
                st["skipped"] += 1
                continue
            c, inside, pseudo = split
            eigsys, k = st["eigsys"], st["k"]
            u_miss, y_miss = c.u[~inside], c.y[~inside]
            try:
                scores = _scores(_SCORE_ROUTES[method], pseudo, model, eigsys, k, quadrature, True)
                if method in ("ayes", "ayesce"):
                    preds = reference_aligned(pseudo, u_miss, eigsys, model, scores.values)
                else:
                    base, basis = model.mean.at(u_miss), eigsys.extrapolated_at(u_miss, k)
                    preds = base[:, None] + np.cumsum(basis * scores.values[None, :], axis=1)
            except (NotEstimableError, InsufficientLocalDataError, DataError):
                st["skipped"] += 1
                continue
            except FdreconError as exc:
                st["error"] = exc
                continue
            resid = preds - y_miss[:, None]
            resid = np.where(np.isfinite(resid), resid, 0.0)
            st["rss"] += np.sum(resid * resid, axis=0) / y_miss.size
            st["used"] += 1
    results = {}
    for method, st in states.items():
        if not isinstance(st, dict):
            results[method] = st
        elif st["error"] is not None:
            results[method] = st["error"]
        elif st["used"] == 0:
            results[method] = NotEstimableError("no complete curves for GCV (all splits degenerate)")
        else:
            results[method] = _gcv_choice(
                st["candidates"], st["rss"], n_complete, st["used"], st["skipped"]
            )
    return results


def reference_ridge_gcv(model, dataset, target_m, margin_fraction=0.1):
    from fdrecon import NotEstimableError
    from fdrecon.reconstruct import KRAUS_RHO_GRID_DECADES, KRAUS_RHO_GRID_SIZE, _RidgeOperator
    from fdrecon.smoothing import _smoothed_on

    o_sub, splits = reference_splits(model, dataset, target_m, margin_fraction)
    n_complete = len(splits)
    op = _RidgeOperator(model, o_sub)
    trace = float(op.nu.sum())
    scale = max(trace / op.idx.size, 1e-300)
    exponents = np.linspace(*KRAUS_RHO_GRID_DECADES, KRAUS_RHO_GRID_SIZE)
    rho_candidates = [float(scale * 10.0**e) for e in exponents]
    points = model.grid.points[op.idx]
    prepared = []
    for c, inside, pseudo in filter(None, splits):
        smoothed, ok = _smoothed_on(pseudo.u, pseudo.y, points, model.bandwidths.h_x)
        if not np.any(ok):
            continue
        good, bad = np.nonzero(ok)[0], np.nonzero(~ok)[0]
        nearest = np.argmin(np.abs(good[None, :] - bad[:, None]), axis=1)
        smoothed[bad] = smoothed[good[nearest]]
        prepared.append((c, inside, op.d * (smoothed - model.mean.values[op.idx])))
    if not prepared:
        raise NotEstimableError("no complete curves for GCV (all splits degenerate)")
    m_points = model.grid.points[op.m_idx]
    results = {}
    for rho in rho_candidates:
        df = float(np.sum(op.nu / (op.nu + rho)))
        if df >= n_complete:
            continue
        rss = 0.0
        for c, inside, z0 in prepared:
            preds = np.interp(c.u[~inside], m_points, op.predict(z0, rho))
            resid = c.y[~inside] - preds
            resid = resid[np.isfinite(resid)]
            if resid.size:
                rss += float(resid @ resid) / resid.size
        results[rho] = rss / (1.0 - df / n_complete) ** 2
    best = min(results, key=lambda r: (results[r], r)) if results else rho_candidates[-1]
    return float(best), {"gcv": results, "trace": trace}


def reference_gcv(
    methods, model, dataset, observed, k_candidates=None, margin_fraction=0.1, quadrature="riemann"
):
    """``select_gcv`` by the reference loops: once per entry, repeats included, on its complement.

    An error is returned in the slots it stops.
    """
    from fdrecon import FdreconError

    truncation = [m for m in methods if m != "kraus"]
    results = []
    for o_sub in observed:
        target_m = o_sub.complement(model.grid)
        try:
            result = reference_truncations_gcv(
                truncation, model, dataset, target_m, k_candidates, margin_fraction, quadrature
            )
        except FdreconError as exc:
            result = dict.fromkeys(truncation, exc)
        if "kraus" in methods:
            try:
                result["kraus"] = reference_ridge_gcv(model, dataset, target_m, margin_fraction)
            except FdreconError as exc:
                result["kraus"] = exc
        results.append({m: result[m] for m in methods})
    return results


def assert_same_selection(got, want):
    """Equal choice, counts and error types; tables to 1e-13 relative."""
    from fdrecon import FdreconError

    if isinstance(want, FdreconError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, FdreconError), got
    (k, details), (k_want, details_want) = got, want
    assert k == k_want
    for name, value in details_want.items():
        if isinstance(value, dict):
            assert list(details[name]) == list(value)
            np.testing.assert_allclose(
                list(details[name].values()), list(value.values()), rtol=1e-13, atol=0
            )
        else:
            assert details[name] == value, name


def assert_gcv_matches_reference(model, ds, target_m, **kwargs):
    from fdrecon import FdreconError
    from fdrecon.reconstruct import select_truncations_gcv

    got = select_truncations_gcv(GCV_METHODS, model, ds, target_m, **kwargs)
    want = reference_truncations_gcv(GCV_METHODS, model, ds, target_m, **kwargs)
    assert list(got) == list(want)
    for method in GCV_METHODS:
        assert_same_selection(got[method], want[method])
    if "k_candidates" in kwargs or "quadrature" in kwargs:
        return got
    try:
        want_ridge = reference_ridge_gcv(model, ds, target_m)
    except FdreconError as exc:
        with pytest.raises(type(exc), match="degenerate"):
            select_kraus_ridge_gcv(model, ds, target_m)
    else:
        assert_same_selection(select_kraus_ridge_gcv(model, ds, target_m), want_ridge)
    return got


def interior_target_dataset(seed=40):
    """rank-3 curves plus complete curves with odd splits at [0.05, 0.95] or [0.4, 0.6]."""
    ds, _ = rank3_dataset(n=40, m=30, seed=seed, noise=0.1)
    rng = np.random.default_rng(seed)
    extra = [
        # Nothing inside [0.4, 0.6]: nothing pseudo-missing there.
        Curve("d0", np.r_[np.linspace(0.0, 0.35, 8), np.linspace(0.65, 1.0, 8)], rng.normal(size=16)),
        # Two points, but one abscissa, outside [0.05, 0.95].
        Curve("d1", np.r_[0.02, 0.02, np.linspace(0.2, 0.93, 10)], rng.normal(size=12)),
        # Outside [0.05, 0.95] one point at each end: too few to smooth anywhere there.
        Curve("d2", np.array([0.0, 0.3, 0.5, 0.7, 0.999]), rng.normal(size=5)),
    ]
    return build_dataset(list(ds.curves) + extra, domain=(0, 1))


class TestGcvReferenceOracles:
    @pytest.mark.parametrize("dgp", [1, 2, 3, 4])
    def test_dgp_targets_all_methods(self, dgp):
        from fdrecon import DgpConfig, generate_dgp

        cfg = DgpConfig(dgp=dgp, n=40, m=15 if dgp in (1, 2) else None, seed=dgp + 10,
                        replications=1, n_targets=8)
        ds, targets = generate_dgp(cfg, 0)
        model = fit_reconstruction_model(ds)
        for t, curve in enumerate(targets.curves):
            target_m = curve_subdomain(curve, model.grid).complement(model.grid)
            assert_gcv_matches_reference(model, ds, target_m)
            if t == 0:
                assert_gcv_matches_reference(model, ds, target_m, quadrature="trapezoid")
                assert_gcv_matches_reference(model, ds, target_m, k_candidates=[1, 3, 4])

    def test_interior_missing_region(self):
        ds = interior_target_dataset()
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        target_m = Subdomain.from_interval(model.grid, 0.4123, 0.6042)
        o_sub = target_m.complement(model.grid)
        assert len(o_sub.intervals) == 2
        got = assert_gcv_matches_reference(model, ds, target_m)
        assert all(isinstance(r, tuple) for r in got.values())
        # d0 observes nothing inside the target's missing region.
        assert got["ano"][1]["n_skipped"] >= 1

    def test_degenerate_splits(self):
        from fdrecon import NotEstimableError, classify_complete

        ds = interior_target_dataset(seed=41)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        target_m = Subdomain.from_interval(model.grid, 0.05, 0.95)
        _, splits = reference_splits(model, ds, target_m)
        # d1 keeps two observations outside the target's missing region, at one abscissa.
        assert splits[sorted(classify_complete(ds)).index("d1")] is None
        got = assert_gcv_matches_reference(model, ds, target_m)
        assert got["ano"][1]["n_skipped"] == sum(s is None for s in splits)
        # The ridge GCV leaves d2 out.
        from fdrecon.reconstruct import _RidgeOperator

        o_sub = target_m.complement(model.grid)
        op = _RidgeOperator(model, o_sub)
        d2 = ds.curve("d2")
        inside = o_sub.contains(d2.u)
        assert not op.observe(d2.u[inside], d2.y[inside])[2][0]
        # Nothing but degenerate splits: no method can select.
        d1 = ds.curve("d1")
        only = build_dataset([d1, Curve("d2", d1.u, 2.0 * d1.y)], domain=(0, 1))
        got = assert_gcv_matches_reference(model, only, target_m)
        for method in GCV_METHODS:
            assert isinstance(got[method], NotEstimableError)

    @staticmethod
    def split_sizes_setup():
        ds, _ = rank3_dataset(n=60, m=20, seed=42, noise=0.1)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        target_m = Subdomain.from_interval(model.grid, 0.7, 1.0)
        _, splits = reference_splits(model, ds, target_m)
        sizes = [s[2].n_obs for s in splits if s is not None]
        # Systems of more points than the first split's fail below, so some
        # splits are solved before the first failure and some after it.
        assert sizes[0] < max(sizes)
        return ds, model, target_m, sizes[0]

    def test_non_positive_definite_ce_system_ends_the_method(self, monkeypatch):
        from fdrecon import IllConditionedError, scores

        ds, model, target_m, limit = self.split_sizes_setup()
        real = scores._observation_covariance
        monkeypatch.setattr(
            scores, "_observation_covariance",
            lambda phi, eigsys, sigma2: -real(phi, eigsys, sigma2) if phi.shape[0] > limit
            else real(phi, eigsys, sigma2),
        )
        got = assert_gcv_matches_reference(model, ds, target_m)
        for method in ("anoce", "ayesce", "pace"):
            assert isinstance(got[method], IllConditionedError)
        assert isinstance(got["ano"], tuple) and isinstance(got["ayes"], tuple)

    def test_skipping_errors_skip_the_split(self, monkeypatch):
        from fdrecon import DataError, scores

        ds, model, target_m, limit = self.split_sizes_setup()
        real = scores._solve_spd

        def solve(S, rhs):
            if S.shape[0] > limit:
                raise DataError("forced")
            return real(S, rhs)

        monkeypatch.setattr(scores, "_solve_spd", solve)
        got = assert_gcv_matches_reference(model, ds, target_m)
        for method in ("anoce", "ayesce", "pace"):
            assert 0 < got[method][1]["n_used"] < got["ano"][1]["n_used"]
            assert got[method][1]["n_skipped"] > got["ano"][1]["n_skipped"]

    @pytest.mark.parametrize("seed", [5, 6, 7, 11])
    def test_run_study_reports_equal_with_the_references(self, seed, monkeypatch):
        # On DGPs 3 and 4 lattice targets share geometries, which select_gcv
        # evaluates once and the reference evaluates per target.
        from fdrecon import DgpConfig, run_study, simulation

        drop = lambda meta: {k: v for k, v in meta.items() if k != "runtime_s"}  # noqa: E731
        studies = [
            (DgpConfig(dgp=1, n=40, m=12, seed=seed, replications=1, n_targets=12),
             ["ano", "ayes", "anoce", "ayesce", "kraus"]),
            (DgpConfig(dgp=3, n=40, seed=seed, replications=1, n_targets=12),
             ["ayes", "pace", "ano", "kraus"]),
            (DgpConfig(dgp=4, n=40, seed=seed, replications=1, n_targets=12),
             ["ayes", "ano", "kraus", "pace"]),
        ]
        for cfg, methods in studies:
            report = run_study(cfg, methods)
            with monkeypatch.context() as patch:
                patch.setattr(simulation, "select_gcv", reference_gcv)
                want = run_study(cfg, methods)
            assert report.rows == want.rows
            assert drop(report.metadata) == drop(want.metadata)


def distinct_target_parts(model, targets):
    """The observed parts of the targets, one per distinct geometry, in target order."""
    parts = {}
    for curve in targets.curves:
        o_sub = curve_subdomain(curve, model.grid)
        parts.setdefault(o_sub.key(), o_sub)
    return list(parts.values())


def assert_identical(got, want):
    """The same (choice, details) bit for bit, or errors of one type and message."""
    from fdrecon import FdreconError

    if isinstance(want, FdreconError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


def assert_many_matches_one_geometry_calls(model, ds, observed, **kwargs):
    """Each part's result equals its call alone bit for bit, and the reference loop.

    The one-geometry functions take the part's complement, whose own
    complement snaps an interval end within 1e-9 of a grid point to that
    point; where that moves an end, they are compared to the tables'
    tolerance. (The one-part ridge case meets the reference loop in
    ``assert_gcv_matches_reference``.)
    """
    from fdrecon import FdreconError
    from fdrecon.reconstruct import select_truncations_gcv

    def outcome(select, *args):
        try:
            return select(*args)
        except FdreconError as exc:
            return exc

    methods = GCV_METHODS + ["kraus"]
    got = select_gcv(methods, model, ds, observed, **kwargs)
    assert len(got) == len(observed)
    for o_sub, many in zip(observed, got):
        (alone,) = select_gcv(methods, model, ds, [o_sub], **kwargs)
        target_m = o_sub.complement(model.grid)
        same_part = target_m.complement(model.grid).key() == o_sub.key()
        one = select_truncations_gcv(methods, model, ds, target_m, **kwargs)
        want = reference_truncations_gcv(GCV_METHODS, model, ds, target_m, **kwargs)
        assert list(many) == list(alone) == list(one) == methods
        assert list(want) == GCV_METHODS
        for method in methods:
            assert_identical(many[method], alone[method])
            (assert_identical if same_part else assert_same_selection)(many[method], one[method])
        for method in GCV_METHODS:
            assert_same_selection(many[method], want[method])
        one_ridge = outcome(select_kraus_ridge_gcv, model, ds, target_m)
        (assert_identical if same_part else assert_same_selection)(many["kraus"], one_ridge)
    return got


class TestManyGeometryGcv:
    @pytest.mark.parametrize("dgp", [1, 2, 3, 4])
    def test_dgp_targets_equal_one_geometry_calls(self, dgp):
        from fdrecon import DgpConfig, generate_dgp

        cfg = DgpConfig(dgp=dgp, n=40, m=15 if dgp in (1, 2) else None, seed=dgp + 20,
                        replications=1, n_targets=20)
        ds, targets = generate_dgp(cfg, 0)
        model = fit_reconstruction_model(ds)
        observed = distinct_target_parts(model, targets)
        if dgp in (3, 4):
            # Lattice targets share geometries; each distinct one is evaluated once.
            assert len(observed) < len(targets.curves)
        got = assert_many_matches_one_geometry_calls(model, ds, observed)
        assert all(isinstance(r, tuple) for part in got for r in part.values())

    def test_candidates_and_trapezoid(self):
        from fdrecon import DgpConfig, generate_dgp

        cfg = DgpConfig(dgp=1, n=40, m=15, seed=31, replications=1, n_targets=10)
        ds, targets = generate_dgp(cfg, 0)
        model = fit_reconstruction_model(ds)
        observed = distinct_target_parts(model, targets)
        assert_many_matches_one_geometry_calls(model, ds, observed, k_candidates=[1, 3, 4])
        assert_many_matches_one_geometry_calls(model, ds, observed, quadrature="trapezoid")

    def test_more_parts_than_one_pass_takes(self, monkeypatch):
        from fdrecon import reconstruct

        ds, _ = rank3_dataset(n=40, m=20, seed=44, noise=0.05)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        observed = [Subdomain.from_interval(model.grid, 0.0, b) for b in (0.5, 0.61, 0.7, 0.83)]
        observed.append(Subdomain.from_interval(model.grid, 0.4123, 0.6042).complement(model.grid))
        monkeypatch.setattr(reconstruct, "GCV_PARTS_PER_PASS", 2)
        monkeypatch.setattr(reconstruct, "RIDGE_GCV_PARTS_PER_PASS", 2)
        assert_many_matches_one_geometry_calls(model, ds, observed)

    def test_non_estimable_part_leaves_the_others(self):
        from fdrecon import NotEstimableError

        ds, _ = rank3_dataset(n=40, m=30, seed=43, noise=0.05)
        grid = ds.grid
        band = CovarianceEstimate.from_function(
            grid, lambda u, v: sum(LAM[k] * PHI[k](u) * PHI[k](v) for k in range(3)),
            band_halfwidth=0.35,
        )
        model = ReconstructionModel(
            MeanEstimate.from_function(grid, MU), band, NoiseVariance(0.0025),
            Bandwidths(0.06, 0.05, 0.07), ds,
        )
        observed = [
            Subdomain.from_interval(grid, 0.1, 0.3),
            Subdomain.from_interval(grid, 0.0, 0.8),
            Subdomain.from_interval(grid, 0.62, 0.9),
        ]
        got = assert_many_matches_one_geometry_calls(model, ds, observed)
        for method in GCV_METHODS[:-1]:
            assert isinstance(got[0][method], tuple) and isinstance(got[2][method], tuple)
            assert isinstance(got[1][method], NotEstimableError)
        assert all(isinstance(part["pace"], NotEstimableError) for part in got)

    def test_no_complete_curves(self):
        from fdrecon import NotEstimableError

        rng = np.random.default_rng(45)
        curves = [Curve(f"f{i}", np.sort(rng.uniform(0.2, 0.7, 12)), rng.normal(size=12))
                  for i in range(10)]
        ds = build_dataset(curves, domain=(0, 1))
        model = rank3_model()
        observed = [Subdomain.from_interval(model.grid, 0.2, 0.7),
                    Subdomain.from_interval(model.grid, 0.0, 0.5)]
        # The error is in every slot of every part; nothing is raised.
        got = select_gcv(GCV_METHODS + ["kraus"], model, ds, observed)
        assert len(got) == 2
        for part in got:
            assert list(part) == GCV_METHODS + ["kraus"]
            for result in part.values():
                assert isinstance(result, NotEstimableError)
                assert str(result) == "no complete curves for GCV"
        # The one-geometry functions raise it.
        with pytest.raises(NotEstimableError, match="no complete curves for GCV"):
            select_truncation_gcv("ano", model, ds, observed[0].complement(model.grid))
        with pytest.raises(NotEstimableError, match="no complete curves for GCV"):
            select_kraus_ridge_gcv(model, ds, observed[0].complement(model.grid))

    def test_run_study_selects_once_per_replication(self, monkeypatch):
        from fdrecon import DgpConfig, generate_dgp, run_study, simulation

        cfg = DgpConfig(dgp=3, n=40, seed=8, replications=2, n_targets=15)
        calls = []
        real = simulation.select_gcv

        def spy(methods, model, dataset, observed, **kwargs):
            calls.append((list(methods), [o_sub.key() for o_sub in observed]))
            return real(methods, model, dataset, observed, **kwargs)

        monkeypatch.setattr(simulation, "select_gcv", spy)
        run_study(cfg, ["ayes", "ano", "pace"])
        ds, targets = generate_dgp(cfg, 0)
        grid = fit_reconstruction_model(ds).grid
        want = [curve_subdomain(curve, grid).key() for curve in targets.curves]
        assert calls == [(["ayes", "ano", "pace"], want)] * 2

    def test_run_study_reconstructs_each_target_at_its_own_k(self, monkeypatch):
        from fdrecon import DgpConfig, generate_dgp, run_study, simulation

        cfg = DgpConfig(dgp=1, n=40, m=12, seed=9, replications=1, n_targets=10)
        seen = {}
        real = simulation.reconstruct_with_method

        def spy(method, curve, model, k=None, rho=None, **kwargs):
            seen[method, curve.id] = (k if rho is None else rho, model)
            return real(method, curve, model, k=k, rho=rho, **kwargs)

        monkeypatch.setattr(simulation, "reconstruct_with_method", spy)
        run_study(cfg, ["ano", "ayesce", "kraus"])
        ds, targets = generate_dgp(cfg, 0)
        for curve in targets.curves:
            for method in ("ano", "ayesce", "kraus"):
                tuning, model = seen[method, curve.id]
                target_m = curve_subdomain(curve, model.grid).complement(model.grid)
                if method == "kraus":
                    assert tuning == select_kraus_ridge_gcv(model, ds, target_m)[0]
                else:
                    assert tuning == select_truncation_gcv(method, model, ds, target_m)[0]
        assert len({k for (m, _), (k, _) in seen.items() if m != "kraus"}) > 1
        assert len({rho for (m, _), (rho, _) in seen.items() if m == "kraus"}) > 1

    def test_run_study_selects_rho_once_per_replication(self, monkeypatch):
        from fdrecon import DgpConfig, run_study, simulation

        cfg = DgpConfig(dgp=3, n=40, seed=8, replications=2, n_targets=15)
        calls = []
        real = simulation.select_gcv

        def spy(methods, model, dataset, observed, **kwargs):
            calls.append((list(methods), len(observed), len({o_sub.key() for o_sub in observed})))
            return real(methods, model, dataset, observed, **kwargs)

        monkeypatch.setattr(simulation, "select_gcv", spy)
        run_study(cfg, ["kraus"])
        assert len(calls) == 2
        methods, n_targets, n_distinct = calls[0]
        assert methods == ["kraus"] and n_targets == 15 and 1 < n_distinct < 15

    def test_kraus_reconstruction_reuses_the_gcv_operator(self, monkeypatch):
        from fdrecon import DgpConfig, generate_dgp, reconstruct

        cfg = DgpConfig(dgp=1, n=40, m=15, seed=12, replications=1, n_targets=6)
        ds, targets = generate_dgp(cfg, 0)
        model = fit_reconstruction_model(ds)
        observed = distinct_target_parts(model, targets)
        assert len(observed) == len(targets.curves)
        chosen = [part["kraus"] for part in select_gcv(["kraus"], model, ds, observed)]
        built = []
        real = reconstruct._RidgeOperator.__init__

        def init(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(reconstruct._RidgeOperator, "__init__", init)
        fresh = fit_reconstruction_model(ds)
        for curve, (rho, _) in zip(targets.curves, chosen):
            rec = reconstruct_with_method("kraus", curve, model, rho=rho)
            want = reconstruct_with_method("kraus", curve, fresh, rho=rho)
            np.testing.assert_array_equal(rec.values, want.values)
        assert len(built) == len(observed)  # the fresh model's operators only


class TestSelectGcv:
    def test_repeated_parts_and_mixed_methods(self, monkeypatch):
        from fdrecon import DataError, reconstruct

        ds, _ = rank3_dataset(n=40, m=20, seed=46, noise=0.05)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        grid = model.grid
        a = Subdomain.from_interval(grid, 0.0, 0.61)
        b = Subdomain.from_interval(grid, 0.3, 1.0)
        hole = Subdomain.from_interval(grid, 0.4123, 0.6042).complement(grid)
        whole = model.full_subdomain()
        # Repeats, one of them an equal geometry built anew, across passes of two parts.
        observed = [a, b, a, whole, hole, Subdomain.from_interval(grid, 0.3, 1.0), a, whole]
        methods = ["ayes", "kraus", "ano", "pace", "anoce", "ayesce"]
        monkeypatch.setattr(reconstruct, "GCV_PARTS_PER_PASS", 2)
        split = []

        class CountingBatch(reconstruct._SplitBatch):
            def __init__(self, dataset, parts, margin_fraction):
                split.extend(o_sub.key() for o_sub in parts)
                super().__init__(dataset, parts, margin_fraction)

        monkeypatch.setattr(reconstruct, "_SplitBatch", CountingBatch)
        got = select_gcv(methods, model, ds, observed)
        # Each distinct geometry is split once, in order of first appearance.
        assert split == [a.key(), b.key(), whole.key(), hole.key()]
        assert len(got) == len(observed)
        assert got[0] is not got[2]
        for o_sub, slot in zip(observed, got):
            (alone,) = select_gcv(methods, model, ds, [o_sub])
            assert list(slot) == list(alone) == methods
            for method in methods:
                assert_identical(slot[method], alone[method])
        for j, o_sub in enumerate(observed):
            for method in methods:
                if o_sub is whole:
                    assert isinstance(got[j][method], DataError)
                    assert "covers the whole grid" in str(got[j][method])
                else:
                    assert isinstance(got[j][method], tuple)

    def test_unknown_method_and_empty_input(self):
        from fdrecon import UsageError

        ds, _ = rank3_dataset(n=40, m=20, seed=46, noise=0.05)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        assert select_gcv(["ano", "kraus"], model, ds, []) == []
        (part,) = select_gcv(["ano", "bogus"], model, ds, [model.full_subdomain()])
        assert isinstance(part["bogus"], UsageError) and "unknown method" in str(part["bogus"])

    def test_kraus_tunes_on_the_curves_own_observed_part(self, monkeypatch):
        # The curve ends at 0.7, within 1e-9 of the grid point 0.7000000000000001:
        # the complement of its complement would end on the grid point.
        from fdrecon import reconstruct

        ds, _ = rank3_dataset(n=40, m=20, seed=44, noise=0.05)
        model = fit_reconstruction_model(ds, bandwidths=Bandwidths(0.06, 0.05, 0.07))
        u = np.linspace(0.0, 0.7, 30)
        curve = Curve("t", u, rank3_curve_values(u, np.array([0.5, -1.0, 0.3])))
        o_sub = curve_subdomain(curve, model.grid)
        assert o_sub.complement(model.grid).complement(model.grid).key() != o_sub.key()
        seen = []
        real = reconstruct.select_gcv

        def spy(methods, model, dataset, observed, **kwargs):
            seen.append((list(methods), [part.key() for part in observed]))
            return real(methods, model, dataset, observed, **kwargs)

        monkeypatch.setattr(reconstruct, "select_gcv", spy)
        rec = reconstruct_kraus(curve, model)
        assert seen == [(["kraus"], [o_sub.key()])]
        assert rec.diagnostics["rho"] == real(["kraus"], model, ds, [o_sub])[0]["kraus"][0]
