"""Tests for the synthetic generators and the study driver."""

import numpy as np
import pytest

from fdrecon import DgpConfig, StudyReport, UsageError, generate_dgp, run_study
from fdrecon.simulation import (
    OBSERVATION_LATTICE_SIZE,
    dgp_covariance_function,
    dgp_mean_function,
    dgp_shape_functions,
)


class TestGenerateDgp:
    def test_deterministic(self):
        cfg = DgpConfig(dgp=1, n=12, m=15, seed=42, replications=2)
        a1, t1 = generate_dgp(cfg, 0)
        a2, t2 = generate_dgp(cfg, 0)
        for c1, c2 in zip(a1.curves, a2.curves):
            assert np.array_equal(c1.u, c2.u)
            assert np.array_equal(c1.y, c2.y)
        assert np.array_equal(t1.truth, t2.truth)

    def test_replications_differ_targets_fixed(self):
        cfg = DgpConfig(dgp=1, n=12, m=15, seed=42, replications=2)
        a1, t1 = generate_dgp(cfg, 0)
        a2, t2 = generate_dgp(cfg, 1)
        assert not np.array_equal(a1.curves[0].u, a2.curves[0].u)
        assert np.array_equal(t1.truth, t2.truth)
        assert np.array_equal(t1.curves[0].u, t2.curves[0].u)

    def test_lattice_abscissae_dgp3(self):
        cfg = DgpConfig(dgp=3, n=20, seed=1, replications=1)
        ds, _ = generate_dgp(cfg, 0)
        lattice = np.arange(1, OBSERVATION_LATTICE_SIZE + 1) / OBSERVATION_LATTICE_SIZE
        for c in ds.curves:
            assert np.all(np.isin(c.u, lattice))

    def test_fragment_width_law_dgp1(self):
        # Mean partial-fragment width is 0.775 - 0.225 = 0.55; Monte-Carlo
        # mean within three standard errors of the drawn intervals.
        from fdrecon.simulation import _draw_fragment, _stream

        n = 2000
        widths = []
        n_partial = 0
        for i in range(n):
            lo, hi = _draw_fragment(_stream(9, 1, i, 0), 1, False)
            if (lo, hi) != (0.0, 1.0):
                n_partial += 1
                widths.append(hi - lo)
        widths = np.array(widths)
        assert abs(n_partial / n - 0.5) < 3 * 0.5 / np.sqrt(n)
        se = widths.std(ddof=1) / np.sqrt(widths.size)
        assert abs(widths.mean() - 0.55) < 3 * se

    def test_dgp1_dgp2_share_everything_but_noise(self):
        cfg1 = DgpConfig(dgp=1, n=15, m=20, seed=11, replications=1)
        cfg2 = DgpConfig(dgp=2, n=15, m=20, seed=11, replications=1)
        d1, _ = generate_dgp(cfg1, 0)
        d2, _ = generate_dgp(cfg2, 0)
        s1 = np.sqrt(0.0125)
        s2 = np.sqrt(0.125)
        for c1, c2 in zip(d1.curves, d2.curves):
            assert np.array_equal(c1.u, c2.u)
            # same underlying curve and same standard normal noise draws
            eps = (c2.y - c1.y) / (s2 - s1)
            recovered_x1 = c1.y - s1 * eps
            recovered_x2 = c2.y - s2 * eps
            assert np.allclose(recovered_x1, recovered_x2, atol=1e-10)

    def test_targets_always_partial(self):
        cfg = DgpConfig(dgp=1, n=5, m=15, seed=3, replications=1, n_targets=50)
        _, targets = generate_dgp(cfg, 0)
        for c in targets.curves:
            lo, hi = c.observed_interval
            assert lo > 0.0 or hi < 1.0

    def test_truth_matches_observations_noiseless(self):
        cfg = DgpConfig(dgp=3, n=5, seed=4, replications=1, n_targets=5)
        _, targets = generate_dgp(cfg, 0)
        for t, c in enumerate(targets.curves):
            interp = np.interp(c.u, targets.grid.points, targets.truth[t])
            # noiseless lattice observations sit on the true curve up to the
            # O(delta^2) interpolation error of the gridded truth
            curv = np.max(np.abs(np.diff(targets.truth[t], 2))) / targets.grid.delta**2
            tol = curv * targets.grid.delta**2 / 8 + 1e-9
            assert np.allclose(interp, c.y, atol=tol)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            DgpConfig(dgp=5, n=10, m=10)
        with pytest.raises(UsageError):
            DgpConfig(dgp=1, n=10, m=None)
        with pytest.raises(UsageError):
            DgpConfig(dgp=1, n=1, m=10)


class TestShapeFunctions:
    def test_covariance_consistent_with_shapes(self):
        f, g = dgp_shape_functions(1)
        gamma = dgp_covariance_function(1)
        u = np.array([0.1, 0.4])
        v = np.array([0.3, 0.9])
        assert np.allclose(gamma(u, v), f(u) * f(v) + g(u) * g(v))

    def test_mean_functions(self):
        u = np.array([0.25, 0.5])
        assert np.allclose(dgp_mean_function(1)(u), u + np.sin(2 * np.pi * u))
        assert np.allclose(dgp_mean_function(3)(u), u**2 + np.sin(2 * np.pi * u))


@pytest.fixture(scope="module")
def small_report():
    cfg = DgpConfig(dgp=1, n=40, m=15, seed=2, replications=3, n_targets=12)
    return run_study(cfg, ["ayesce", "ano"])


class TestRunStudy:

    def test_decomposition_identity(self, small_report):
        for row in small_report.rows:
            assert row["mse"] == pytest.approx(row["bias2"] + row["var"], abs=1e-10)

    def test_ratio_normalization(self, small_report):
        ratios = [r["mse_ratio"] for r in small_report.rows]
        assert ratios[0] == pytest.approx(1.0)
        assert all(r >= 1.0 for r in ratios)

    def test_single_method_ratio_one(self):
        cfg = DgpConfig(dgp=1, n=40, m=15, seed=2, replications=2, n_targets=6)
        rep = run_study(cfg, ["ano"])
        assert rep.rows[0]["mse_ratio"] == pytest.approx(1.0)

    def test_deterministic_and_thread_invariant(self):
        cfg = DgpConfig(dgp=1, n=30, m=15, seed=5, replications=3, n_targets=8)
        r1 = run_study(cfg, ["ano", "ayes"], threads=1)
        r2 = run_study(cfg, ["ano", "ayes"], threads=3)
        for a, b in zip(r1.rows, r2.rows):
            assert a["method"] == b["method"]
            assert a["mse"] == b["mse"]
            assert a["bias2"] == b["bias2"]

    def test_one_generate_dgp_call_per_replication(self, monkeypatch):
        import fdrecon.simulation as sim

        calls = []
        original = sim.generate_dgp

        def counting(config, rep):
            calls.append(rep)
            return original(config, rep)

        monkeypatch.setattr(sim, "generate_dgp", counting)
        cfg = DgpConfig(dgp=1, n=30, m=15, seed=5, replications=3, n_targets=4)
        run_study(cfg, ["ano"])
        assert sorted(calls) == [0, 1, 2]

    def test_unknown_method_rejected(self):
        cfg = DgpConfig(dgp=1, n=10, m=15, seed=1, replications=1)
        with pytest.raises(UsageError):
            run_study(cfg, ["nope"])

    def test_csv_layout(self, small_report, tmp_path):
        out = tmp_path / "table.csv"
        small_report.write_csv(out, header_comment="cfg")
        lines = out.read_text().splitlines()
        assert lines[0] == "# cfg"
        assert lines[1] == "Method,MSE_ratio,MSE,Bias2,Var"
        assert len(lines) == 2 + len(small_report.rows)

    def test_zero_noise_low_rank_recovery(self):
        # Exact-recovery regime: a synthetic rank-2 study via DGP3 machinery
        # is not applicable, so check instead that reported MSE is finite and
        # the report is internally consistent on a tiny run.
        cfg = DgpConfig(dgp=3, n=30, seed=3, replications=2, n_targets=6)
        rep = run_study(cfg, ["ano"])
        assert np.isfinite(rep.rows[0]["mse"])
