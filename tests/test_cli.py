"""CLI tests: subcommands, exit codes, determinism and golden outputs."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from fdrecon import Curve, build_dataset, write_dataset_csv
from fdrecon import cli
from fdrecon.cli import main

FIT_FLAGS = ["--domain", "0", "1", "--h-x", "0.1", "--h-mu", "0.06", "--h-gamma", "0.08"]


def make_input(tmp_path, seed=0, n=50, m=60, name="data.csv"):
    rng = np.random.default_rng(seed)
    phi = [
        lambda u: np.ones_like(u),
        lambda u: np.sqrt(3.0) * (2.0 * u - 1.0),
    ]
    curves = []
    for i in range(n):
        if i == 0 or rng.random() < 0.5:
            a, b = 0.0, 1.0
        else:
            a, b = rng.uniform(0, 0.2), rng.uniform(0.8, 1.0)
        u = np.sort(rng.uniform(a, b, m))
        if i == 0:
            u[0], u[-1] = a, b
        y = 1.0 + 0.5 * u + rng.normal() * phi[0](u) + 0.5 * rng.normal() * phi[1](u)
        curves.append(Curve(f"c{i:03d}", u, y + 0.05 * rng.normal(size=m)))
    path = tmp_path / name
    write_dataset_csv(build_dataset(curves, domain=(0, 1)), path)
    return path


class TestFit:
    def test_writes_artifacts_and_summary(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        out = tmp_path / "fit"
        code = main([
            "fit", "--input", str(inp), "--domain", "0", "1", "--out-dir", str(out),
            "--h-x", "0.1", "--h-mu", "0.06", "--h-gamma", "0.08",
        ])
        assert code == 0
        for name in ("mean.csv", "covariance.csv", "mask.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_curves"] == 50
        assert 0 <= summary["sigma2"]

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        inp = make_input(tmp_path)
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(inp), "--out-dir", str(out), "--emit-scores", *FIT_FLAGS]) == 0
        for name in ("mean.csv", "covariance.csv", "mask.csv", "eigensystem.csv", "scores.csv"):
            lines = (out / name).read_text().splitlines()[1:]  # below the config comment
            header, *rows = [line.split(",") for line in lines]
            cells = [cell for row in rows for cell in row]
            if name == "scores.csv":
                cells = [row[2] for row in rows]
            elif name == "eigensystem.csv":
                cells += [h.removeprefix("lambda=") for h in header[1:]]
            elif name != "mean.csv":
                cells += header
            if name == "covariance.csv":  # a non-estimable cell is blank
                cells = [cell for cell in cells if cell]
            assert cells
            for cell in cells:
                float(cell)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_zero_bandwidth_usage_error(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        code = main([
            "fit", "--input", str(inp), "--out-dir", str(tmp_path / "o"),
            "--h-gamma", "0",
        ])
        assert code == 2

    def test_error_json(self, tmp_path, capsys):
        code = main(["--error-json", "fit", "--input", str(tmp_path / "x.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "UsageError"


class TestReconstruct:
    def test_complete_curve_all_observed(self, tmp_path):
        inp = make_input(tmp_path)
        out = tmp_path / "rec"
        code = main([
            "reconstruct", "--input", str(inp), "--domain", "0", "1",
            "--out-dir", str(out), "--curve-id", "c000", "--method", "ayesce",
            "--k", "2", "--h-x", "0.1", "--h-mu", "0.06", "--h-gamma", "0.08",
        ])
        assert code == 0
        lines = (out / "recon_c000_ayesce.csv").read_text().splitlines()
        assert lines[1] == "u,value,provenance,error_variance"
        tags = {line.split(",")[2] for line in lines[2:]}
        assert tags == {"observed-smoothed"}

    def test_deterministic_output_bytes(self, tmp_path):
        inp = make_input(tmp_path)
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            code = main([
                "reconstruct", "--input", str(inp), "--domain", "0", "1",
                "--out-dir", str(out), "--method", "ano", "--k", "gcv",
                "--h-x", "0.1", "--h-mu", "0.06", "--h-gamma", "0.08",
            ])
            assert code == 0
            files = sorted(p.name for p in out.glob("*.csv"))
            outs.append([(f, (out / f).read_bytes()) for f in files])
        # byte-identical apart from the out-dir text inside the header line
        for (n1, b1), (n2, b2) in zip(*outs):
            assert n1 == n2
            assert b1.split(b"\n", 1)[1] == b2.split(b"\n", 1)[1]

    def test_unknown_curve_id_exit_2(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        code = main([
            "reconstruct", "--input", str(inp), "--out-dir", str(tmp_path / "rec"),
            "--curve-id", "nope", "--method", "ano", "--k", "2", *FIT_FLAGS,
        ])
        assert code == 2
        assert "no curve with id 'nope'" in capsys.readouterr().err

    def test_usage_error_on_bad_method(self, tmp_path):
        inp = make_input(tmp_path)
        code = main([
            "reconstruct", "--input", str(inp), "--out-dir", str(tmp_path / "o"),
            "--method", "wild",
        ])
        assert code == 2


def make_dense_input(tmp_path, seed=3, n=40, m=60):
    """Every second curve misses its start, its end or both: n // 2 partial curves."""
    rng = np.random.default_rng(seed)
    curves = []
    for i in range(n):
        a, b = 0.0, 1.0
        if i % 2:
            side = rng.integers(3)
            a = rng.uniform(0.11, 0.25) if side != 1 else a
            b = rng.uniform(0.75, 0.89) if side != 0 else b
        u = np.sort(rng.uniform(a, b, m))
        if i % 2 == 0:
            u[0], u[-1] = 0.0, 1.0
        z = rng.normal(size=3)
        y = z[0] + z[1] * np.sin(np.pi * u) + 0.5 * z[2] * np.cos(2 * np.pi * u)
        curves.append(Curve(f"c{i:03d}", u, y + 0.05 * rng.normal(size=m)))
    path = tmp_path / "dense.csv"
    write_dataset_csv(build_dataset(curves, domain=(0, 1)), path)
    return path


class TestTuneEveryTargetOnce:
    """reconstruct tunes every target in one GCV call before reconstructing any."""

    @pytest.fixture
    def spies(self, monkeypatch):
        seen = {"calls": [], "tuning": {}}

        def wrap(name):
            real = getattr(cli, name)

            def spy(*args, **kwargs):
                result = real(*args, **kwargs)
                seen["calls"].append((name, len(args[-1])))  # the observed parts
                seen["results"] = result
                return result

            monkeypatch.setattr(cli, name, spy)

        wrap("select_gcv")
        real = cli.reconstruct_with_method

        def reconstruct(method, curve, model, k=None, rho=None, **kwargs):
            seen["tuning"][curve.id] = k if rho is None else rho
            seen["model"] = model
            return real(method, curve, model, k=k, rho=rho, **kwargs)

        monkeypatch.setattr(cli, "reconstruct_with_method", reconstruct)
        return seen

    @pytest.mark.parametrize("method", ["ayesce", "ano", "kraus"])
    def test_each_target_tuned_as_alone(self, tmp_path, spies, capsys, method):
        from fdrecon.reconstruct import (
            curve_subdomain,
            select_kraus_ridge_gcv,
            select_truncation_gcv,
            GCV_PARTS_PER_PASS,
        )

        inp = make_dense_input(tmp_path)
        args = ["--input", str(inp), "--method", method, *FIT_FLAGS]
        code = main(["reconstruct", "--out-dir", str(tmp_path / "rec"), *args])
        assert code == 0
        model = spies["model"]
        dataset = model.dataset
        targets = sorted(spies["tuning"])
        assert len(targets) > GCV_PARTS_PER_PASS  # more than one pass
        # One call for all targets, over their distinct geometries.
        assert spies["calls"] == [(spies["calls"][0][0], len(targets))]
        capsys.readouterr()
        for cid in targets:
            curve = dataset.curve(cid)
            target_m = curve_subdomain(curve, model.grid).complement(model.grid)
            if method == "kraus":
                choice, details = select_kraus_ridge_gcv(model, dataset, target_m)
                table = [f"{cli._num(r)},{cli._num(g)}" for r, g in sorted(details["gcv"].items())]
            else:
                choice, details = select_truncation_gcv(method, model, dataset, target_m)
                table = [f"{k},{cli._num(details['gcv'][k])},{cli._num(details['rss'][k])}"
                         for k in details["candidates"]]
            assert spies["tuning"][cid] == choice
            # gcv-report prints the table the reconstruction used, bit for bit.
            assert main(["gcv-report", "--curve-id", cid, *args]) == 0
            printed = capsys.readouterr().out.splitlines()
            assert printed[1:-1] == table
            assert printed[-1].endswith(f"={cli._num(choice) if method == 'kraus' else choice}")

    @pytest.mark.parametrize("method", ["ayesce", "kraus"])
    def test_failed_tuning_raises_at_its_target(self, tmp_path, capsys, method):
        # c000 covers the whole grid, so its GCV has no missing part to
        # predict; c002's observations lie between two grid points.
        inp = make_dense_input(tmp_path)
        text = inp.read_text() + "c999,0.0101,1.0\nc999,0.0102,1.1\n"
        inp.write_text(text)
        out = tmp_path / "rec"
        for bad, message in (("c000", "subdomain covers the whole grid"), ("c999", "no grid points inside")):
            code = main([
                "reconstruct", "--input", str(inp), "--out-dir", str(out / bad),
                "--method", method, "--curve-id", "c001", "--curve-id", bad,
                "--curve-id", "c003", *FIT_FLAGS,
            ])
            assert code == 1
            assert message in capsys.readouterr().err
            assert sorted(p.name for p in (out / bad).glob("*.csv")) == [f"recon_c001_{method}.csv"]


class TestSimulate:
    def test_byte_identical_reruns_any_threads(self, tmp_path):
        args = [
            "simulate", "--dgp", "1", "--n", "20", "--m", "15", "--reps", "2",
            "--seed", "1", "--n-targets", "5", "--methods", "ano,ayes",
        ]
        payloads = []
        for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "3")):
            out = tmp_path / name
            code = main(["--threads", threads] + args + ["--out", str(out)])
            assert code == 0
            payloads.append(out.read_bytes().split(b"\n", 1)[1])
        assert payloads[0] == payloads[1] == payloads[2]

    def test_invalid_dgp_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dgp", "5", "--n", "10", "--out", str(tmp_path / "t.csv")])
        assert exc.value.code == 2

    def test_table_column_layout(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main([
            "simulate", "--dgp", "3", "--n", "20", "--reps", "1", "--seed", "2",
            "--n-targets", "4", "--methods", "ano", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "Method,MSE_ratio,MSE,Bias2,Var"
        assert lines[2].startswith("ano,1.0,")


def test_num_formats_finite_values_and_blanks_the_rest():
    assert cli._num(0.1) == "0.1"
    assert cli._num(np.float64(1e-300)) == "1e-300"
    assert cli._num(-2) == "-2.0"
    for x in (float("nan"), np.nan, np.inf, -np.inf, None):
        assert cli._num(x) == ""


class TestGcvReport:
    def test_prints_table_and_choice(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        code = main([
            "gcv-report", "--input", str(inp), "--domain", "0", "1",
            "--curve-id", "c001", "--method", "ano",
            "--h-x", "0.1", "--h-mu", "0.06", "--h-gamma", "0.08",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "K,gcv,rss" in out
        assert "chosen K=" in out

    def test_unknown_curve_id_exit_2(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        code = main(["gcv-report", "--input", str(inp), "--curve-id", "nope", "--method", "ano", *FIT_FLAGS])
        assert code == 2
        assert "no curve with id 'nope'" in capsys.readouterr().err


class TestConfigFile:
    def test_config_applies_and_flags_win(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h_x=0.1\nh_mu=0.06\nh_gamma=0.123\n")
        out = tmp_path / "fit"
        code = main([
            "--config", str(cfg), "fit", "--input", str(inp), "--domain", "0", "1",
            "--out-dir", str(out), "--h-gamma", "0.08",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["bandwidths"]["h_gamma"] == 0.08  # flag wins
        assert summary["bandwidths"]["h_x"] == 0.1       # config applies

    def test_config_sets_defaulted_flags(self, tmp_path, capsys):
        # grid_size and min_pairs have non-None defaults; the file must still
        # set them, each converted by its flag's type, and a flag still wins.
        inp = make_input(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid-size=21\nmin_pairs=7\nemit_scores=yes\ndomain=0,1\n")
        out = tmp_path / "fit"
        code = main([
            "--config", str(cfg), "fit", "--input", str(inp), "--out-dir", str(out),
            "--h-x", "0.1", "--h-mu", "0.06", "--h-gamma", "0.08",
        ])
        assert code == 0
        comment, _, *rows = (out / "mean.csv").read_text().splitlines()
        assert len(rows) == 21
        assert "grid_size=21 " in comment and "min_pairs=7 " in comment
        assert "domain=0.0,1.0 " in comment
        assert (out / "scores.csv").exists()

        code = main([
            "--config", str(cfg), "fit", "--input", str(inp), "--out-dir", str(out),
            "--min-pairs", "5", *FIT_FLAGS,
        ])
        assert code == 0
        comment = (out / "mean.csv").read_text().splitlines()[0]
        assert "grid_size=21 " in comment and "min_pairs=5 " in comment

    @pytest.mark.parametrize("line", ["grid_size=many", "emit_scores=maybe",
                                      "scores_quadrature=simpson", "domain=0"])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, line):
        inp = make_input(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = main([
            "--config", str(cfg), "fit", "--input", str(inp), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "config key" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("does_not_exist=1\n")
        code = main([
            "--config", str(cfg), "fit", "--input", str(inp),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "reconstruct", "simulate", "gcv-report"])
    def test_keys_are_the_long_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        keys = {f[2:].replace("-", "_") for f in flags}
        if command == "simulate":
            keys.add("threads")
        assert cli._CONFIGURABLE[command] == keys

    def test_key_of_another_command_rejected(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("emit_scores=true\n")
        code = main([
            "--config", str(cfg), "gcv-report", "--input", str(inp), "--curve-id", "c001",
            "--method", "ano", *FIT_FLAGS,
        ])
        assert code == 2
        assert "unknown config key 'emit_scores'" in capsys.readouterr().err

    def test_config_supplies_required_flags(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={inp}\nout-dir={tmp_path / 'from_file'}\n")
        code = main(["--config", str(cfg), "fit", *FIT_FLAGS])
        assert code == 0
        assert (tmp_path / "from_file" / "mean.csv").exists()

        code = main(["--config", str(cfg), "fit", "--out-dir", str(tmp_path / "flag"), *FIT_FLAGS])
        assert code == 0
        assert (tmp_path / "flag" / "mean.csv").exists()

        # A required flag the file does not set is still required.
        cfg.write_text(f"input={inp}\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "fit", *FIT_FLAGS])
        assert exc.value.code == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_config_list_replaced_by_repeated_flag(self, tmp_path, capsys):
        inp = make_input(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve_id=c000,c001\n")
        out = tmp_path / "rec"
        base = ["--config", str(cfg), "reconstruct", "--input", str(inp), "--out-dir", str(out),
                "--method", "ano", "--k", "1", *FIT_FLAGS]
        assert main(base) == 0
        assert sorted(p.name for p in out.iterdir()) == ["recon_c000_ano.csv", "recon_c001_ano.csv"]
        out2 = tmp_path / "rec2"
        assert main([*base[:6], str(out2), *base[7:], "--curve-id", "c002"]) == 0
        assert [p.name for p in out2.iterdir()] == ["recon_c002_ano.csv"]


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fdrecon.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for sub in ("fit", "reconstruct", "simulate", "gcv-report"):
        assert sub in proc.stdout


class TestGoldenFixture:
    def test_reconstruction_matches_checked_in_golden(self, tmp_path):
        import pathlib

        here = pathlib.Path(__file__).parent
        inp = here / "fixtures" / "golden_input.csv"
        golden = (here / "golden" / "recon_c001_ayesce.csv").read_bytes()
        out = tmp_path / "rec"
        code = main([
            "reconstruct", "--input", str(inp), "--domain", "0", "1",
            "--out-dir", str(out), "--curve-id", "c001", "--method", "ayesce",
            "--k", "2", "--h-x", "0.1", "--h-mu", "0.06", "--h-gamma", "0.08",
            "--error-variance",
        ])
        assert code == 0
        produced = (out / "recon_c001_ayesce.csv").read_bytes()
        # Below the header comment (which embeds the out-dir path): the
        # column header, u and provenance match exactly; the numbers match
        # to 1e-12, far below any change in the estimator but above the
        # last-ulp drift between numpy/BLAS builds. Byte identity on one
        # install is checked by test_deterministic_output_bytes.
        got = produced.decode().splitlines()[1:]
        want = golden.decode().splitlines()[1:]
        assert got[0] == want[0]
        assert len(got) == len(want)
        got_rows = [line.split(",") for line in got[1:]]
        want_rows = [line.split(",") for line in want[1:]]
        for g, w in zip(got_rows, want_rows):
            assert (g[0], g[2]) == (w[0], w[2])
        got_num = np.array([[float(r[1]), float(r[3])] for r in got_rows])
        want_num = np.array([[float(r[1]), float(r[3])] for r in want_rows])
        np.testing.assert_allclose(got_num, want_num, rtol=1e-12, atol=1e-12)


class TestBandLimitedWarning:
    def test_partial_output_with_warning(self, tmp_path, capsys):
        # fragments only: the covariance mask cannot cover the full square,
        # so the plain reconstruction warns and tags non-estimable points
        rng = np.random.default_rng(5)
        curves = []
        for i in range(60):
            a = rng.uniform(0, 0.55)
            u = np.sort(rng.uniform(a, a + 0.45, 40))
            z = rng.normal(size=2)
            curves.append(Curve(f"c{i:03d}", u, z[0] + z[1] * u))
        path = tmp_path / "frag.csv"
        write_dataset_csv(build_dataset(curves, domain=(0, 1)), path)
        out = tmp_path / "rec"
        code = main([
            "reconstruct", "--input", str(path), "--domain", "0", "1",
            "--out-dir", str(out), "--curve-id", "c000", "--method", "ano",
            "--k", "2", "--h-x", "0.12", "--h-mu", "0.08", "--h-gamma", "0.08",
            "--margin", "0.2",
        ])
        assert code == 0
        assert "band limited" in capsys.readouterr().err
        text = (out / "recon_c000_ano.csv").read_text()
        assert "non-estimable" in text

    def test_iterative_extends_coverage(self, tmp_path):
        rng = np.random.default_rng(5)
        curves = []
        for i in range(60):
            a = rng.uniform(0, 0.55)
            u = np.sort(rng.uniform(a, a + 0.45, 40))
            z = rng.normal(size=2)
            curves.append(Curve(f"c{i:03d}", u, z[0] + z[1] * u))
        path = tmp_path / "frag.csv"
        write_dataset_csv(build_dataset(curves, domain=(0, 1)), path)
        out = tmp_path / "rec"
        code = main([
            "reconstruct", "--input", str(path), "--domain", "0", "1",
            "--out-dir", str(out), "--curve-id", "c000", "--method", "ano",
            "--k", "2", "--iterative", "--strategy", "greedy-band", "--rmax", "5",
            "--h-x", "0.12", "--h-mu", "0.08", "--h-gamma", "0.08",
            "--margin", "0.2",
        ])
        assert code == 0
        files = list(out.glob("recon_c000_*.csv"))
        assert files
        text = files[0].read_text()
        assert "iteration-" in text or "non-estimable" not in text
