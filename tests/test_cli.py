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
