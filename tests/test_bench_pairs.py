"""The summary arithmetic of tools/bench_pairs.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_counts_wins_spreads_and_bounds():
    parent = [float(x) for x in range(1, 11)]
    metrics = {
        # lower is better; pair 4 ties, pair 8 loses
        "t": (parent, [-5.0, -4.0, -3.0, 4.0, -1.0, 0.0, 1.0, 9.0, 3.0, 4.0]),
        # higher is better; every pair wins by 6
        "rate": (parent, [x + 6.0 for x in parent]),
        # lower is better; twice the parent
        "mem": (parent, [2.0 * x for x in parent]),
    }
    pairs = [
        {side: {"metrics": {name: vals[j][i] for name, vals in metrics.items()}}
         for j, side in enumerate(("parent", "change"))}
        for i in range(10)
    ]
    pairs[0]["change"]["metrics"]["only_some"] = 1.0
    spec = [
        {"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "mem", "unit": "MB", "better": "lower", "bound": 0.25},
        {"name": "only_some", "unit": "s", "better": "lower", "bound": 0.25},
    ]
    out = bench_pairs.summarize(pairs, spec)

    assert set(out) == {"t", "rate", "mem"}
    # statistics.quantiles(range 1..10, n=4): 2.75 and 8.25
    assert out["t"]["parent"] == {"median": 5.5, "q1": 2.75, "q3": 8.25}
    assert (out["t"]["wins"], out["t"]["losses"], out["t"]["pairs"]) == (8, 1, 10)
    assert out["t"]["change"]["median"] == 0.5
    assert not out["t"]["gain_rule_holds"]  # 8 of 10 wins, and gap 5.0 < 5.5
    assert not out["t"]["worse_than_bound"]

    assert (out["rate"]["wins"], out["rate"]["losses"]) == (10, 0)
    assert out["rate"]["gain_rule_holds"]  # gap 6.0 > quartile distance 5.5
    assert out["rate"]["median_ratio"] == pytest.approx(11.5 / 5.5)

    assert (out["mem"]["wins"], out["mem"]["losses"]) == (0, 10)
    assert out["mem"]["median_ratio"] == 2.0
    assert out["mem"]["worse_than_bound"] and not out["mem"]["gain_rule_holds"]


def test_seed_lists_and_ranges():
    assert bench_pairs.parse_seeds("401-404,7") == [401, 402, 403, 404, 7]


def test_failed_runs_are_recorded_and_left_out(tmp_path, monkeypatch, capsys):
    spec = {"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    # (side, seed) -> (exit code, correct, t)
    outcomes = {
        ("parent", 1): (0, True, 2.0), ("change", 1): (0, True, 1.0),
        ("parent", 2): (0, True, 4.0), ("change", 2): (3, None, None),
        ("parent", 3): (0, False, 100.0), ("change", 3): (0, True, 3.0),
    }

    def run(cmd, cwd, capture_output, text):
        code, correct, t = outcomes[Path(cwd).name, int(cmd[cmd.index("--seed") + 1])]
        if code:
            return subprocess.CompletedProcess(cmd, code, "", "Traceback\nboom\n")
        metrics = {"t": t, "op_p50_s": t, "peak_rss_mb": 70.5, "setup_s": 0.5}
        last = {"correct": correct, "attempted": 4, "failed": 0,
                "metrics": {name: {"value": v} for name, v in metrics.items()}}
        stdout = ("" if correct else "check failed: known answer\n") + json.dumps(last) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "warning\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--seeds", "1-3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    progress = capsys.readouterr().out.splitlines()
    assert progress[0] == ("w seed 1: parent op_p50_s 2.0 peak_rss_mb 70.5 setup_s 0.5, "
                           "change op_p50_s 1.0 peak_rss_mb 70.5 setup_s 0.5")
    assert progress[1].endswith("change op_p50_s None peak_rss_mb None setup_s None FAILED (exit 3, 0 checks failed)")
    report = json.loads(out.read_text())["workloads"]["w"]
    assert report["seeds"] == [1, 2, 3]
    assert report["failed_runs"] == {"parent": 1, "change": 1}
    crashed = report["pairs"][1]["change"]
    assert (crashed["correct"], crashed["exit_code"], crashed["stderr_tail"]) == (False, 3, "Traceback\nboom\n")
    assert "metrics" not in crashed
    wrong = report["pairs"][2]["parent"]
    assert wrong["checks_failed"] == ["check failed: known answer"] and wrong["stderr_tail"] == "warning\n"
    assert "stderr_tail" not in report["pairs"][0]["parent"]
    t = report["summary"]["t"]
    assert t["parent"]["median"] == 3.0  # runs 2 and 4; the failed run's 100 is left out
    assert t["change"]["median"] == 2.0  # runs 1 and 3
    assert (t["wins"], t["losses"], t["pairs"]) == (1, 0, 3)  # only pair 1 has two passed runs
    assert not t["gain_rule_holds"]
