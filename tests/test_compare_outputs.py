"""tools/compare_outputs.py: the repository compared with itself, and the deviation rule."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_repository_against_itself_moves_nothing(tmp_path):
    out = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(_PATH), "--parent", str(ROOT), "--change", str(ROOT), "--out", str(out)],
        capture_output=True, text=True, check=True,
    )
    summary = json.loads(out.read_text())
    assert sorted(summary["methods"]) == sorted(["ano", "anoce", "ayes", "ayesce", "pace", "kraus"])
    for method, row in summary["methods"].items():
        assert row["targets"] == 100, method
        assert row["moved"] == 0, method
        assert row["table_dev"] == row["table_dev_at_largest"] == row["recon_dev"] == 0.0, method
    assert set(summary["fit"].values()) == {0.0}
    for name in ("iterative", "band_fit_iterative"):
        assert sorted(summary[name]) == ["ano", "anoce", "ayes", "ayesce"]
        assert set(summary[name].values()) == {0.0}
    eig = summary["eigensystems"]
    assert eig["studies"] == eig["band_fit"] == 0.0
    assert eig["count"] > 100 and eig["snapped_ends"] > 0
    assert summary["golden"] == summary["criterion_8"] == 0.0
    assert "ayesce" in proc.stdout and "criterion 8: 0" in proc.stdout
    assert "band fit iterative: ano 0" in proc.stdout


def test_deviation_rule():
    dev = compare_outputs.deviation
    assert dev([1.0, -2.0], [1.0, -2.0]) == 0.0
    assert dev([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert dev([1.0, -4.0], [1.0, -3.0]) == 0.25
    assert dev([1.0, math.nan], [1.0, math.nan]) == 0.0
    assert dev([1.0, math.nan], [1.0, 2.0]) == math.inf
    assert dev([1.0], [1.0, 2.0]) == math.inf
    assert dev("NotEstimableError: x", "NotEstimableError: x") == 0.0
    assert dev("NotEstimableError: x", [1.0]) == math.inf
