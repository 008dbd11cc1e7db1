"""tools/mem_stages.py on a tiny dataset."""

import importlib.util
import json
from pathlib import Path

from fdrecon import DgpConfig, curve_subdomain, generate_dgp

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mem_stages.py"
_SPEC = importlib.util.spec_from_file_location("mem_stages", _PATH)
mem_stages = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mem_stages)

STAGES = ["llk_mean", "llk_covariance", "estimate_noise_variance", "select_gcv"]


def test_stage_profile_reports_every_stage():
    dataset, targets = generate_dgp(DgpConfig(dgp=1, n=20, m=10, seed=3, replications=1, n_targets=3), 0)
    observed = [curve_subdomain(c, dataset.grid) for c in targets.curves]
    profile = mem_stages.stage_profile(dataset, observed, ["ano"], repeat=1)
    assert (profile["n_curves"], profile["n_obs"], profile["grid_size"]) == (20, 200, dataset.grid.size)
    assert list(profile["stages"]) == STAGES
    for stage in profile["stages"].values():
        assert stage["peak_mb"] > 0 and stage["seconds"] > 0
    # The stages allocate arrays of the sample: the covariance's grid-square
    # moments alone take 51 * 51 * 9 doubles, 0.19 MB.
    assert profile["stages"]["llk_covariance"]["peak_mb"] > 0.19
    json.dumps(profile)

    assert mem_stages.stage_profile(dataset, [], [], repeat=1)["stages"]["select_gcv"] is None
