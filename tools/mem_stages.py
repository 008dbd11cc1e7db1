"""Peak memory and time of the model-fit stages on each benchmark workload's set-up input.

Run from the root of a checkout:

    python3 tools/mem_stages.py --seed 7

For each workload of ``benchmark/run.py`` it builds the input that the
workload's set-up fits, through ``benchmark/workloads.py`` and
``benchmark/data.py`` (which it only reads), and runs ``llk_mean``,
``llk_covariance``, ``estimate_noise_variance`` and ``select_gcv`` on it in
turn. It prints one JSON line per workload: per stage, the peak of the
memory ``tracemalloc`` traces during the call (numpy's arrays included) in
MB, and the median wall time in seconds of ``--repeat`` untraced calls.
``select_gcv`` is null where the workload tunes nothing.

The inputs, with ``--seed`` as in ``benchmark/run.py --seed``:

- study_sparse: replication 0 of the study its set-up runs (the accuracy
  panel), tuned for every target as ``run_study`` tunes it;
- cli_dense: the panel's CSV sample, written by the workload to a temporary
  directory and read as the CLI reads it, tuned for the curves the CLI
  reconstructs by the ayesce and kraus GCV of its sessions, in one call;
- iterative_band: the fragments its set-up fits at ``--seed``.

The whole run uses one BLAS thread, as the benchmark does. Only the standard
library and fdrecon (with the numpy it brings) are used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("study_sparse", "cli_dense", "iterative_band")
CLI_GRID_SIZE = 51  # the CLI's --grid-size default, which the cli_dense sessions keep


def measure(fn, repeat: int):
    """(result, traced peak in MB, median seconds of ``repeat`` untraced calls) of fn()."""
    seconds = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6, statistics.median(seconds)


def stage_profile(dataset, observed, methods, repeat: int = 3) -> dict:
    """Each fit stage's peak and time on a dataset, then select_gcv on the observed parts.

    ``methods`` empty leaves select_gcv out (null). Every select_gcv call gets
    a fresh model, so no call reuses the eigensystems of another.
    """
    import fdrecon

    bw = fdrecon.Bandwidths.rule_of_thumb(dataset)
    grid = dataset.grid
    stages = {}

    def run(name, fn):
        result, peak, seconds = measure(fn, repeat)
        stages[name] = {"peak_mb": round(peak, 3), "seconds": seconds}
        return result

    mean = run("llk_mean", lambda: fdrecon.llk_mean(dataset, grid, bw.h_mu))
    cov = run("llk_covariance", lambda: fdrecon.llk_covariance(dataset, mean, grid, bw.h_gamma))
    sigma2 = run("estimate_noise_variance", lambda: fdrecon.estimate_noise_variance(dataset, mean, cov))
    stages["select_gcv"] = None
    if methods:
        run("select_gcv", lambda: fdrecon.select_gcv(
            methods, fdrecon.ReconstructionModel(mean, cov, sigma2, bw, dataset), dataset, observed
        ))
    return {
        "n_curves": dataset.n_curves,
        "n_obs": int(sum(c.n_obs for c in dataset.curves)),
        "grid_size": grid.size,
        "stages": stages,
    }


def workload_input(name: str, seed: int, work: Path):
    """(dataset, observed parts to tune, GCV methods) of a workload's set-up.

    ``benchmark/`` must be on ``sys.path``; cli_dense writes its CSV under ``work``.
    """
    import fdrecon

    import data
    import workloads

    if name == "study_sparse":
        study = workloads.StudySparse(ROOT, seed)
        dataset, targets = fdrecon.generate_dgp(study.config(workloads.PANEL_SEED), 0)
        observed = [fdrecon.curve_subdomain(c, dataset.grid) for c in targets.curves]
        return dataset, observed, list(study.methods)
    if name == "cli_dense":
        cli = workloads.CliDense(work, seed)
        panel = cli._write_input(workloads.PANEL_SEED, work / "panel" / "input.csv")
        dataset = fdrecon.load_dataset(panel["input"], grid_size=CLI_GRID_SIZE)
        complete = fdrecon.classify_complete(dataset, cli.margin)
        observed = [fdrecon.curve_subdomain(c, dataset.grid) for c in dataset.curves if c.id not in complete]
        return dataset, observed, ["ayesce", "kraus"]
    fragments, _ = data.fragment_sample(seed)
    curves = [fdrecon.Curve(cid, u, y) for cid, u, y in fragments]
    return fdrecon.build_dataset(curves, domain=(0.0, 1.0), grid_size=data.GRID_SIZE), [], []


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="one workload (repeatable); default all three")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeat", type=int, default=3, help="untraced calls timed per stage")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    with tempfile.TemporaryDirectory() as work:
        for name in args.workload or WORKLOADS:
            dataset, observed, methods = workload_input(name, args.seed, Path(work))
            profile = stage_profile(dataset, observed, methods, args.repeat)
            print(json.dumps({"workload": name, "seed": args.seed, **profile}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
