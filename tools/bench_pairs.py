"""Run the benchmark on two checkouts in alternating pairs and summarize the pairs.

Run from anywhere, with two checkouts of the repository (say, the parent
commit in one directory and the change in another):

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload iterative_band --seeds 401-410 --seconds 20 --out BENCH.json

Each pair runs ``python3 benchmark/run.py --workload W --seed N --seconds S
--trace 0`` in both checkouts, one after the other, each from the root of
its own checkout; the side that runs first alternates from pair to pair.
The output file holds, per workload, every pair's metrics and check results
and, per end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the pairs the change wins and loses (ties count for neither),
and whether the gain rule holds: at least nine tenths of the pairs won and
a gap between the medians larger than the distance between the parent's
quartiles; and whether the change's median is worse than the parent's by
more than the metric's bound, a fraction of the parent's median. A run
that exits non-zero or reports ``correct: false`` is a failed run: its pair
keeps its exit code, the tail of its stderr and its failed checks, the
summary leaves it out and counts the failed runs per side, and the next
pair runs. A progress line per pair prints each side's ``op_p50_s``,
``peak_rss_mb`` and ``setup_s``. The file also records ``nproc`` and the
Python, numpy and scipy versions. It is rewritten after every pair.
Workloads already in an existing output file are kept, so one file can
collect the runs of every workload.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# End-to-end metrics the per-pair progress line prints for each side.
PROGRESS = ("op_p50_s", "peak_rss_mb", "setup_s")


def parse_seeds(text: str) -> list[int]:
    """Seeds from "1,4,9" or "401-410" (inclusive), or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    """Median and quartiles, the latter by ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def passed(run: dict) -> bool:
    """Whether a run exited zero and reported ``correct: true`` (taken as true if unrecorded)."""
    return run.get("correct", True) is True


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's spread, wins, losses and the gain rule.

    ``pairs`` holds one dict per pair with a ``metrics`` mapping of name to
    value for each side; ``end_to_end`` is the list of that name in
    ``BENCHMARK.json``. Failed runs are left out: a side's spread is over its
    passed runs, and wins and losses are over the pairs whose runs both
    passed; the gain rule still takes every pair. A metric missing from any
    passed run is left out.
    """
    runs = {side: [pair[side] for pair in pairs if passed(pair[side])] for side in SIDES}
    both = [pair for pair in pairs if all(passed(pair[side]) for side in SIDES)]
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        if not all(runs[side] and all(name in run["metrics"] for run in runs[side]) for side in SIDES):
            continue
        sign = 1.0 if spec["better"] == "higher" else -1.0
        values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        gains = [sign * (pair["change"]["metrics"][name] - pair["parent"]["metrics"][name])
                 for pair in both]
        parent, change = spread(values["parent"]), spread(values["change"])
        gap = sign * (change["median"] - parent["median"])
        wins = sum(g > 0 for g in gains)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "wins": wins,
            "losses": sum(g < 0 for g in gains),
            "pairs": len(pairs),
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
            "worse_than_bound": -gap > spec["bound"] * abs(parent["median"]),
            "gain_rule_holds": 10 * wins >= 9 * len(pairs) and gap > parent["q3"] - parent["q1"],
        }
    return out


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    run = {
        "exit_code": proc.returncode,
        "checks_failed": [line for line in proc.stdout.splitlines() if line.startswith("check failed")],
    }
    if proc.returncode == 0:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        run.update(
            correct=last["correct"],
            attempted=last["attempted"],
            failed=last["failed"],
            metrics={name: m["value"] for name, m in last["metrics"].items()},
        )
    else:
        run["correct"] = False
    if not passed(run):
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    for dist in ("numpy", "scipy"):
        try:
            env[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            env[dist] = None
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help='e.g. "401-410" or "1,2,5"')
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    report = json.loads(args.out.read_text()) if args.out.is_file() else {"workloads": {}}
    report["environment"] = environment()
    report["command"] = "python3 benchmark/run.py --workload W --seed N --seconds S --trace 0"
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_benchmark(checkouts[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{side} " + " ".join(f"{name} {pair[side].get('metrics', {}).get(name)!r}" for name in PROGRESS)
            + ("" if passed(pair[side]) else f" FAILED (exit {pair[side]['exit_code']}, "
                                              f"{len(pair[side]['checks_failed'])} checks failed)")
            for side in SIDES
        ), flush=True)
        report["workloads"][args.workload] = {
            "seconds": args.seconds,
            "seeds": [pair["seed"] for pair in pairs],
            "pairs": pairs,
            "failed_runs": {side: sum(not passed(pair[side]) for pair in pairs) for side in SIDES},
            "summary": summarize(pairs, spec["end_to_end"]),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
