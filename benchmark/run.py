"""fdrecon benchmark: one workload per call, end-to-end or traced layer by layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload study_sparse --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints every end-to-end metric, with ``--trace 1``
every per-layer metric; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run starts the
workload in its own process, and with ``--trace 0`` two more processes that
only set up, so that ``setup_s`` is the median of three set-ups. The whole
command stops with an error, printing no result, if it has not finished
``--seconds`` plus 150 seconds after it started: the set-ups, the checks
and the round that runs past the deadline take the 150 seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study_sparse", "cli_dense", "iterative_band")
SETUPS = 3
# Seconds beyond --seconds for the set-ups, the checks and the last round.
ALLOWANCE_S = 150.0
# One BLAS thread: the figures then do not depend on what else runs on the
# machine's cores, and the CPU time per reconstruction counts only the
# threads the program itself starts. A fixed hash seed gives repeated runs
# the same set iteration order.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _worker(args, role: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role,
    ]
    env = {**os.environ, **FIXED_ENV}
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed seconds of the op loop; the command ends within this plus 150 s")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "fdrecon" / "__init__.py").is_file():
        print(f"error: no fdrecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = start + args.seconds + ALLOWANCE_S
    try:
        setups = [] if args.trace else [_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUPS - 1)]
        res = _worker(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(res["metrics"])
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = (statistics.median(setups), "s")
    info = res["info"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"nproc {info['nproc']} (usable {info['cpus_usable']}), BLAS threads {info['blas_threads']} "
        f"(OPENBLAS_NUM_THREADS={info['OPENBLAS_NUM_THREADS']}), python {info['python']}, "
        f"numpy {info['numpy']}, scipy {info['scipy']}"
    )
    for key in ("rounds", "ops", "traced_ops", "op_p99_s"):
        if key in info:
            print(f"{key} {info[key]}")
    if not args.trace:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    for name, share in info.get("self_time_shares", []):
        print(f"self-time share of op time  {name:50s} {100 * share:6.2f}%")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"ops attempted {res['attempted']} failed {res['failed']}")
    for failure in res["failures"]:
        print(f"failed op: {failure}")
    for error in res["errors"]:
        print(f"check failed: {error}")
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
