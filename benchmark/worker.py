"""One workload in one process: set-up, then the timed ops or the traced run, then checks.

Started by run.py with the BLAS thread count fixed in the environment;
imports fdrecon from the checkout's ``src``. Prints one JSON object as its
last line of output.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import harness
import layers


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None where it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _require_success(log) -> None:
    """Without one op that did not fail there is nothing to measure."""
    if not log.latencies:
        sys.exit(f"error: all {log.attempted} ops failed; the first: {log.failures[0]}")


def untraced_run(wl, seconds: float) -> dict:
    log = harness.OpLog()
    rounds = harness.timed_rounds(lambda: harness.run_round(log, wl.make_round()), seconds)
    _require_success(log)
    rss = _peak_rss_mb()
    errors = wl.final_checks()
    metrics = {
        "recons_per_s": (log.recons_per_s(), "1/s"),
        "op_p50_s": (statistics.median(log.latencies), "s"),
        "cpu_s_per_recon": (log.cpu_s_per_recon(), "s"),
        "peak_rss_mb": (rss, "MB"),
        "recon_ise": (wl.recon_ise(), "ISE"),
    }
    info = {"rounds": rounds, "ops": log.attempted}
    if log.attempted >= 1000:  # at least ten samples beyond the 99th percentile
        info["op_p99_s"] = statistics.quantiles(log.latencies, n=100, method="inclusive")[98]
    return {"log": log, "errors": errors, "metrics": metrics, "info": info}


def tracing(tracer):
    """Wrap the traced fdrecon functions; returns the function that unwraps them."""
    import fdrecon

    return harness.wrap_module_functions(tracer, fdrecon, layers.TARGETS, layers.OBSERVERS)


def traced_run(wl, tracer, seconds: float, out_dir: Path, name: str, seed: int) -> dict:
    """Rounds run in pairs, untraced then traced, for ``seconds`` of wall time.

    Pairing the rounds keeps a drift in machine speed out of the tracing
    overhead. ``tracer`` already holds the set-up's span, as span 0.
    """
    untraced, traced = harness.OpLog(), harness.OpLog()
    op_roots = set()

    def traced_op(op):
        def run():
            with tracer.span("bench.op"):
                return op()
        return run

    def paired_round():
        harness.run_round(untraced, wl.make_round())
        restore = tracing(tracer)
        try:
            for op, check in wl.make_round():
                first_span = len(tracer.spans)
                if harness.run_op(traced, traced_op(op), check) is None:
                    op_roots.add(first_span)
        finally:
            restore()

    rounds = harness.timed_rounds(paired_round, seconds)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans_{name}_seed{seed}.json")

    _require_success(traced)
    spans = tracer.spans
    values = layers.layer_metrics(spans, op_roots, {0})
    values["bench.trace_overhead_ratio"] = traced.busy_s() / untraced.busy_s() - 1.0
    metrics = {name_: (values[name_], unit) for name_, unit in layers.PER_LAYER}
    shares = [(n, round(s, 4)) for n, s in layers.op_time_shares(spans, op_roots)]
    log = harness.OpLog(
        untraced.latencies + traced.latencies, untraced.cpu + traced.cpu,
        untraced.recons + traced.recons, untraced.failures + traced.failures,
    )
    return {
        "log": log,
        "errors": wl.final_checks(),
        "metrics": metrics,
        "info": {"rounds": 2 * rounds, "traced_ops": len(op_roots), "self_time_shares": shares},
    }


def main(argv=None) -> int:
    t0 = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--role", choices=("setup", "run"), required=True)
    args = p.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))

    import fdrecon

    where = Path(fdrecon.__file__).resolve().parent
    if where != root / "src" / "fdrecon":
        print(f"error: imported fdrecon from {where}, not from the checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](root, args.seed)
    tracer = harness.Tracer() if args.trace else None
    if tracer is None:
        wl.setup()
    else:
        restore = tracing(tracer)
        try:
            with tracer.span("bench.setup"):
                wl.setup()
        finally:
            restore()
    setup_s = time.perf_counter() - t0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    errors = wl.check_setup()
    if args.trace:
        res = traced_run(wl, tracer, args.seconds, root / ".bench_out", args.workload, args.seed)
    else:
        res = untraced_run(wl, args.seconds)
    log = res["log"]
    print(json.dumps({
        "setup_s": setup_s,
        "errors": errors + res["errors"],
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.failures[:5],
        "metrics": res["metrics"],
        "info": {**res["info"], **_environment()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
