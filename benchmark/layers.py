"""Which fdrecon functions the traced run wraps, and the per-layer metrics it derives.

Every span name is ``<module>.<function>``. Per-op metrics average over the
traced ops; ``setup.`` metrics come from one traced set-up.
"""

from __future__ import annotations

from harness import span_tables

TARGETS = {
    name: ("fdrecon." + name.split(".", 1)[0], name.split(".", 1)[1])
    for name in (
        "simulation.run_study",
        "simulation.generate_dgp",
        "cli.main",
        "core.load_dataset",
        "smoothing.llk_mean",
        "smoothing.llk_covariance",
        "smoothing.estimate_noise_variance",
        "reconstruct.fit_reconstruction_model",
        "reconstruct.ReconstructionModel.eigensystem_for",
        "eigensystem.eigen_on_subdomain",
        "eigensystem.extrapolate_basis",
        "scores.integral_scores",
        "scores.ce_scores",
        "reconstruct.select_truncations_gcv",
        "reconstruct.select_kraus_ridge_gcv",
        "reconstruct.reconstruct_with_method",
        "iterative.iterative_reconstruct",
        "iterative.choose_next_interval",
    )
}


def _gcv_splits(args, kwargs, result):
    used = skipped = 0
    for value in result.values():
        if isinstance(value, tuple):
            used += value[1]["n_used"]
            skipped += value[1]["n_skipped"]
    return {"used": used, "skipped": skipped}


OBSERVERS = {
    "smoothing.llk_mean": lambda a, k, r: {"fallbacks": r.diagnostics["n_fallback"]},
    "smoothing.llk_covariance": lambda a, k, r: {
        "pairs": r.diagnostics["n_pairs"], "fallbacks": r.diagnostics["n_fallback"],
    },
    "reconstruct.select_truncations_gcv": _gcv_splits,
    "iterative.iterative_reconstruct": lambda a, k, r: {
        "curves": 1,
        "steps": 1 + len(r.diagnostics["steps"]),
        "stalled": int(r.diagnostics["stalled_at"] > 0),
    },
}

# (metric, unit, span name, field): field is calls, busy_s or self_s, per op.
_PER_OP = [
    ("simulation.run_study.self_s", "s/op", "simulation.run_study", "self_s"),
    ("simulation.generate_dgp.calls", "1/op", "simulation.generate_dgp", "calls"),
    ("simulation.generate_dgp.busy_s", "s/op", "simulation.generate_dgp", "busy_s"),
    ("cli.main.calls", "1/op", "cli.main", "calls"),
    ("cli.main.self_s", "s/op", "cli.main", "self_s"),
    ("core.load_dataset.calls", "1/op", "core.load_dataset", "calls"),
    ("core.load_dataset.busy_s", "s/op", "core.load_dataset", "busy_s"),
    ("smoothing.llk_covariance.calls", "1/op", "smoothing.llk_covariance", "calls"),
    ("smoothing.llk_covariance.busy_s", "s/op", "smoothing.llk_covariance", "busy_s"),
    ("smoothing.llk_mean.busy_s", "s/op", "smoothing.llk_mean", "busy_s"),
    ("smoothing.estimate_noise_variance.busy_s", "s/op", "smoothing.estimate_noise_variance", "busy_s"),
    ("reconstruct.fit_reconstruction_model.calls", "1/op", "reconstruct.fit_reconstruction_model", "calls"),
    ("reconstruct.fit_reconstruction_model.busy_s", "s/op", "reconstruct.fit_reconstruction_model", "busy_s"),
    ("eigensystem.eigen_on_subdomain.calls", "1/op", "eigensystem.eigen_on_subdomain", "calls"),
    ("eigensystem.eigen_on_subdomain.busy_s", "s/op", "eigensystem.eigen_on_subdomain", "busy_s"),
    ("eigensystem.extrapolate_basis.busy_s", "s/op", "eigensystem.extrapolate_basis", "busy_s"),
    ("scores.integral_scores.calls", "1/op", "scores.integral_scores", "calls"),
    ("scores.integral_scores.busy_s", "s/op", "scores.integral_scores", "busy_s"),
    ("scores.ce_scores.calls", "1/op", "scores.ce_scores", "calls"),
    ("scores.ce_scores.busy_s", "s/op", "scores.ce_scores", "busy_s"),
    ("reconstruct.select_truncations_gcv.calls", "1/op", "reconstruct.select_truncations_gcv", "calls"),
    ("reconstruct.select_truncations_gcv.busy_s", "s/op", "reconstruct.select_truncations_gcv", "busy_s"),
    ("reconstruct.select_truncations_gcv.self_s", "s/op", "reconstruct.select_truncations_gcv", "self_s"),
    ("reconstruct.select_kraus_ridge_gcv.calls", "1/op", "reconstruct.select_kraus_ridge_gcv", "calls"),
    ("reconstruct.select_kraus_ridge_gcv.busy_s", "s/op", "reconstruct.select_kraus_ridge_gcv", "busy_s"),
    ("reconstruct.reconstruct_with_method.calls", "1/op", "reconstruct.reconstruct_with_method", "calls"),
    ("reconstruct.reconstruct_with_method.busy_s", "s/op", "reconstruct.reconstruct_with_method", "busy_s"),
    ("reconstruct.reconstruct_with_method.self_s", "s/op", "reconstruct.reconstruct_with_method", "self_s"),
    ("iterative.iterative_reconstruct.busy_s", "s/op", "iterative.iterative_reconstruct", "busy_s"),
    ("iterative.iterative_reconstruct.self_s", "s/op", "iterative.iterative_reconstruct", "self_s"),
    ("iterative.choose_next_interval.calls", "1/op", "iterative.choose_next_interval", "calls"),
    ("iterative.choose_next_interval.busy_s", "s/op", "iterative.choose_next_interval", "busy_s"),
]

# Set-up work that ops do not repeat (the shared model fit of iterative_band).
_SETUP = [
    ("setup.busy_s", "s", "bench.setup"),
    ("setup.reconstruct.fit_reconstruction_model.busy_s", "s", "reconstruct.fit_reconstruction_model"),
    ("setup.smoothing.llk_covariance.busy_s", "s", "smoothing.llk_covariance"),
    ("setup.smoothing.llk_mean.busy_s", "s", "smoothing.llk_mean"),
    ("setup.smoothing.estimate_noise_variance.busy_s", "s", "smoothing.estimate_noise_variance"),
]

# Every metric name with its unit, in the order BENCHMARK.json lists them.
PER_LAYER = (
    [(name, unit) for name, unit, _, _ in _PER_OP]
    + [
        ("smoothing.llk_covariance.pairs_per_s", "1/s"),
        ("smoothing.fallbacks", "1/op"),
        ("eigensystem.cache_hit_ratio", "ratio"),
        ("reconstruct.gcv_split_use_ratio", "ratio"),
        ("iterative.steps_per_curve", "steps"),
        ("iterative.stalled", "1/op"),
    ]
    + [(name, unit) for name, unit, _ in _SETUP]
    + [("bench.traced_ops", "count"), ("bench.trace_overhead_ratio", "ratio")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, op_roots: set[int], setup_roots: set[int]) -> dict:
    """Per-layer metric values from the traced run's spans (absent layers read 0)."""
    n_ops = len(op_roots)
    ops = span_tables(spans, op_roots)
    setup = span_tables(spans, setup_roots)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": {}}

    def row(table, name):
        return table.get(name, empty)

    def attr(table, name, key):
        return row(table, name)["attrs"].get(key, 0)

    out = {name: row(ops, span)[fld] / n_ops for name, _, span, fld in _PER_OP}
    cov = row(ops, "smoothing.llk_covariance")
    out["smoothing.llk_covariance.pairs_per_s"] = _ratio(attr(ops, "smoothing.llk_covariance", "pairs"), cov["busy_s"])
    out["smoothing.fallbacks"] = (
        attr(ops, "smoothing.llk_mean", "fallbacks") + attr(ops, "smoothing.llk_covariance", "fallbacks")
    ) / n_ops
    eig_for = row(ops, "reconstruct.ReconstructionModel.eigensystem_for")["calls"]
    solved = row(ops, "eigensystem.eigen_on_subdomain")["calls"]
    out["eigensystem.cache_hit_ratio"] = 1.0 - solved / eig_for if eig_for else 0.0
    used = attr(ops, "reconstruct.select_truncations_gcv", "used")
    skipped = attr(ops, "reconstruct.select_truncations_gcv", "skipped")
    out["reconstruct.gcv_split_use_ratio"] = _ratio(used, used + skipped)
    curves = attr(ops, "iterative.iterative_reconstruct", "curves")
    out["iterative.steps_per_curve"] = _ratio(attr(ops, "iterative.iterative_reconstruct", "steps"), curves)
    out["iterative.stalled"] = attr(ops, "iterative.iterative_reconstruct", "stalled") / n_ops
    for name, _, span in _SETUP:
        out[name] = row(setup, span)["busy_s"]
    out["bench.traced_ops"] = n_ops
    return out


def op_time_shares(spans, op_roots: set[int]) -> list[tuple[str, float]]:
    """Each span name's self time as a share of the traced ops' wall time, largest first."""
    ops = span_tables(spans, op_roots)
    total = sum(spans[i][3] - spans[i][2] for i in op_roots)
    shares = [(name, r["self_s"] / total) for name, r in ops.items()]
    return sorted(shares, key=lambda item: -item[1])
