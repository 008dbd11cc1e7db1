"""Tests of the benchmark's own arithmetic: python3 -m pytest benchmark

They need neither fdrecon nor numpy.
"""

import sys
import textwrap

import harness
import layers


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_ops_and_failures_are_counted():
    log = harness.OpLog()

    def ok():
        return "result", 3

    def boom():
        raise RuntimeError("no")

    assert harness.run_op(log, ok, lambda r: None) is None
    assert "RuntimeError" in harness.run_op(log, boom)
    assert harness.run_op(log, ok, lambda r: "wrong answer") == "wrong answer"
    assert "check raised" in harness.run_op(log, ok, lambda r: 1 / 0)
    assert (log.attempted, log.failed) == (4, 3)
    # Failed ops stay out of the times and the curve count.
    assert len(log.latencies) == 1 and log.recons == 3


def test_timed_rounds_attempt_whole_rounds():
    log = harness.OpLog()
    made = []

    def make_round():
        made.append(1)
        return [(lambda: (None, 1), None), (lambda: (None, 0), lambda r: "always fails")]

    def one_round():
        harness.run_round(log, make_round())

    assert harness.timed_rounds(one_round, 0.0) == 1
    assert (log.attempted, log.failed) == (2, 1)
    harness.timed_rounds(one_round, 0.0)
    assert log.failed * 2 == log.attempted and len(made) == 2


def _spans_for(events):
    """Replay (kind, name, time) events on a tracer with a fake clock."""
    clock = FakeClock()
    tracer = harness.Tracer(clock)
    open_spans = []
    for kind, name, t in events:
        clock.now = t
        if kind == "open":
            span = tracer.span(name)
            span.__enter__()
            open_spans.append(span)
        else:
            open_spans.pop().__exit__(None, None, None)
    return tracer.spans


def test_self_time_subtracts_children():
    spans = _spans_for([
        ("open", "op", 0.0),
        ("open", "a", 1.0),
        ("open", "b", 2.0),
        ("close", "b", 5.0),
        ("close", "a", 6.0),
        ("open", "b", 7.0),
        ("close", "b", 8.0),
        ("close", "op", 10.0),
    ])
    t = harness.span_tables(spans)
    assert t["op"] == {"calls": 1, "busy_s": 10.0, "self_s": 10.0 - 5.0 - 1.0, "attrs": {}}
    assert t["a"]["self_s"] == 5.0 - 3.0
    assert t["b"]["calls"] == 2 and t["b"]["busy_s"] == 4.0 and t["b"]["self_s"] == 4.0


def test_nested_same_name_is_busy_once_and_roots_filter():
    spans = _spans_for([
        ("open", "setup", 0.0), ("open", "f", 0.0), ("close", "f", 1.0), ("close", "setup", 1.0),
        ("open", "op", 1.0),
        ("open", "f", 1.0), ("open", "f", 2.0), ("close", "f", 3.0), ("close", "f", 4.0),
        ("close", "op", 4.0),
    ])
    op_root = {i for i, s in enumerate(spans) if s[0] == "op"}
    t = harness.span_tables(spans, op_root)
    assert "setup" not in t
    assert t["f"]["calls"] == 2 and t["f"]["busy_s"] == 3.0
    assert t["f"]["self_s"] == (3.0 - 1.0) + 1.0
    assert t["op"]["self_s"] == 0.0


def test_layer_metrics_per_op_and_ratios():
    clock = FakeClock()
    tracer = harness.Tracer(clock)
    eig_for = tracer.wrap("reconstruct.ReconstructionModel.eigensystem_for", lambda: None)
    solve = tracer.wrap("eigensystem.eigen_on_subdomain", lambda: None)
    gcv = tracer.wrap("reconstruct.select_truncations_gcv", lambda: None,
                      lambda a, k, r: {"used": 3, "skipped": 1})
    with tracer.span("bench.setup"):
        pass
    for i in range(2):
        with tracer.span("bench.op"):
            eig_for()
            eig_for()
            if i == 0:
                solve()
            gcv()
    op_roots = {i for i, s in enumerate(tracer.spans) if s[0] == "bench.op"}
    m = layers.layer_metrics(tracer.spans, op_roots, {0})
    assert m["eigensystem.eigen_on_subdomain.calls"] == 0.5
    assert m["eigensystem.cache_hit_ratio"] == 1.0 - 1 / 4
    assert m["reconstruct.gcv_split_use_ratio"] == 0.75
    assert m["reconstruct.select_truncations_gcv.calls"] == 1.0
    assert m["bench.traced_ops"] == 2
    assert m["iterative.steps_per_curve"] == 0.0
    assert {name for name, _ in layers.PER_LAYER} - {"bench.trace_overhead_ratio"} == set(m)


def test_wrapping_reaches_imported_names_and_undoes(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import f\n")
    (pkg / "a.py").write_text("def f(x):\n    return x + 1\n")
    (pkg / "b.py").write_text(textwrap.dedent("""
        from .a import f

        class K:
            def g(self, x):
                return f(x) * 2
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg
    import fakepkg.a
    import fakepkg.b

    tracer = harness.Tracer()
    restore = harness.wrap_module_functions(
        tracer, fakepkg, {"a.f": ("fakepkg.a", "f"), "b.K.g": ("fakepkg.b", "K.g")},
        {"a.f": lambda a, k, r: {"seen": r}},
    )
    try:
        assert fakepkg.b.K().g(1) == 4
        assert fakepkg.f(1) == 2
    finally:
        restore()
    names = [s[0] for s in tracer.spans]
    assert names == ["b.K.g", "a.f", "a.f"]
    assert tracer.spans[1][1] == 0 and tracer.spans[1][4] == {"seen": 2}
    count = len(tracer.spans)
    assert fakepkg.b.K().g(1) == 4 and len(tracer.spans) == count
    for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
        sys.modules.pop(name, None)
