"""Measurement arithmetic of the benchmark: op counting, timed rounds and span tracing.

Standard library only, so the tests of this module run without fdrecon.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import time
from dataclasses import dataclass, field


@dataclass
class OpLog:
    """Latency and CPU time of every timed op that did not fail, and the failures.

    An op fails when it raises, exits non-zero or fails its check. A failed
    op counts as attempted; its time and curves stay out of the metrics,
    which describe the ops that did not fail.
    """

    latencies: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    recons: int = 0
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, latency: float, cpu: float, recons: int, error: str | None) -> None:
        if error is None:
            self.latencies.append(latency)
            self.cpu.append(cpu)
            self.recons += recons
        else:
            self.failures.append(error)

    def busy_s(self) -> float:
        return float(sum(self.latencies))

    def recons_per_s(self) -> float:
        return self.recons / self.busy_s()

    def cpu_s_per_recon(self) -> float:
        return float(sum(self.cpu)) / self.recons


def run_op(log: OpLog, op, check=None) -> str | None:
    """Time one op, then check its result outside the timed region.

    ``op()`` returns (result, reconstructed curve count); ``check(result)``
    returns an error text or None. Exceptions from either count as a
    failure. Returns the error text, None when the op did not fail.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    result, error, recons = None, None, 0
    try:
        result, recons = op()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    latency, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is None and check is not None:
        try:
            error = check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    log.record(latency, cpu, recons, error)
    return error


def run_round(log: OpLog, round_) -> None:
    """Run one round's (op, check) pairs in order, recording each in ``log``."""
    for op, check in round_:
        run_op(log, op, check)


def timed_rounds(one_round, seconds: float) -> int:
    """Call ``one_round()`` until ``seconds`` of wall time have passed.

    The deadline is tested only between rounds, so every run attempts whole
    rounds and at least one. Returns the number of rounds.
    """
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        one_round()
        rounds += 1
    return rounds


# --------------------------------------------------------------------- spans


class Tracer:
    """In-memory spans: [name, parent index, start, end, attributes].

    ``span(name)`` is a context manager; ``wrap(name, fn, observe)`` returns
    a function that records a span around each call of ``fn`` and stores
    ``observe(args, kwargs, result)`` (a dict) as the span's attributes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs=None) -> None:
        self.spans[idx][3] = self.clock()
        self.spans[idx][4] = attrs
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = attrs = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    attrs = observe(args, kwargs, result)
                return result
            finally:
                self._close(idx, attrs)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "attrs"], "spans": self.spans}, fh)


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_tables(spans, roots: set[int] | None = None) -> dict:
    """Per span name: calls, busy time, self time and summed attributes.

    Only spans below one of ``roots`` (span indices) count when ``roots`` is
    given. Busy time sums the outermost spans of a name, so a recursive
    call is not counted twice; self time is a span's duration minus the
    part of it its direct children cover.
    """
    children: dict[int, list] = {}
    for i, (_, parent, *_rest) in enumerate(spans):
        children.setdefault(parent, []).append(i)

    def inside(i: int) -> bool:
        if roots is None:
            return True
        while i >= 0:
            if i in roots:
                return True
            i = spans[i][1]
        return False

    def nested_in_same_name(i: int) -> bool:
        name, p = spans[i][0], spans[i][1]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][1]
        return False

    out: dict[str, dict] = {}
    for i, (name, _parent, start, end, attrs) in enumerate(spans):
        if not inside(i):
            continue
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": {}})
        row["calls"] += 1
        if not nested_in_same_name(i):
            row["busy_s"] += end - start
        covered = _union_length([(spans[c][2], spans[c][3]) for c in children.get(i, [])])
        row["self_s"] += (end - start) - covered
        for key, value in (attrs or {}).items():
            row["attrs"][key] = row["attrs"].get(key, 0) + value
    return out


def wrap_module_functions(tracer: Tracer, package, targets: dict, observers: dict | None = None):
    """Trace the target functions wherever the package's modules refer to them.

    ``targets`` maps a span name to (module name, attribute); an attribute
    ``Class.method`` wraps the method on its class. A function imported by
    name into other modules of the package is replaced there too, so calls
    between modules are traced. Returns a function that undoes it all.
    """
    observers = observers or {}
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    undo, wrappers = [], {}
    for span_name, (mod_name, attr) in targets.items():
        owner = importlib.import_module(mod_name)
        observe = observers.get(span_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(span_name, original, observe))
        else:
            original = getattr(owner, attr)
            wrappers[id(original)] = tracer.wrap(span_name, original, observe)
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)

    def restore():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return restore
