"""In-memory spans around calls into oodgate's public functions.

A span records a name, start, end, the span that caused it, and the run it
belongs to. Spans stay in memory and are written as JSON lines when the
process ends. Start and end come from ``time.perf_counter``, which on Linux
reads the system-wide monotonic clock, so spans from the runner and from its
child processes share one time base and nest across processes.

This module imports only the standard library at import time; the runner
uses it without loading numpy. ``instrument`` imports oodgate when called.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

#: Environment variables through which a parent hands tracing to a child.
ENV_DIR = "BENCH_TRACE_DIR"
ENV_PARENT = "BENCH_TRACE_PARENT"
ENV_RUN = "BENCH_RUN_ID"

#: Public functions wrapped in every oodgate module that holds them, with
#: the layer that owns each. A call is recorded once, through whichever
#: module's attribute the caller looked up.
WRAPPED = {
    "read_feature_table": "data",
    "write_feature_table": "data",
    "fit_mahalanobis": "detectors",
    "save_model": "detectors",
    "load_model": "detectors",
    "score_table": "detectors",
    "score_msp": "detectors",
    "score_energy": "detectors",
    "score_mahalanobis": "detectors",
    "write_scores": "detectors",
    "read_scores": "detectors",
    "evaluate": "metrics",
    "calibrate_threshold": "metrics",
    "roc_curve": "metrics",
    "roc_svg": "svg",
    "generate_world": "synthetic",
    "run_sweep": "experiments",
}

_MODULES = ("cli", "data", "detectors", "experiments", "metrics", "svg", "synthetic")

#: Spans the benchmark makes around processes, imports and instrumenting,
#: rather than around a wrapped call.
OWN_SPANS = ("cli.stage", "bench.export", "cli.import", "trace.instrument")


class Tracer:
    """Collects the spans of one process."""

    def __init__(self, run_id: str, parent: str | None = None, out_dir: str | None = None):
        self.run_id = run_id
        self.out_dir = out_dir
        self.spans: list[dict] = []
        self._stack: list[str | None] = [parent]
        self._next = 0

    @classmethod
    def from_env(cls) -> "Tracer | None":
        """The tracer a parent asked for, or None when tracing is off."""
        out_dir = os.environ.get(ENV_DIR)
        if not out_dir:
            return None
        return cls(os.environ.get(ENV_RUN, "run"), os.environ.get(ENV_PARENT) or None, out_dir)

    def new_id(self) -> str:
        self._next += 1
        return f"{os.getpid()}.{self._next}"

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; the yielded dict takes attributes set in the body."""
        sid = self.new_id()
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.record(sid, name, parent, start, end, attrs)

    def record(self, sid, name, parent, start, end, attrs=None) -> None:
        span = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
                "start": start, "end": end}
        span.update(attrs or {})
        self.spans.append(span)

    def child_env(self, parent: str) -> dict:
        """Environment entries that make a child process trace under ``parent``."""
        return {ENV_DIR: str(self.out_dir), ENV_PARENT: parent, ENV_RUN: self.run_id}

    def dump(self) -> None:
        """Write this process's spans to its own file in the trace directory."""
        if self.out_dir is None or not self.spans:
            return
        path = Path(self.out_dir) / f"spans-{os.getpid()}-{self._next}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def read_spans(out_dir: str | Path) -> list[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans += [json.loads(line) for line in fh if line.strip()]
    return spans


def _table_format(name: str, args: tuple, kwargs: dict) -> str:
    """``csv`` or ``oodf``, from the format argument of a table read or write."""
    pos = 2 if name == "write_feature_table" else 1
    fmt = args[pos] if len(args) > pos else kwargs.get("fmt")
    return "csv" if getattr(fmt, "value", None) == "CSV" else "oodf"


def _wrap(tracer: Tracer, name: str, fn):
    layer = WRAPPED[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = f"{layer}.{name}"
        attrs = {}
        if name in ("read_feature_table", "write_feature_table"):
            span_name += "." + _table_format(name, args, kwargs)
        elif name == "score_mahalanobis":
            attrs["rows"] = int(len(args[1]))
        with tracer.span(span_name, **attrs) as out:
            if name == "read_feature_table":
                out["bytes"] = os.path.getsize(args[0])
            result = fn(*args, **kwargs)
            if name == "write_feature_table":
                out["bytes"] = os.path.getsize(args[1])
            return result

    return traced


def wrapped_call_cost_s(calls: int = 2000, repeats: int = 7) -> float:
    """Seconds that a span wrapper adds to one call, writing the span out
    included: per call, the least over ``repeats`` of a wrapped no-op loop
    (plus encoding its spans) minus a plain one."""

    def noop(*args):
        return None

    tracer = Tracer("cost")
    wrapped = _wrap(tracer, "score_msp", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(0)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(0)
        for span in tracer.spans:
            json.dumps(span)
        t2 = time.perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


#: Everything ``instrument`` can wrap: the functions plus table construction.
ALL = tuple(WRAPPED) + ("FeatureTable",)


def instrument(tracer: Tracer, names=ALL) -> None:
    """Replace ``names`` in every oodgate module that holds them with
    span-recording wrappers; ``"FeatureTable"`` wraps ``FeatureTable.__init__``
    (table validation).

    Only module attributes change; oodgate's source is untouched.
    """
    import importlib

    modules = [importlib.import_module(f"oodgate.{m}") for m in _MODULES]
    for name in names:
        if name == "FeatureTable":
            continue
        layer_module = importlib.import_module(f"oodgate.{WRAPPED[name]}")
        original = getattr(layer_module, name)
        traced = _wrap(tracer, name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, traced)

    if "FeatureTable" not in names:
        return
    from oodgate.data import FeatureTable

    init = FeatureTable.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        with tracer.span("data.FeatureTable.init"):
            init(self, *args, **kwargs)

    FeatureTable.__init__ = traced_init
