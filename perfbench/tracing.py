"""Layer spans recorded from outside the package.

The tracer replaces module attributes with timing wrappers, so every caller
that looks a function up through its module at call time is traced: the
pipeline's ``st.invariants``, ``states.invariants`` calling ``resolve``, and
so on. Names imported into another module (``pipeline.parse_pd``,
``cli.run_analyze``) are patched there as well.

Spans are kept in memory as ``(id, name, parent id, start, end, cpu,
self cpu, count)`` and summarised at the end. ``start`` and ``end`` are
wall-clock; ``cpu`` is the CPU time of the span's thread, so that GIL waits
in ``run_batch``'s pool do not count as work, and ``self cpu`` is ``cpu``
minus the CPU time of the span's children on the same thread. Each thread
keeps its own span stack; the outermost span of a worker thread gets as
parent the span open on the thread that installed the tracer.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter
from time import perf_counter, thread_time

# Public functions per layer; ``errors`` is not timed.
LAYERS = {
    "diagram": ("parse_pd", "parse_braid", "braid_closure"),
    "states": ("resolve", "invariants", "twist_analysis"),
    "bounds": (
        "general_bounds", "criterion_check", "adequate_bounds_from_counts", "adequate_bounds",
        "twist_bound", "twist_area_bound", "pretzel_bounds", "braid_criterion", "best_bounds",
    ),
    "surgery": (
        "slope_length_lower", "exceptional_filter", "surgery_volume_window", "montesinos_window",
    ),
    "pipeline": ("parse_slope_list", "run_analyze", "run_surgery", "run_batch"),
    "cli": ("main",),
}
# Names another module imported directly: (importing module, layer, names).
IMPORTED = (
    ("pipeline", "diagram", ("parse_pd", "parse_braid", "braid_closure")),
    ("cli", "pipeline", ("parse_slope_list", "run_analyze", "run_surgery", "run_batch")),
)
# Functions that return a diagram record its crossing count.
COUNTED = {"diagram.parse_pd", "diagram.braid_closure"}
_NO_RESULT = object()


class Tracer:
    def __init__(self, package):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._patched: list[tuple] = []
        self._targets = [
            (getattr(package, layer), attr, f"{layer}.{attr}")
            for layer, attrs in LAYERS.items()
            for attr in attrs
        ] + [
            (getattr(package, module), attr, f"{layer}.{attr}")
            for module, layer, attrs in IMPORTED
            for attr in attrs
        ]

    def _stack(self) -> list[list]:
        """Open spans of the calling thread as ``[id, child cpu]`` frames."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            try:
                parent = (stack or self._main_stack)[-1][0]
            except IndexError:  # no span open anywhere
                parent = -1
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            result = _NO_RESULT
            start, cpu_start = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = thread_time() - cpu_start
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                n = result.c if counted and result is not _NO_RESULT else 0
                self.spans.append((frame[0], name, parent, start, end, cpu, cpu - frame[1], n))

        return traced

    def install(self) -> None:
        self._local.stack = self._main_stack
        for module, attr, name in self._targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Restore the original functions; a no-op when nothing is patched."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(spans, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer ``(value, unit)`` figures, as totals per workload operation
    unless named as a ratio. Times are CPU times: inclusive per function,
    per layer counting only the outermost span of that layer."""
    names = {span[0]: span[1] for span in spans}
    fn_ms = Counter()
    fn_calls = Counter()
    self_ms = Counter()
    layer_ms = Counter()
    layer_calls = Counter()
    top_calls = Counter()
    counts = Counter()
    analyses = 0
    row_wall = batch_wall = 0.0
    for _, name, parent, start, end, cpu, self_cpu, n in spans:
        ms = cpu * 1e3
        layer = name.split(".")[0]
        parent_name = names.get(parent, "")
        fn_ms[name] += ms
        fn_calls[name] += 1
        self_ms[name] += self_cpu * 1e3
        counts[name] += n
        if parent_name.split(".")[0] != layer:
            layer_ms[layer] += ms
            layer_calls[layer] += 1
            top_calls[name] += 1
        if name == "states.invariants" and parent_name == "pipeline.run_analyze":
            analyses += 1
        if name == "pipeline.run_analyze" and parent_name == "pipeline.run_batch":
            row_wall += end - start
        if name == "pipeline.run_batch":
            batch_wall += end - start

    def per_op(x: float) -> float:
        return x / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    crossings = counts["diagram.parse_pd"] + counts["diagram.braid_closure"]
    resolves = fn_calls["states.resolve"]
    slopes = top_calls["surgery.exceptional_filter"] + top_calls["surgery.montesinos_window"]
    return {
        "diagram.parse_pd.ms": (per_op(fn_ms["diagram.parse_pd"]), "ms"),
        "diagram.parse_braid.ms": (per_op(fn_ms["diagram.parse_braid"]), "ms"),
        "diagram.braid_closure.ms": (per_op(fn_ms["diagram.braid_closure"]), "ms"),
        "diagram.crossings": (per_op(crossings), "count"),
        "diagram.ns_per_crossing": (ratio(layer_ms["diagram"] * 1e6, crossings), "ns"),
        "states.invariants.ms": (per_op(fn_ms["states.invariants"]), "ms"),
        "states.resolve.ms": (per_op(fn_ms["states.resolve"]), "ms"),
        "states.twist_analysis.ms": (per_op(fn_ms["states.twist_analysis"]), "ms"),
        "states.resolve.calls": (ratio(resolves, analyses), "count"),
        "states.resolve.useful_ratio": (ratio(2 * analyses, resolves), "ratio"),
        "bounds.ms": (per_op(layer_ms["bounds"]), "ms"),
        "bounds.calls": (per_op(layer_calls["bounds"]), "count"),
        "surgery.ms": (per_op(layer_ms["surgery"]), "ms"),
        "surgery.slopes": (per_op(slopes), "count"),
        "surgery.us_per_slope": (ratio(layer_ms["surgery"] * 1e3, slopes), "us"),
        "pipeline.run_analyze.self_ms": (per_op(self_ms["pipeline.run_analyze"]), "ms"),
        "pipeline.parse_slope_list.ms": (per_op(fn_ms["pipeline.parse_slope_list"]), "ms"),
        "pipeline.run_batch.self_ms": (per_op(self_ms["pipeline.run_batch"]), "ms"),
        "pipeline.batch_overlap": (ratio(row_wall, batch_wall), "ratio"),
        "cli.main.self_ms": (per_op(self_ms["cli.main"]), "ms"),
    }
