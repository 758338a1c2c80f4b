"""Span tracing of spreadnet's public functions, applied from outside.

The tracer replaces module-level names in every loaded ``spreadnet``
module with timing wrappers (import ``spreadnet.cli`` first so its names
are found too): a caller such as ``run_pipeline`` looks up
``spreadnet.pipeline.multi_restart_train`` at call time, so it reaches the
wrapper without any change to the program's sources. ``uninstall`` puts
the original objects back.

Each call records a span ``[name, start_ns, end_ns, parent, root]``. Spans
stay in memory until the caller writes them out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

# Layer (spreadnet module) -> public functions whose calls are timed.
LAYERS: dict[str, tuple[str, ...]] = {
    "series": ("load_series", "align"),
    "preprocess": ("assemble_base_sets", "build_derived_columns"),
    "neural": ("multi_restart_train", "split", "predict", "save_model", "load_model"),
    "scoring": ("ism_scorer", "score_model"),
    "metrics": ("equity_curves", "modified_sharpe", "excess_predictability",
                "divergence_percentage"),
    "ensemble": ("select_best", "build_master_matrix", "train_master", "master_forecast"),
    "pipeline": ("run_pipeline", "ingest", "train_all", "build_manifest", "emit_reports",
                 "load_run", "predict_from_run"),
    "cli": ("main",),
}

# Module-level private names timed only because a named metric needs them;
# they get no calls/total/self triple of their own.
PRIVATE: dict[str, tuple[str, ...]] = {"pipeline": ("_write_manifest",)}

NAME, START, END, PARENT, ROOT = range(5)


def traced_names() -> list[str]:
    """Every ``layer.function`` that gets a calls/total_ms/self_ms triple."""
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self, observers: dict | None = None):
        # observers: span name -> callback(args, kwargs, result), run after the
        # span closes so its cost falls outside the span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._observers = observers or {}
        self._plan: list[tuple[object, str, object, object]] = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spreadnet" or key.startswith("spreadnet."))]
        for layer, fns in LAYERS.items():
            mod = sys.modules[f"spreadnet.{layer}"]
            for fn_name in fns + PRIVATE.get(layer, ()):
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for holder in modules:
                    for attr, value in vars(holder).items():
                        if value is original:
                            self._plan.append((holder, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, spans[parent][ROOT] if parent >= 0 else idx]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for holder, attr, _, wrapper in self._plan:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._plan:
            setattr(holder, attr, original)

    @contextlib.contextmanager
    def active(self):
        """Trace the calls made inside the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "root"],
                                    "spans": self.spans}), encoding="utf-8")


def span_times(spans: list[list]) -> tuple[list[int], list[int]]:
    """Duration and self time (duration minus direct children) per span, in ns.

    Calls run on one thread and nest, so direct children never overlap and
    their summed durations are the part of the parent they cover.
    """
    dur = [s[END] - s[START] for s in spans]
    covered = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_ms and self_ms."""
    dur, self_ns = span_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        agg["calls"] += 1
        agg["total_ms"] += dur[i] / 1e6
        agg["self_ms"] += self_ns[i] / 1e6
    return out
