"""Spans taken from outside the program.

The tracer wraps the public functions of each layer of ``autoad``, both
in the module that defines them and under every name another module
imported them as (``autoad.orchestrator.tune`` is the same function as
``autoad.optimizer.tune``).  Each call becomes one span: name, start,
end, the id of the span that caused it, and the id of the operation (a
tick or a training) it belongs to.  Spans stay in memory until
:meth:`Tracer.write` puts them in a JSON-lines file.

Nothing under ``src/`` changes: :meth:`Tracer.install` swaps module
attributes and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from time import perf_counter

# layer -> public functions wrapped in that layer's module.  ``stats``
# runs inside the per-point loops and is left alone: wrapping it would
# swamp the run.
LAYER_FUNCTIONS = {
    "optimizer": ("tune", "cost", "prepare_labeled", "default_config", "inject_synthetic_anomalies"),
    "structural": ("fit_structural", "forecast", "in_sample_probabilities"),
    "filtering": ("fit_filtering", "run_filter", "score_step", "frozen_scorer"),
    "profiling": ("profile",),
    "evaluation": ("mv_curve", "em_curve", "summarize_criteria", "classify_health"),
    "series": ("read_csv", "impute", "smooth", "aggregate"),
}
ENGINE_METHODS = (
    "jobs",
    "run_scoring_cycle",
    "run_training_cycle",
    "run_evaluation_cycle",
    "metric_curves",
)


def _note_cost(args, kwargs, result):
    return 1.0 if not math.isfinite(result) else 0.0


def _note_points(args, kwargs, result):
    values = args[1] if len(args) > 1 else kwargs["values"]
    return float(len(values))


def _note_best_cost(args, kwargs, result):
    return float(result.best_cost)


# per-span number kept beside the timing: inf cost, filtered points, best cost
NOTES = {
    "optimizer.cost": _note_cost,
    "filtering.run_filter": _note_points,
    "optimizer.tune": _note_best_cost,
}


class Tracer:
    """In-memory span recorder over wrapped ``autoad`` functions."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, ok, note)
        self.op_id = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, ok, note):
        self._stack.pop()
        self.spans.append((span_id, name, start, perf_counter(), parent, self.op_id, ok, note))

    @contextmanager
    def span(self, name: str, op_id):
        """Root span of one operation; every span inside it shares ``op_id``."""
        self.op_id = op_id
        span_id, parent = self._open()
        start = perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(span_id, parent, name, start, ok, None)
            self.op_id = None

    def _wrap(self, fn, name):
        note = NOTES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = perf_counter()
            ok = False
            value = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                if note is not None:
                    value = note(args, kwargs, result)
                return result
            finally:
                tracer._close(span_id, parent, name, start, ok, value)

        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function under every name it is reachable by."""
        import autoad  # noqa: F401 - loads every layer module
        from autoad import orchestrator

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "autoad" or key.startswith("autoad."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"autoad.{layer}")
            if home is None:
                continue
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, f"{layer}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        engine = orchestrator.Engine
        for meth in ENGINE_METHODS:
            original = engine.__dict__.get(meth)
            if original is None:
                continue
            self._undo.append((engine, meth, original))
            setattr(engine, meth, self._wrap(original, f"orchestrator.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op, ok, note in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "ok": ok, "note": note,
                }) + "\n")

    def summary(self) -> dict:
        """Per span name: top-level calls, total and self seconds, failures, notes.

        A call nested directly inside a call of the same name (recursion)
        is folded into its caller.  Self time is a span's duration minus
        the time its child spans cover.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for span_id, name, start, end, parent, op, ok, note in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for span_id, name, start, end, parent, op, ok, note in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "failed": 0, "note_sum": 0.0})
            row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
            if parent is not None and by_id[parent][1] == name:
                continue
            row["calls"] += 1
            row["total_s"] += end - start
            row["failed"] += 0 if ok else 1
            row["note_sum"] += note or 0.0
        return out
