"""Span tracer that times coopdetect's layers from outside the package.

``instrument`` replaces the module attributes through which the package calls
each layer with wrappers that record a span (name, parent, start, end), and
puts the originals back on exit.  Spans nest like the call stack, so a span's
self time is its duration minus the durations of its direct children.  Spans
stay in memory until ``summary`` folds them into per-name totals.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from coopdetect import harness, metrics, netsim, objective, solver

# Span name -> the (module, attribute) pairs the package looks that layer up
# through.  A function imported with ``from x import f`` is called through
# the importing module, so that is where it is replaced.
SPANS = {
    "harness.calibrate": [(harness, "calibrate")],
    "harness.mode_dispatch": [(harness, "mode_dispatch")],
    "harness.build_scenario": [(harness, "build_scenario")],
    "scenario.synthesize": [(harness, "synthesize")],
    "metrics.calibrate_threshold": [(metrics, "calibrate_threshold")],
    "metrics.evaluate": [(metrics, "evaluate")],
    "solver.run": [(solver, "run")],
    "solver.ap_iteration": [(solver, "ap_iteration")],
    "netsim.deliver_round": [(netsim, "deliver_round")],
    "objective.ml_gradient": [(solver, "ml_gradient")],
    "objective.sparsity_step": [(solver, "sparsity_step")],
    "objective.combiner_weights": [(solver, "combiner_weights")],
    "objective.similarity_prox": [(solver, "similarity_prox")],
    "linalg.cholesky_factor": [(objective, "cholesky_factor"), (solver, "cholesky_factor")],
    "linalg.downdate_quadforms_batch": [(objective, "downdate_quadforms_batch")],
}


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self.missing: list[str] = []     # attributes the program no longer has
        self.returns: dict[str, list] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.span_name):
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - covered[i]
        return out


def _wrap(tracer: Tracer, name: str, fn, on_return):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_return is not None:
            tracer.returns.setdefault(name, []).append(on_return(result))
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer, on_return=None):
    """Route every call listed in ``SPANS`` through ``tracer`` for the block.

    ``on_return`` maps a span name to a function of the wrapped call's return
    value; its results collect in ``tracer.returns[name]``.  Attributes the
    program lacks are listed in ``tracer.missing`` and left alone.
    """
    on_return = on_return or {}
    patched = []
    try:
        for name, targets in SPANS.items():
            for module, attr in targets:
                fn = getattr(module, attr, None)
                if fn is None:
                    tracer.missing.append(f"{module.__name__}.{attr}")
                    continue
                setattr(module, attr, _wrap(tracer, name, fn, on_return.get(name)))
                patched.append((module, attr, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)
