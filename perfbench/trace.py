"""Spans around calls into the ``repro`` layers, installed from outside.

:class:`Tracer` replaces public functions and methods of the ``repro``
modules with timing wrappers for the life of one traced run and puts the
originals back on :meth:`Tracer.uninstall`.  Nothing under ``src/`` knows
about it.  Spans are kept in memory (one list append per call) and
reduced to per-layer numbers when the run ends.

Synchronous calls nest through a per-thread stack, so a kernel called
from ``Engine.answer`` gets the engine span as its parent.  Coroutine
spans (``AsyncBatchEngine.answer``) interleave on the event loop and are
recorded as roots.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from .stats import Span


@dataclass
class Snapshot:
    """What a :class:`Tracer` recorded over one phase of a run."""

    spans: List[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    notes: Dict[int, dict] = field(default_factory=dict)


class Tracer:
    """Records spans and counts at layer boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Per-span extra facts keyed by span id (e.g. a request's tag).
        self.notes: Dict[int, dict] = {}
        self._ids = itertools.count()
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a nested span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def root(self, name: str, start: float, end: float, **note) -> int:
        """Record a finished root span (e.g. one coroutine's lifetime)."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, None, name, start, end))
        if note:
            self.notes[span_id] = note
        return span_id

    def count(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += n

    def take(self) -> "Snapshot":
        """Everything recorded so far; the tracer starts empty again."""
        snap = Snapshot(self.spans, self.counts, self.notes)
        self.spans, self.counts, self.notes = [], Counter(), {}
        return snap

    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Set ``owner.attr = wrapper(original)`` until :meth:`uninstall`."""
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else getattr(owner, attr)
        self._undo.append((owner, attr, original, had))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def patch_function(self, module: str, attr: str, name: str) -> None:
        """Wrap a module-level function wherever ``repro`` imported it."""
        original = getattr(sys.modules[module], attr)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                getattr(mod, attr, None) is original
            ):
                self.patch(mod, attr, lambda fn: self._timed(name, fn))

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        self.patch(cls, attr, lambda fn: self._timed(name, fn))

    def _timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original, had = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every ``repro`` layer.

    Span names are ``<layer>.<what>``; :mod:`layers` reduces them to the
    per-layer metrics.
    """
    from repro.core.interval_index import IntervalIndex
    from repro.core.packed import PackedPartitioning
    from repro.core.prefix_sum import PrefixSumTable
    from repro.datagen.cities import CityModel
    from repro.datagen.movement import MovementSimulator
    from repro.engine.async_batch import AsyncBatchEngine
    from repro.engine.engine import Engine
    from repro.methods.base import Sanitizer
    from repro.queries.evaluator import WorkloadEvaluator
    from repro.trajectories.od import ODMatrixBuilder
    import repro.experiments.runner  # noqa: F401 - binds run_methods
    import repro.queries.metrics  # noqa: F401 - binds accuracy_report
    import repro.queries.workload  # noqa: F401 - binds paper_workloads

    t = tracer
    t.patch_method(CityModel, "population_matrix", "datagen.population_matrix")
    t.patch_method(MovementSimulator, "sample", "datagen.movement_sample")
    t.patch_method(ODMatrixBuilder, "build", "trajectories.od_build")
    t.patch_function("repro.queries.workload", "paper_workloads",
                     "queries.workload_gen")
    t.patch_method(WorkloadEvaluator, "true_answers", "queries.truth")
    t.patch_method(WorkloadEvaluator, "evaluate_all", "queries.evaluate")
    t.patch_function("repro.queries.metrics", "accuracy_report",
                     "queries.metrics")
    t.patch_function("repro.experiments.runner", "run_methods",
                     "experiments.run_methods")
    t.patch_method(PackedPartitioning, "dense_array", "core.dense_build")
    t.patch_method(PrefixSumTable, "__init__", "core.prefix_build")
    t.patch_method(PrefixSumTable, "query_arrays", "core.prefix_query")
    t.patch_method(PackedPartitioning, "answer_many_arrays", "core.broadcast")
    t.patch_method(IntervalIndex, "answer_pruned", "core.pruned")
    t.patch_function("repro.core.interval_index", "plan_with_slices",
                     "core.plan")

    def sanitize(fn):
        def wrapper(self, *args, **kwargs):
            name = self.name or type(self).__name__.lower()
            private = t.call(f"methods.sanitize.{name}", fn, self, *args,
                             **kwargs)
            t.count(f"methods.partitions.{name}", private.n_partitions)
            return private

        return wrapper

    def engine_answer(fn):
        def wrapper(self, request):
            answer = t.call("engine.answer", fn, self, request)
            t.count(f"engine.plans.{answer.plan}")
            return answer

        return wrapper

    def batch_answer(fn):
        async def wrapper(self, request):
            start = t.clock()
            answer = await fn(self, request)
            t.root("async_batch.answer", start, t.clock(),
                   tag=request.workload, engine_s=answer.elapsed_seconds)
            return answer

        if not inspect.iscoroutinefunction(fn):
            raise TypeError("AsyncBatchEngine.answer is no longer a coroutine")
        return wrapper

    t.patch(Sanitizer, "sanitize", sanitize)
    t.patch(Engine, "answer", engine_answer)
    t.patch(AsyncBatchEngine, "answer", batch_answer)
    return t
