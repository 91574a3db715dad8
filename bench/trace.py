"""Spans recorded from outside the program, for the traced run only.

``Tracer.install`` replaces the public callables listed in ``TARGETS`` with
timing wrappers, patching each name where its callers look it up: a method on
its class, a function in every ``repro`` module that imported it.  A span is
``(id, parent, name, thread, start, end)``; the parent is the innermost span
open on the same thread, and the one thread hop of a request — the callable
handed to ``AdmissionController.submit`` — is wrapped so the worker-side spans
hang under the span that submitted them.  ``Tracer.uninstall`` puts every
original object back.  A target that no longer exists is listed in
``Tracer.missing`` and never raises: later refactors will move these names.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["TARGETS", "SpanTotals", "Tracer", "aggregate"]

#: ``(span name, module, attribute)``; the span name is ``<layer>:<operation>``
#: and the layer is the ``repro`` module the time is charged to.  Several
#: targets may share one span name (all cache lookups, all scan kernels).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("serving.admission:execute", "repro.serving.server", "ServingFrontend.execute"),
    ("vdms.server:search", "repro.vdms.server", "VectorDBServer.search"),
    ("vdms.cache:key", "repro.vdms.cache", "request_cache_key"),
    ("vdms.cache:lookup", "repro.vdms.cache", "TieredQueryCache.get_result"),
    ("vdms.cache:lookup", "repro.vdms.cache", "TieredQueryCache.get_plan"),
    ("vdms.cache:store", "repro.vdms.cache", "TieredQueryCache.put_result"),
    ("vdms.cache:store", "repro.vdms.cache", "TieredQueryCache.put_plan"),
    ("vdms.collection:search", "repro.vdms.collection", "Collection.search"),
    ("vdms.collection:insert", "repro.vdms.collection", "Collection.insert"),
    ("vdms.collection:flush", "repro.vdms.collection", "Collection.flush"),
    ("vdms.collection:delete", "repro.vdms.collection", "Collection.delete"),
    ("vdms.collection:create_index", "repro.vdms.collection", "Collection.create_index"),
    ("vdms.maintenance:run", "repro.vdms.collection", "Collection.run_maintenance"),
    ("vdms.request:mask", "repro.vdms.request", "AttributeFilter.mask"),
    ("vdms.sharding:snapshot", "repro.vdms.sharding", "Shard.snapshot"),
    ("vdms.sharding:merge", "repro.vdms.sharding", "merge_topk"),
    ("vdms.sharding:scheduler_run", "repro.vdms.sharding", "QueryScheduler.run"),
    ("vdms.index:search", "repro.vdms.index.base", "VectorIndex.search"),
    ("vdms.index:build", "repro.vdms.index.base", "VectorIndex.build"),
    ("vdms.distance:scan", "repro.vdms.distance", "pairwise_distances_blocked"),
    ("vdms.distance:scan", "repro.vdms.distance", "pairwise_distances"),
    ("vdms.distance:scan", "repro.vdms.distance", "masked_topk"),
    ("vdms.distance:topk", "repro.vdms.distance", "top_k_select"),
    ("vdms.distance:prepare", "repro.vdms.distance", "prepare_vectors"),
    ("vdms.segment:insert", "repro.vdms.segment", "SegmentManager.insert"),
    ("vdms.segment:flush", "repro.vdms.segment", "SegmentManager.flush"),
    ("vdms.segment:delete", "repro.vdms.segment", "SegmentManager.delete"),
    ("vdms.segment:compact", "repro.vdms.segment", "SegmentManager.compact"),
    ("vdms.durability:log", "repro.vdms.durability.manager", "DurabilityManager.log_insert"),
    ("vdms.durability:log", "repro.vdms.durability.manager", "DurabilityManager.log_delete"),
    ("vdms.durability:log", "repro.vdms.durability.manager", "DurabilityManager.log_flush"),
    ("vdms.durability:log", "repro.vdms.durability.manager", "DurabilityManager.log_create_index"),
    ("vdms.durability:log", "repro.vdms.durability.manager", "DurabilityManager.log_drop_index"),
    ("vdms.cost_model:evaluate", "repro.vdms.cost_model", "CostModel.evaluate"),
    ("vdms.cost_model:concurrent_qps", "repro.vdms.cost_model", "CostModel.concurrent_qps"),
    ("workloads.environment:evaluate", "repro.workloads.environment", "VDMSTuningEnvironment.evaluate"),
    ("workloads.replay:replay", "repro.workloads.replay", "WorkloadReplayer.replay"),
    ("core.tuner:suggest", "repro.core.tuner", "VDTuner.suggest_batch"),
    ("core.surrogate:fit", "repro.core.surrogate", "PollingSurrogate.fit"),
    ("core.surrogate:predict", "repro.core.surrogate", "PollingSurrogate.predict"),
    ("bo.gp:fit", "repro.bo.gp", "GaussianProcessRegressor.fit"),
    ("bo.gp:predict", "repro.bo.gp", "GaussianProcessRegressor.predict"),
    ("core.acquisition:recommend", "repro.core.acquisition", "ConfigurationRecommender.recommend"),
    ("core.acquisition:candidates", "repro.core.acquisition", "ConfigurationRecommender.generate_candidates"),
    ("bo.ehvi:ehvi", "repro.bo.ehvi", "monte_carlo_ehvi"),
    ("core.scoring:update", "repro.core.scoring", "SuccessiveAbandonPolicy.update_scores"),
)

#: The thread hop: the submitted callable becomes a ``serving.admission:job``
#: span (and the time before a worker picks it up a ``…:queue_wait`` span),
#: both children of the span that called ``submit``.
_SUBMIT = ("repro.serving.admission", "AdmissionController.submit")

#: Span names whose return value is kept (``Tracer.kept``): the counters the
#: program hands back to its caller but the benchmark cannot otherwise see.
_KEEP: dict[str, Callable[[Any], Any]] = {
    "vdms.collection:search": lambda result: (result.stats, result.filter_stats),
    "vdms.maintenance:run": lambda report: report,
}


@dataclass
class SpanTotals:
    """Per span name: calls, summed duration of outermost spans, summed self time."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def aggregate(spans: Iterable[tuple]) -> dict[str, SpanTotals]:
    """Fold spans into per-name totals (seconds).

    Self time is a span's duration minus the durations of its children; a
    child lies inside its parent's interval (same thread, or the submitter
    blocked on it), so no clipping is needed.  ``total`` skips a span nested
    directly in one of the same name, so a kernel that calls another kernel
    is not counted twice.
    """
    spans = list(spans)
    name_of = {span[0]: span[2] for span in spans}
    children: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent:
            children[parent] = children.get(parent, 0.0) + (end - start)
    totals: dict[str, SpanTotals] = {}
    for span_id, parent, name, _, start, end in spans:
        entry = totals.setdefault(name, SpanTotals())
        duration = end - start
        entry.calls += 1
        entry.self_time += duration - children.get(span_id, 0.0)
        if name_of.get(parent) != name:
            entry.total += duration
    return totals


class Tracer:
    """Installs the wrappers, holds the spans in memory, writes them out."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        #: Span names with at least one target in place; the metrics of any
        #: other name are unknown (``null``), not zero.
        self.installed: set[str] = set()
        self.kept: dict[str, list] = {name: [] for name in _KEEP}
        self._local = threading.local()
        self._next_id = itertools.count(1).__next__
        #: ``(owner, attribute, had_own_attribute, original)`` per patched name.
        self.patches: list[tuple[Any, str, bool, Any]] = []

    # -- wrappers -------------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        get_stack, spans, clock = self._stack, self.spans, time.perf_counter
        next_id, ident = self._next_id, threading.get_ident
        keep = _KEEP.get(name)
        kept = self.kept.get(name)

        def traced(*args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if stack else 0
            span_id = next_id()
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, ident(), start, end))
            if keep is not None:
                kept.append(keep(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_submit(self, submit: Callable) -> Callable:
        get_stack, spans, clock = self._stack, self.spans, time.perf_counter
        next_id, ident = self._next_id, threading.get_ident

        def traced_submit(controller, fn, *args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if stack else 0
            submitted = clock()

            def job(*job_args, **job_kwargs):
                worker_stack = get_stack()
                span_id = next_id()
                worker_stack.append(span_id)
                start = clock()
                spans.append(
                    (next_id(), parent, "serving.admission:queue_wait", ident(), submitted, start)
                )
                try:
                    return fn(*job_args, **job_kwargs)
                finally:
                    end = clock()
                    worker_stack.pop()
                    spans.append((span_id, parent, "serving.admission:job", ident(), start, end))

            return submit(controller, job, *args, **kwargs)

        traced_submit.__wrapped__ = submit
        return traced_submit

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        had_own = attribute in vars(owner)
        self.patches.append((owner, attribute, had_own, vars(owner).get(attribute)))
        setattr(owner, attribute, replacement)

    def _install_one(self, module_name: str, path: str, wrap: Callable[[Callable], Callable]) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name, None)
            original = getattr(owner, attribute, None)
            if original is None:
                return False
            self._patch(owner, attribute, wrap(original))
            return True
        original = getattr(module, path, None)
        if original is None:
            return False
        wrapper = wrap(original)
        for name, candidate in list(sys.modules.items()):
            if name.startswith("repro") and getattr(candidate, path, None) is original:
                self._patch(candidate, path, wrapper)
        return True

    def install(self) -> "Tracer":
        for name, module_name, path in TARGETS:
            if self._install_one(module_name, path, lambda fn, name=name: self._wrap(name, fn)):
                self.installed.add(name)
            else:
                self.missing.append(f"{module_name}.{path}")
        if self._install_one(*_SUBMIT, self._wrap_submit):
            self.installed.update(("serving.admission:queue_wait", "serving.admission:job"))
        else:
            self.missing.append(".".join(_SUBMIT))
        return self

    def uninstall(self) -> None:
        for owner, attribute, had_own, original in reversed(self.patches):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self.patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- reading ----------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every span called ``name``, in completion order."""
        return [end - start for _, _, span_name, _, start, end in self.spans if span_name == name]

    def write(
        self,
        path: Path,
        *,
        header: dict,
        origin: float,
        totals: dict[str, SpanTotals],
        limit: int = 50_000,
    ) -> None:
        """Write ``totals`` (``aggregate(self.spans)``) and the first ``limit`` spans as JSON.

        Times are milliseconds since ``origin`` (the start of the timed
        region); ``request`` is the id of the span's root ancestor, shared by
        every span of one operation.
        """
        parent_of = {span[0]: span[1] for span in self.spans}

        def root(span_id: int) -> int:
            while parent_of.get(span_id):
                span_id = parent_of[span_id]
            return span_id

        rows = [
            [span_id, parent, root(span_id), name, thread,
             round((start - origin) * 1e3, 4), round((end - origin) * 1e3, 4)]
            for span_id, parent, name, thread, start, end in self.spans[:limit]
        ]
        document = dict(header)
        document.update(
            missing=self.missing,
            spans_recorded=len(self.spans),
            spans_written=len(rows),
            totals={
                name: {"calls": t.calls, "total_ms": t.total * 1e3, "self_ms": t.self_time * 1e3}
                for name, t in sorted(totals.items())
            },
            span_fields=["id", "parent", "request", "name", "thread", "start_ms", "end_ms"],
            spans=rows,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")
