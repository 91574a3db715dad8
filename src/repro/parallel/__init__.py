"""Batch-parallel evaluation subsystem.

The tuners produce joint q-EHVI batches (``suggest_batch``); this package
evaluates them concurrently: :class:`BatchEvaluator` runs one workload replay
per worker process (one process pool, per-worker server, shared read-only
dataset, deterministic ordering, per-task failure isolation); one worker
evaluates in-process.
:meth:`repro.workloads.environment.VDMSTuningEnvironment.evaluate_batch`
plugs an evaluator into the tuning loop, and the ``--batch-size``/``--workers``
CLI flags wire it up end to end.  See ``docs/architecture.md`` for the design
and the determinism guarantees.
"""

from repro.parallel.evaluator import BatchEvaluator, WorkerFailure

__all__ = ["BatchEvaluator", "WorkerFailure"]
