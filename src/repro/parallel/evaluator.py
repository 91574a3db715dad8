"""Concurrent evaluation of configuration batches on a process pool.

:class:`BatchEvaluator` is the evaluation half of the batch-parallel tuning
engine: the tuner suggests a joint q-EHVI batch
(:meth:`repro.core.tuner.VDTuner.suggest_batch`) and the evaluator replays
the q configurations concurrently, one per worker process.  Design points:

* **Per-worker server.**  Every worker owns a private
  :class:`~repro.vdms.server.VectorDBServer` (inside its
  :class:`~repro.workloads.replay.WorkloadReplayer`), so concurrent replays
  never share mutable index state.  The dataset and workload are shipped to
  each worker exactly once (pool initializer) and treated as read-only.

* **Deterministic results.**  Results are returned in submission order and
  the simulated replayer is itself deterministic — nothing depends on worker
  identity or scheduling — so a batch evaluated on 1 worker is bit-identical
  to the same batch on N workers.

* **Failure isolation.**  A worker exception is converted into a failed
  :class:`~repro.workloads.replay.EvaluationResult` for that configuration
  only; the rest of the batch and the pool survive.  A broken process pool
  degrades to in-process evaluation for the affected batch.
"""

from __future__ import annotations

import concurrent.futures
from typing import Any, Mapping, Sequence

from repro.datasets.dataset import Dataset
from repro.workloads.replay import EvaluationResult, WorkloadReplayer
from repro.workloads.workload import SearchWorkload

__all__ = ["BatchEvaluator", "WorkerFailure"]


class WorkerFailure(Exception):
    """Raised internally when a worker cannot produce a result.

    Stored (not raised) by :meth:`BatchEvaluator.evaluate_many`, which turns
    it into a failed :class:`~repro.workloads.replay.EvaluationResult` so one
    bad configuration never kills a batch.
    """


def _failed_result(configuration: Mapping[str, Any], message: str) -> EvaluationResult:
    return EvaluationResult(
        qps=0.0,
        recall=0.0,
        memory_gib=0.0,
        latency_ms=float("inf"),
        build_seconds=0.0,
        replay_seconds=0.0,
        failed=True,
        configuration={**dict(configuration), "worker_error": message},
        breakdown={"worker_error": 1.0},
    )


# -- process-pool worker protocol -------------------------------------------------------
#
# The replayer is built once per worker process by the initializer and reused
# for every task, so the dataset crosses the process boundary exactly once.

_WORKER_REPLAYER: WorkloadReplayer | None = None


def _process_worker_init(
    dataset: Dataset,
    workload: SearchWorkload,
    use_query_scheduler: bool = True,
    mutations=None,
    row_ids=None,
) -> None:
    global _WORKER_REPLAYER
    _WORKER_REPLAYER = WorkloadReplayer(
        dataset,
        workload,
        use_query_scheduler=use_query_scheduler,
        mutations=mutations,
        row_ids=row_ids,
    )


def _isolated_replay(
    replayer: WorkloadReplayer, values: dict[str, Any]
) -> EvaluationResult | WorkerFailure:
    """Replay one configuration; an exception becomes a :class:`WorkerFailure`."""
    try:
        return replayer.replay(values)
    except Exception as error:  # noqa: BLE001 - isolation boundary
        return WorkerFailure(f"{type(error).__name__}: {error}")


def _process_worker_replay(values: dict[str, Any]) -> EvaluationResult | WorkerFailure:
    return _isolated_replay(_WORKER_REPLAYER, values)


class BatchEvaluator:
    """Evaluates batches of configurations concurrently on a process pool.

    Parameters
    ----------
    dataset:
        The (read-only) dataset every worker replays against.
    workload:
        The search workload; defaults to the dataset's standard workload.
    num_workers:
        Process-pool size.  ``1`` evaluates in-process, one configuration
        at a time — the reference the tests compare the pool against.

    Examples
    --------
    >>> from repro import BatchEvaluator, load_dataset
    >>> evaluator = BatchEvaluator(load_dataset("glove-small"), num_workers=4)
    >>> # results arrive in submission order, failures isolated per task:
    >>> # results = evaluator.evaluate_many([cfg_a, cfg_b, cfg_c, cfg_d])
    >>> evaluator.close()
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        workload: SearchWorkload | None = None,
        num_workers: int = 1,
        use_query_scheduler: bool = True,
        mutations=None,
        row_ids=None,
    ) -> None:
        self.dataset = dataset
        self.workload = workload or SearchWorkload.from_dataset(dataset)
        self.mutations = mutations
        self.row_ids = row_ids
        self.num_workers = max(1, int(num_workers))
        self.use_query_scheduler = bool(use_query_scheduler)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._serial_replayer: WorkloadReplayer | None = None

    @classmethod
    def from_environment(
        cls,
        environment,
        *,
        num_workers: int = 1,
    ) -> "BatchEvaluator":
        """Build an evaluator sharing an environment's dataset and workload."""
        return cls(
            environment.dataset,
            workload=environment.workload,
            num_workers=num_workers,
            use_query_scheduler=getattr(environment, "use_query_scheduler", True),
            mutations=getattr(environment, "mutations", None),
            row_ids=getattr(environment, "row_ids", None),
        )

    # -- lifecycle ---------------------------------------------------------------------

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor | None:
        if self.num_workers == 1:
            return None
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.num_workers,
                initializer=_process_worker_init,
                initargs=(
                    self.dataset,
                    self.workload,
                    self.use_query_scheduler,
                    self.mutations,
                    self.row_ids,
                ),
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def update_workload(
        self,
        dataset: Dataset,
        workload: SearchWorkload | None = None,
        *,
        mutations=None,
        row_ids=None,
    ) -> None:
        """Point the pool at a new dataset/workload (online drift support).

        Workers hold per-worker replayers initialized with the dataset they
        were spawned with, so a workload switch shuts the pool down; the next
        batch lazily re-initializes workers against the new state (including
        any churn :class:`~repro.workloads.replay.MutationPlan`).  No-op if
        the dataset, workload and mutation plan are already current.
        """
        workload = workload or SearchWorkload.from_dataset(dataset)
        if (
            dataset is self.dataset
            and workload is self.workload
            and mutations is self.mutations
        ):
            return
        self.close()
        self.dataset = dataset
        self.workload = workload
        self.mutations = mutations
        self.row_ids = row_ids
        self._serial_replayer = None

    def sync_with(self, environment) -> None:
        """Adopt an environment's current dataset/workload if they changed.

        Called by :class:`repro.workloads.dynamic.DynamicTuningEnvironment`
        before every pooled batch, so one evaluator can serve a whole online
        tuning run across drift events (mutation plans included).
        """
        self.update_workload(
            environment.dataset,
            environment.workload,
            mutations=getattr(environment, "mutations", None),
            row_ids=getattr(environment, "row_ids", None),
        )

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation ---------------------------------------------------------------------

    def _in_process_replay(
        self, tasks: list[dict[str, Any]]
    ) -> list[EvaluationResult | WorkerFailure]:
        if self._serial_replayer is None:
            self._serial_replayer = WorkloadReplayer(
                self.dataset,
                self.workload,
                use_query_scheduler=self.use_query_scheduler,
                mutations=self.mutations,
                row_ids=self.row_ids,
            )
        replayer = self._serial_replayer
        return [_isolated_replay(replayer, values) for values in tasks]

    def evaluate_many(
        self, configurations: Sequence[Mapping[str, Any]]
    ) -> list[EvaluationResult]:
        """Replay every configuration and return results in submission order.

        Worker processes run concurrently; ordering and failure
        handling follow the guarantees in the module docstring.  Each worker
        exception yields a failed result for that slot instead of
        propagating.
        """
        tasks = [dict(configuration) for configuration in configurations]
        if not tasks:
            return []

        pool = self._ensure_pool() if len(tasks) > 1 else None
        if pool is None:
            outcomes = self._in_process_replay(tasks)
        else:
            try:
                # ``map`` yields in submission order, whichever worker finishes first.
                outcomes = list(pool.map(_process_worker_replay, tasks))
            except concurrent.futures.process.BrokenProcessPool:
                # The pool died (e.g. a worker was OOM-killed): recover by
                # evaluating the batch in-process and rebuild the pool lazily.
                self._pool = None
                outcomes = self._in_process_replay(tasks)

        results: list[EvaluationResult] = []
        for values, outcome in zip(tasks, outcomes):
            if isinstance(outcome, WorkerFailure):
                results.append(_failed_result(values, str(outcome)))
            else:
                results.append(outcome)
        return results
