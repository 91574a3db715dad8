"""The tuning environment: the expensive black box every tuner optimizes.

:class:`VDMSTuningEnvironment` wraps a dataset, a workload and a replayer
behind a single ``evaluate(configuration)`` call, adds optional observation
noise, counts evaluations and accumulates the simulated tuning clock (replay
time plus recommendation time), which is what the efficiency comparisons of
the paper (Figure 7 and Table VI) are measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.config import Configuration, ConfigurationSpace, build_milvus_space
from repro.datasets.dataset import Dataset
from repro.datasets.registry import load_dataset
from repro.workloads.replay import EvaluationResult, WorkloadReplayer
from repro.workloads.workload import SearchWorkload

__all__ = ["VDMSTuningEnvironment", "EvaluationRecord"]


@dataclass(frozen=True)
class EvaluationRecord:
    """One completed evaluation with the clock values at completion time.

    Attributes
    ----------
    iteration:
        1-based index of the evaluation.
    result:
        The evaluation result.
    elapsed_replay_seconds:
        Cumulative simulated workload-replay seconds after this evaluation.
    elapsed_recommendation_seconds:
        Cumulative (real) seconds tuners spent choosing configurations.
    """

    iteration: int
    result: EvaluationResult
    elapsed_replay_seconds: float
    elapsed_recommendation_seconds: float


class VDMSTuningEnvironment:
    """Black-box evaluation environment for VDMS configuration tuning.

    Examples
    --------
    >>> from repro import VDMSTuningEnvironment
    >>> environment = VDMSTuningEnvironment("glove-small", seed=0)
    >>> result = environment.evaluate(environment.default_configuration())
    >>> environment.num_evaluations
    1
    >>> environment.elapsed_replay_seconds == result.replay_seconds
    True
    >>> # Batches evaluate in one call (optionally on a repro.parallel pool):
    >>> batch = [environment.default_configuration()] * 2
    >>> len(environment.evaluate_batch(batch))
    2
    """

    def __init__(
        self,
        dataset: Dataset | str,
        *,
        workload: SearchWorkload | None = None,
        space: ConfigurationSpace | None = None,
        noise: float = 0.0,
        seed: int = 0,
        dataset_scale: float = 1.0,
        use_query_scheduler: bool = True,
    ) -> None:
        if isinstance(dataset, str):
            dataset = load_dataset(dataset, scale=dataset_scale)
        self.dataset = dataset
        self.workload = workload or SearchWorkload.from_dataset(dataset)
        self.space = space or build_milvus_space()
        self.noise = float(noise)
        # Whether replays of search_threads > 1 configurations drive the
        # workload through the per-request QueryScheduler (measured QPS from
        # event-simulated shard tasks) or always use the batch search +
        # analytic concurrency model.
        self.use_query_scheduler = bool(use_query_scheduler)
        self._rng = np.random.default_rng(seed)
        self._mutations = None
        self._row_ids = None
        self._replayer = WorkloadReplayer(
            self.dataset, self.workload, use_query_scheduler=self.use_query_scheduler
        )
        self._history: list[EvaluationRecord] = []
        self._replay_seconds = 0.0
        self._recommendation_seconds = 0.0
        self._result_cache: dict[tuple, EvaluationResult] = {}

    # -- workload switching -----------------------------------------------------------

    def set_workload(
        self,
        workload: SearchWorkload,
        *,
        dataset: Dataset | None = None,
        mutations=None,
        row_ids: np.ndarray | None = None,
    ) -> None:
        """Swap the active workload (and optionally the dataset) mid-run.

        The replayer is rebuilt and the result cache flushed — cached results
        describe the *old* workload, and the whole point of re-evaluating
        after a drift event is to observe the new one.  History and the
        tuning clock are preserved: a workload switch is part of the same
        (online) tuning run, not a new run.

        ``mutations`` (a :class:`~repro.workloads.replay.MutationPlan`) makes
        subsequent replays measure a live delete/insert-churned collection —
        healed between the mutation and query phases by the maintenance
        subsystem when the evaluated configuration enables it; ``row_ids``
        maps the dataset's row positions to the external ids that collection
        serves.
        """
        if dataset is not None:
            self.dataset = dataset
        self.workload = workload
        self._mutations = mutations
        self._row_ids = row_ids
        self._replayer = WorkloadReplayer(
            self.dataset,
            self.workload,
            use_query_scheduler=self.use_query_scheduler,
            mutations=mutations,
            row_ids=row_ids,
        )
        self._result_cache.clear()

    @property
    def mutations(self):
        """The active churn :class:`~repro.workloads.replay.MutationPlan` (or ``None``)."""
        return self._mutations

    @property
    def row_ids(self) -> np.ndarray | None:
        """Dataset-position → external-id map of the active mutation plan."""
        return self._row_ids

    # -- evaluation -----------------------------------------------------------------

    def default_configuration(self) -> Configuration:
        """The system's default configuration in this environment's space."""
        return self.space.default_configuration()

    @staticmethod
    def _cache_key(values: Mapping[str, Any]) -> tuple:
        return tuple(sorted((k, str(v)) for k, v in values.items()))

    def _append_record(self, result: EvaluationResult) -> None:
        self._history.append(
            EvaluationRecord(
                iteration=len(self._history) + 1,
                result=result,
                elapsed_replay_seconds=self._replay_seconds,
                elapsed_recommendation_seconds=self._recommendation_seconds,
            )
        )

    def evaluate(self, configuration: Configuration | Mapping[str, Any]) -> EvaluationResult:
        """Evaluate a configuration and record it in the history.

        A single evaluation is a batch of one: the cache lookup, replay,
        noise draw, clock charge and history append all live in
        :meth:`evaluate_batch`.
        """
        return self.evaluate_batch([configuration])[0]

    @staticmethod
    def _makespan(replay_seconds: list[float], workers: int) -> float:
        """Simulated wall-clock of replaying a batch on ``workers`` workers.

        Greedy longest-processing-time assignment to the least-loaded worker;
        with one worker this degenerates to the plain sum, so the sequential
        and batch-parallel tuning clocks are directly comparable (Table VI
        accounting extended to concurrent replay).
        """
        workers = max(1, int(workers))
        if workers == 1:
            return float(sum(replay_seconds))
        loads = [0.0] * workers
        for seconds in sorted(replay_seconds, reverse=True):
            loads[loads.index(min(loads))] += float(seconds)
        return max(loads)

    def evaluate_batch(
        self,
        configurations: Sequence[Configuration | Mapping[str, Any]],
        *,
        evaluator=None,
    ) -> list[EvaluationResult]:
        """Evaluate a batch of configurations, optionally on a worker pool.

        The replays of cache-missing configurations run concurrently when a
        :class:`repro.parallel.BatchEvaluator` is given (otherwise serially
        in-process).  Results are returned — and recorded in the history — in
        submission order regardless of worker scheduling, observation noise
        is drawn in submission order from the environment's own generator,
        and the replay clock is charged with the simulated *makespan* of the
        batch on the evaluator's workers rather than the serial sum.  Given
        the same seed, a batch evaluated with 1 worker and with N workers
        therefore produces identical evaluation results, in identical order.
        (The per-record clock fields do depend on the worker count — the
        makespan shrinking with more workers is precisely the speedup the
        accounting is designed to expose.)
        """
        values_list = [dict(c) for c in configurations]
        keys = [self._cache_key(v) for v in values_list]
        missing: dict[tuple, dict[str, Any]] = {}
        for key, values in zip(keys, values_list):
            if key not in self._result_cache and key not in missing:
                missing[key] = values

        computed: dict[tuple, EvaluationResult] = {}
        if missing:
            if evaluator is not None and len(missing) > 1:
                raw_results = evaluator.evaluate_many(list(missing.values()))
            else:
                raw_results = [self._replayer.replay(values) for values in missing.values()]
            for key, result in zip(missing, raw_results):
                if self.noise > 0.0:
                    result = self._with_noise(result)
                computed[key] = result
                # Worker-pool failures (crashed/OOM-killed worker, not a
                # deterministic replay outcome) are not cached, so the
                # configuration gets a fresh chance next time it comes up.
                if "worker_error" not in result.breakdown:
                    self._result_cache[key] = result

        results = [
            self._result_cache[key] if key in self._result_cache else computed[key]
            for key in keys
        ]
        workers = getattr(evaluator, "num_workers", 1) if evaluator is not None else 1
        self._replay_seconds += self._makespan(
            [result.replay_seconds for result in results], workers
        )
        for result in results:
            self._append_record(result)
        return results

    def _with_noise(self, result: EvaluationResult) -> EvaluationResult:
        """Perturb throughput multiplicatively to emulate measurement noise."""
        factor = float(max(0.1, 1.0 + self._rng.normal(scale=self.noise)))
        return EvaluationResult(
            qps=result.qps * factor,
            recall=result.recall,
            memory_gib=result.memory_gib,
            latency_ms=result.latency_ms / factor,
            build_seconds=result.build_seconds,
            replay_seconds=result.replay_seconds,
            failed=result.failed,
            configuration=result.configuration,
            breakdown=result.breakdown,
        )

    # -- tuning clock -----------------------------------------------------------------

    def charge_recommendation_time(self, seconds: float) -> None:
        """Add tuner 'thinking' time to the tuning clock (Table VI accounting)."""
        self._recommendation_seconds += max(0.0, float(seconds))

    @property
    def elapsed_replay_seconds(self) -> float:
        """Cumulative simulated workload-replay seconds."""
        return self._replay_seconds

    @property
    def elapsed_recommendation_seconds(self) -> float:
        """Cumulative real seconds tuners spent recommending configurations."""
        return self._recommendation_seconds

    @property
    def elapsed_tuning_seconds(self) -> float:
        """Total tuning clock (replay + recommendation)."""
        return self._replay_seconds + self._recommendation_seconds

    # -- history -----------------------------------------------------------------------

    @property
    def history(self) -> list[EvaluationRecord]:
        """All completed evaluations in order."""
        return list(self._history)

    @property
    def num_evaluations(self) -> int:
        """Number of completed evaluations."""
        return len(self._history)

    def reset_history(self) -> None:
        """Clear the history and the tuning clock (the result cache is kept)."""
        self._history.clear()
        self._replay_seconds = 0.0
        self._recommendation_seconds = 0.0
