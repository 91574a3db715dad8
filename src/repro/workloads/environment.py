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
    >>> # A batch evaluates in one call, charged its longest replay:
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

    def evaluate_batch(
        self, configurations: Sequence[Configuration | Mapping[str, Any]]
    ) -> list[EvaluationResult]:
        """Evaluate a batch of configurations in submission order.

        A configuration repeated within the batch, or already in the result
        cache, is replayed once.  Results are recorded in submission order,
        and observation noise is drawn in that order from the environment's
        own generator.  Each configuration has its own simulated replay
        worker, so the tuning clock charges the batch its longest replay; a
        batch of one charges exactly its own replay.
        """
        values_list = [dict(c) for c in configurations]
        keys = [self._cache_key(v) for v in values_list]
        for key, values in zip(keys, values_list):
            if key not in self._result_cache:
                result = self._replayer.replay(values)
                if self.noise > 0.0:
                    result = self._with_noise(result)
                self._result_cache[key] = result
        results = [self._result_cache[key] for key in keys]
        if results:
            self._replay_seconds += max(result.replay_seconds for result in results)
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
