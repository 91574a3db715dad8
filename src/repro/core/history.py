"""Observation history: the tuner's knowledge base.

Every evaluated configuration is stored as an :class:`Observation`.  The
history provides the per-index-type views the polling surrogate, the scoring
function and the budget allocator need: non-dominated subsets, balanced base
points, objective matrices with failure replacement, and Pareto fronts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from repro.bo.pareto import is_non_dominated, pareto_front
from repro.workloads.replay import EvaluationResult

__all__ = ["Observation", "ObservationHistory"]


@dataclass(frozen=True)
class Observation:
    """One evaluated configuration.

    Attributes
    ----------
    iteration:
        1-based evaluation index within the tuning run.
    index_type:
        Index type of the evaluated configuration.
    configuration:
        Raw configuration values.
    result:
        The evaluation result returned by the environment.
    speed:
        The speed-like objective (QPS, or QP$ for cost-aware tuning).
    recall:
        The recall objective.
    """

    iteration: int
    index_type: str
    configuration: dict[str, Any]
    result: EvaluationResult
    speed: float
    recall: float

    @classmethod
    def from_result(
        cls,
        iteration: int,
        configuration: Any,
        result: EvaluationResult,
        objective,
    ) -> "Observation":
        """Build an observation from an evaluation under an objective spec.

        The single place the tuners, baselines and the online loop share for
        extracting the objective pair and normalizing the index-type name
        (placeholder choices carry a trailing underscore in the space).
        """
        values = dict(configuration)
        speed, recall = objective.objective_values(result)
        return cls(
            iteration=iteration,
            index_type=str(values.get("index_type", "AUTOINDEX")).rstrip("_"),
            configuration=values,
            result=result,
            speed=speed,
            recall=recall,
        )

    @property
    def failed(self) -> bool:
        """Whether the underlying evaluation failed."""
        return self.result.failed

    def objectives(self) -> np.ndarray:
        """The ``(speed, recall)`` pair as an array."""
        return np.array([self.speed, self.recall], dtype=float)


class ObservationHistory:
    """Ordered collection of observations with per-index-type views."""

    def __init__(self, observations: Iterable[Observation] | None = None) -> None:
        self._observations: list[Observation] = list(observations or [])

    # -- mutation ------------------------------------------------------------------

    def add(self, observation: Observation) -> None:
        """Append an observation."""
        self._observations.append(observation)

    def extend(self, observations: Iterable[Observation]) -> None:
        """Append several observations."""
        self._observations.extend(observations)

    # -- container protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._observations)

    def __getitem__(self, index: int) -> Observation:
        return self._observations[index]

    @property
    def observations(self) -> list[Observation]:
        """All observations in evaluation order."""
        return list(self._observations)

    # -- views -------------------------------------------------------------------------

    def index_types(self) -> list[str]:
        """Index types present in the history, in first-seen order."""
        seen: list[str] = []
        for observation in self._observations:
            if observation.index_type not in seen:
                seen.append(observation.index_type)
        return seen

    def successful(self) -> list[Observation]:
        """Observations whose evaluation did not fail."""
        return [o for o in self._observations if not o.failed]

    def worst_objectives(self) -> np.ndarray:
        """The worst observed ``(speed, recall)``, used as failure replacement.

        The paper replaces the feedback of failed configurations with the
        worst values in history to avoid scaling problems; if every
        observation so far failed, zeros are used.
        """
        successful = self.successful()
        if not successful:
            return np.zeros(2, dtype=float)
        values = np.array([o.objectives() for o in successful], dtype=float)
        return values.min(axis=0)

    def objective_matrix(self) -> np.ndarray:
        """Objective matrix ``(n, 2)`` with failure replacement applied."""
        if not self._observations:
            return np.empty((0, 2), dtype=float)
        replacement = self.worst_objectives()
        rows = [replacement if o.failed else o.objectives() for o in self._observations]
        return np.vstack(rows)

    # -- Pareto machinery ---------------------------------------------------------------

    def non_dominated(self, index_type: str | None = None) -> list[Observation]:
        """Non-dominated successful observations (optionally per index type)."""
        pool = self.successful()
        if index_type is not None:
            pool = [o for o in pool if o.index_type == index_type]
        if not pool:
            return []
        values = np.array([o.objectives() for o in pool], dtype=float)
        mask = is_non_dominated(values)
        return [o for o, keep in zip(pool, mask) if keep]

    def pareto_front(self, index_type: str | None = None) -> np.ndarray:
        """Objective values of the non-dominated observations."""
        observations = self.non_dominated(index_type)
        if not observations:
            return np.empty((0, 2), dtype=float)
        return pareto_front(np.array([o.objectives() for o in observations], dtype=float))

    def balanced_point(self, index_type: str | None = None) -> np.ndarray | None:
        """The most balanced non-dominated objective pair (Eq. 3 of the paper).

        Among the non-dominated observations (of one index type, or of the
        whole history when ``index_type`` is ``None``), returns the
        ``(speed, recall)`` pair maximizing ``1 / |speed/speed_max -
        recall/recall_max|`` — the point closest to the diagonal of the
        normalized objective space.
        """
        observations = self.non_dominated(index_type)
        if not observations:
            return None
        values = np.array([o.objectives() for o in observations], dtype=float)
        maxima = values.max(axis=0)
        maxima[maxima <= 0] = 1.0
        imbalance = np.abs(values[:, 0] / maxima[0] - values[:, 1] / maxima[1])
        return values[int(np.argmin(imbalance))]

    def max_point(self, index_type: str | None = None) -> np.ndarray | None:
        """Per-objective maxima over successful observations (constraint-mode base)."""
        pool = self.successful()
        if index_type is not None:
            pool = [o for o in pool if o.index_type == index_type]
        if not pool:
            return None
        values = np.array([o.objectives() for o in pool], dtype=float)
        return values.max(axis=0)

    # -- selection helpers -----------------------------------------------------------------

    def best(self, *, recall_floor: float = 0.0) -> Observation | None:
        """Best successful observation by speed subject to a recall floor."""
        eligible = [o for o in self.successful() if o.recall >= recall_floor]
        if not eligible:
            return None
        return max(eligible, key=lambda o: o.speed)

    def contains_configuration(self, configuration: dict[str, Any]) -> bool:
        """Whether an identical configuration has already been evaluated."""
        items = {k: str(v) for k, v in configuration.items()}
        for observation in self._observations:
            if {k: str(v) for k, v in observation.configuration.items()} == items:
                return True
        return False
