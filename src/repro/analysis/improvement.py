"""Improvement over the default configuration (Table IV).

The paper defines the improvement of a tuner as the maximum enhancement in
search speed (or recall rate) achievable *without sacrificing* the other
objective relative to the default configuration's performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.history import ObservationHistory
from repro.workloads.replay import EvaluationResult

__all__ = ["ImprovementReport", "improvement_over_default"]


@dataclass(frozen=True)
class ImprovementReport:
    """Speed and recall improvement of a tuning run over the default setting.

    Attributes
    ----------
    speed_improvement:
        Relative speed gain (e.g. ``0.14`` for +14 %) of the best
        configuration whose recall is at least the default's recall.
    recall_improvement:
        Relative recall gain of the best configuration whose speed is at
        least the default's speed.
    default_speed, default_recall:
        The default configuration's objectives, for reference.
    """

    speed_improvement: float
    recall_improvement: float
    default_speed: float
    default_recall: float


def improvement_over_default(
    history: ObservationHistory, default_result: EvaluationResult
) -> ImprovementReport:
    """Compute Table IV's improvement numbers for one tuning run (speed is QPS)."""
    default_speed, default_recall = default_result.objective_values("qps")
    default_speed = max(default_speed, 1e-9)
    default_recall = max(default_recall, 1e-9)

    best_speed = default_speed
    best_recall = default_recall
    for observation in history.successful():
        if observation.recall >= default_recall and observation.speed > best_speed:
            best_speed = observation.speed
        if observation.speed >= default_speed and observation.recall > best_recall:
            best_recall = observation.recall

    return ImprovementReport(
        speed_improvement=(best_speed - default_speed) / default_speed,
        recall_improvement=(best_recall - default_recall) / default_recall,
        default_speed=default_speed,
        default_recall=default_recall,
    )
