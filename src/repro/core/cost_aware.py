"""Cost-aware optimization (Section V-E, Eq. 8).

Replacing search speed (QPS) with cost effectiveness (QP$) only changes the
objective specification — the tuning machinery is untouched, which is the
point the paper makes ("our work is not limited by any specific resource or
price function").  This module provides the convenience constructors and the
comparison record used by the Figure 13 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.objectives import ObjectiveSpec
from repro.core.tuner import TuningReport

__all__ = ["cost_effectiveness_objective", "CostComparison", "compare_cost_vs_speed"]


def cost_effectiveness_objective(*, recall_constraint: float | None = None) -> ObjectiveSpec:
    """An objective that maximizes QP$ (queries per dollar) and recall."""
    return ObjectiveSpec(speed_metric="qp$", recall_constraint=recall_constraint)


@dataclass(frozen=True)
class CostComparison:
    """Summary of optimizing QP$ versus optimizing QPS (Figure 13a).

    Attributes
    ----------
    relative_cost_effectiveness:
        Best QP$ found when optimizing QP$, divided by the QP$ of the best
        configuration found when optimizing QPS (> 1 means the cost-aware
        objective pays off).
    relative_search_speed:
        Best QPS under the QP$ objective divided by best QPS under the QPS
        objective (expected slightly below 1).
    mean_memory_qpd, mean_memory_qps:
        Mean memory usage (GiB) of all configurations sampled under each
        objective.
    std_memory_qpd, std_memory_qps:
        Standard deviations of the same.
    """

    relative_cost_effectiveness: float
    relative_search_speed: float
    mean_memory_qpd: float
    mean_memory_qps: float
    std_memory_qpd: float
    std_memory_qps: float


def compare_cost_vs_speed(
    report_qpd: TuningReport,
    report_qps: TuningReport,
    *,
    recall_floor: float = 0.0,
) -> CostComparison:
    """Build the Figure 13(a) comparison from two tuning reports."""

    def best_values(report: TuningReport) -> tuple[float, float]:
        eligible = [o for o in report.history.successful() if o.recall >= recall_floor]
        if not eligible:
            return 0.0, 0.0
        best_qpd = max(o.result.cost_effectiveness for o in eligible)
        best_qps = max(o.result.qps for o in eligible)
        return best_qpd, best_qps

    def memory_stats(report: TuningReport) -> tuple[float, float]:
        values = np.array([o.result.memory_gib for o in report.history.successful()], dtype=float)
        if values.size == 0:
            return 0.0, 0.0
        return float(values.mean()), float(values.std())

    qpd_best_qpd, qpd_best_qps = best_values(report_qpd)
    qps_best_qpd, qps_best_qps = best_values(report_qps)
    mean_qpd, std_qpd = memory_stats(report_qpd)
    mean_qps, std_qps = memory_stats(report_qps)
    return CostComparison(
        relative_cost_effectiveness=qpd_best_qpd / qps_best_qpd if qps_best_qpd > 0 else 0.0,
        relative_search_speed=qpd_best_qps / qps_best_qps if qps_best_qps > 0 else 0.0,
        mean_memory_qpd=mean_qpd,
        mean_memory_qps=mean_qps,
        std_memory_qpd=std_qpd,
        std_memory_qps=std_qps,
    )
