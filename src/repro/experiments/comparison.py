"""Tuner-comparison experiments (Figure 6, Figure 7, Table VI)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.curves import best_so_far_curve, iterations_to_reach, time_to_reach
from repro.analysis.tradeoff import DEFAULT_SACRIFICES, speed_vs_sacrifice_curve, tradeoff_ability
from repro.experiments.runner import TunerRun

__all__ = [
    "figure6_speed_vs_sacrifice",
    "figure7_optimization_curves",
    "table6_overhead",
    "Figure6Result",
    "Figure7Result",
    "OverheadRow",
]

#: Datasets of Table III used throughout the comparison experiments.
PAPER_DATASETS: tuple[str, ...] = ("glove-small", "keyword-match-small", "geo-radius-small")


@dataclass
class Figure6Result:
    """Speed-vs-sacrifice curves of every tuner on one dataset."""

    dataset_name: str
    sacrifices: tuple[float, ...]
    curves: dict[str, dict[float, float]]
    tradeoff_abilities: dict[str, float]
    runs: dict[str, TunerRun]


def figure6_speed_vs_sacrifice(
    dataset_name: str,
    runs: dict[str, TunerRun],
    *,
    sacrifices: tuple[float, ...] = DEFAULT_SACRIFICES,
) -> Figure6Result:
    """Best speed per recall sacrifice for every tuner of ``runs`` (one Figure 6 panel)."""
    curves = {
        name: speed_vs_sacrifice_curve(run.report.history, sacrifices) for name, run in runs.items()
    }
    abilities = {name: tradeoff_ability(run.report.history, sacrifices) for name, run in runs.items()}
    return Figure6Result(
        dataset_name=dataset_name,
        sacrifices=sacrifices,
        curves=curves,
        tradeoff_abilities=abilities,
        runs=runs,
    )


@dataclass
class Figure7Result:
    """Best-so-far optimization curves under several recall floors (Figure 7)."""

    dataset_name: str
    recall_floors: tuple[float, ...]
    curves: dict[float, dict[str, np.ndarray]]
    iterations_to_match_best_baseline: dict[float, dict[str, int | None]]
    time_to_match_best_baseline: dict[float, dict[str, float | None]]
    runs: dict[str, TunerRun]


def figure7_optimization_curves(
    dataset_name: str,
    runs: dict[str, TunerRun],
    *,
    recall_floors: tuple[float, ...] = (0.9, 0.925, 0.95, 0.975, 0.99),
) -> Figure7Result:
    """Optimization curves of ``runs`` and the sample/time efficiency derived from them."""
    curves: dict[float, dict[str, np.ndarray]] = {}
    iterations_needed: dict[float, dict[str, int | None]] = {}
    time_needed: dict[float, dict[str, float | None]] = {}
    for floor in recall_floors:
        curves[floor] = {
            name: best_so_far_curve(run.report.history, recall_floor=floor)
            for name, run in runs.items()
        }
        # The efficiency metric of the paper: resources needed to reach the
        # best performance achieved by the most competitive *baseline*.
        baseline_best = max(
            (curves[floor][name][-1] for name in runs if name != "vdtuner"), default=0.0
        )
        iterations_needed[floor] = {
            name: iterations_to_reach(run.report.history, baseline_best, recall_floor=floor)
            for name, run in runs.items()
        }
        time_needed[floor] = {
            name: time_to_reach(run.report, baseline_best, recall_floor=floor)
            for name, run in runs.items()
        }
    return Figure7Result(
        dataset_name=dataset_name,
        recall_floors=recall_floors,
        curves=curves,
        iterations_to_match_best_baseline=iterations_needed,
        time_to_match_best_baseline=time_needed,
        runs=runs,
    )


@dataclass
class OverheadRow:
    """One row of Table VI: the tuning-time breakdown of one method."""

    tuner_name: str
    recommendation_seconds: float
    replay_seconds: float

    @property
    def total_seconds(self) -> float:
        """Total tuning time."""
        return self.recommendation_seconds + self.replay_seconds

    @property
    def recommendation_share(self) -> float:
        """Fraction of the total spent recommending configurations."""
        total = self.total_seconds
        return 0.0 if total <= 0 else self.recommendation_seconds / total


def table6_overhead(runs: dict[str, TunerRun]) -> dict[str, OverheadRow]:
    """Tuning-time breakdown per method of ``runs`` (Table VI)."""
    rows: dict[str, OverheadRow] = {}
    for name, run in runs.items():
        rows[name] = OverheadRow(
            tuner_name=name,
            recommendation_seconds=float(run.report.recommendation_seconds),
            replay_seconds=float(sum(o.result.replay_seconds for o in run.report.history)),
        )
    return rows
