"""Optimization curves and sample/time efficiency (Figure 7).

The paper compares tuners by the best search speed found so far as a
function of (a) the number of evaluated configurations and (b) the tuning
time (simulated replay plus wall-clock recommendation), restricted to
configurations whose recall satisfies the user's floor.
"""

from __future__ import annotations

import numpy as np

from repro.core.history import ObservationHistory
from repro.core.tuner import TuningReport

__all__ = ["best_so_far_curve", "iterations_to_reach", "time_to_reach"]


def best_so_far_curve(history: ObservationHistory, *, recall_floor: float = 0.0) -> np.ndarray:
    """Best speed found up to each iteration, subject to a recall floor.

    Iterations whose configuration violates the floor (or failed) do not
    improve the curve; the returned array has one entry per observation.
    """
    best = 0.0
    curve = np.zeros(len(history), dtype=float)
    for position, observation in enumerate(history):
        if not observation.failed and observation.recall >= recall_floor:
            best = max(best, observation.speed)
        curve[position] = best
    return curve


def iterations_to_reach(
    history: ObservationHistory,
    target_speed: float,
    *,
    recall_floor: float = 0.0,
) -> int | None:
    """First iteration (1-based) at which the best-so-far speed reaches the target."""
    curve = best_so_far_curve(history, recall_floor=recall_floor)
    reached = np.flatnonzero(curve >= target_speed)
    return None if reached.size == 0 else int(reached[0]) + 1


def time_to_reach(
    report: TuningReport,
    target_speed: float,
    *,
    recall_floor: float = 0.0,
) -> float | None:
    """Tuning seconds needed to reach the target speed.

    The clock charged is the simulated replay time of every evaluation up to
    and including the one that reached the target, plus the tuner's
    wall-clock recommendation time prorated per iteration — the same
    accounting as the paper's tuning-time comparison.  The wall-clock part
    makes the result vary from run to run.
    """
    iteration = iterations_to_reach(report.history, target_speed, recall_floor=recall_floor)
    if iteration is None:
        return None
    replay = sum(o.result.replay_seconds for o in report.history.observations[:iteration])
    per_iteration_recommendation = (
        report.recommendation_seconds / max(1, len(report.history))
    )
    return float(replay + per_iteration_recommendation * iteration)
