"""Scenario-matrix regression harness for online tuning under drift.

Sweeps ``{drift scenario} x {severity} x {tuner}`` over the online tuning
loop and collects, for every cell, the per-phase Pareto fronts, hypervolumes,
time-to-recover and detection delays — the regression surface that guards
the dynamic-workload subsystem: a change that slows recovery or shrinks a
post-drift front shows up as a changed matrix cell.

The matrix is plain data (nested dicts/lists) and serializes to JSON with
:func:`save_matrix`, so benchmark runs can be diffed across commits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from repro.core.objectives import ObjectiveSpec
from repro.core.online import OnlineTuner, OnlineTunerSettings
from repro.core.tuner import VDTunerSettings
from repro.datasets.registry import load_dataset
from repro.experiments.settings import ExperimentScale, current_scale
from repro.workloads.dynamic import (
    DynamicTuningEnvironment,
    DynamicWorkload,
    make_drift_event,
)

__all__ = [
    "DRIFT_SCENARIOS",
    "MATRIX_TUNERS",
    "matrix_drift_step",
    "run_scenario",
    "run_scenario_matrix",
    "save_matrix",
]

#: The four drift families every matrix run covers by default.
DRIFT_SCENARIOS: tuple[str, ...] = ("query_shift", "data_churn", "qps_burst", "filter_shift")

#: Default tuners compared per scenario (the paper's method and a baseline).
MATRIX_TUNERS: tuple[str, ...] = ("vdtuner", "random")


def _online_settings(
    scale: ExperimentScale,
    *,
    total_steps: int | None,
    retune_budget: int | None,
    warm_start: bool,
    batch_size: int,
    seed: int,
) -> OnlineTunerSettings:
    total = int(max(24, scale.tuning_iterations) if total_steps is None else total_steps)
    budget = int(max(6, total // 4) if retune_budget is None else retune_budget)
    return OnlineTunerSettings(
        total_steps=total,
        retune_budget=min(budget, total),
        warm_start=warm_start,
        detector_threshold=4.0,
        detector_warmup=2,
        batch_size=batch_size,
        seed=seed,
    )


def _drift_step(settings: OnlineTunerSettings, drift_step: int | None = None) -> int:
    """The step the drift fires at: ``drift_step``, by default 60% through the
    run and after the first episode is serving.  Steps count from 1, and a
    drift at or past the last step leaves a cell no step to detect or recover
    from it, so that is a ``ValueError``."""
    if drift_step is None:
        drift_step = max(
            settings.retune_budget + settings.detector_warmup + 2,
            round(0.6 * settings.total_steps),
        )
    step = int(drift_step)
    if step >= settings.total_steps:
        raise ValueError(
            f"total_steps must exceed the drift step ({settings.total_steps} steps, "
            f"drift at step {step}): no step would be left to detect or recover from it"
        )
    return step


def matrix_drift_step(
    scale: ExperimentScale | None = None,
    *,
    total_steps: int | None = None,
    retune_budget: int | None = None,
) -> int:
    """The drift step :func:`run_scenario_matrix` gives every cell;
    ``ValueError`` when the settings are invalid or the drift would fire
    after the run ends.  Checks a sweep before it starts."""
    settings = _online_settings(
        scale or current_scale(),
        total_steps=total_steps,
        retune_budget=retune_budget,
        warm_start=True,
        batch_size=1,
        seed=0,
    )
    return _drift_step(settings)


def run_scenario(
    dataset_name: str,
    drift: str,
    severity: float,
    tuner: str = "vdtuner",
    *,
    drift_step: int | None = None,
    total_steps: int | None = None,
    retune_budget: int | None = None,
    warm_start: bool = True,
    batch_size: int = 1,
    evaluator=None,
    objective: ObjectiveSpec | None = None,
    scale: ExperimentScale | None = None,
    seed: int = 0,
    dynamic: DynamicWorkload | None = None,
) -> dict[str, Any]:
    """Run one online tuning scenario and return its JSON-able summary.

    The scenario is one drift event of the given family and severity, fired
    at ``drift_step`` (default: 60% through the run, late enough that the
    first tuning episode has finished and the incumbent is being served;
    ``ValueError`` unless it falls before ``total_steps``).
    ``dynamic`` optionally supplies a pre-built (and possibly already
    materialized) timeline for exactly that scenario, so sweeps can share one
    ground-truth computation across tuners; it must match the
    ``drift``/``severity``/``drift_step`` arguments, which still label the
    returned summary.
    """
    scale = scale or current_scale()
    settings = _online_settings(
        scale,
        total_steps=total_steps,
        retune_budget=retune_budget,
        warm_start=warm_start,
        batch_size=batch_size,
        seed=seed,
    )
    step = _drift_step(settings, drift_step)
    event = make_drift_event(drift, at_step=step, severity=severity)
    if dynamic is None:
        dynamic = DynamicWorkload(load_dataset(dataset_name), [event], seed=seed)
    environment = DynamicTuningEnvironment(dynamic, seed=seed)
    tuner_settings = VDTunerSettings(
        candidate_pool_size=scale.candidate_pool_size,
        ehvi_samples=scale.ehvi_samples,
        seed=seed,
    )
    online = OnlineTuner(
        environment,
        tuner=tuner,
        settings=settings,
        objective=objective,
        tuner_settings=tuner_settings,
        evaluator=evaluator,
    )
    report = online.run()
    summary = report.summary()
    summary.update(
        {
            "dataset": dataset_name,
            "drift": event.name,
            "severity": float(severity),
            "drift_step": step,
        }
    )
    return summary


def run_scenario_matrix(
    dataset_name: str = "glove-small",
    *,
    drifts: Sequence[str] = DRIFT_SCENARIOS,
    severities: Sequence[float] = (0.35, 0.7),
    tuners: Sequence[str] = MATRIX_TUNERS,
    total_steps: int | None = None,
    retune_budget: int | None = None,
    warm_start: bool = True,
    batch_size: int = 1,
    evaluator=None,
    scale: ExperimentScale | None = None,
    seed: int = 0,
) -> dict[str, Any]:
    """Sweep {drift x severity x tuner} and collect every cell's summary.

    Returns a JSON-able dict with one entry per cell under ``"cells"`` plus
    the sweep axes, suitable for :func:`save_matrix`.  Every cell's drift
    fires at :func:`matrix_drift_step`, which must fall before
    ``total_steps`` (``ValueError`` before any cell runs).
    """
    scale = scale or current_scale()
    settings = _online_settings(
        scale,
        total_steps=total_steps,
        retune_budget=retune_budget,
        warm_start=warm_start,
        batch_size=batch_size,
        seed=seed,
    )
    drift_step = _drift_step(settings)
    cells: list[dict[str, Any]] = []
    for drift in drifts:
        for severity in severities:
            # One timeline per (drift, severity): every tuner in the cell
            # replays the identical drifted workload, and the expensive
            # ground-truth recomputation happens once, not once per tuner.
            event = make_drift_event(drift, at_step=drift_step, severity=severity)
            dynamic = DynamicWorkload(load_dataset(dataset_name), [event], seed=seed)
            for tuner in tuners:
                cell = run_scenario(
                    dataset_name,
                    drift,
                    severity,
                    tuner,
                    drift_step=drift_step,
                    total_steps=total_steps,
                    retune_budget=retune_budget,
                    warm_start=warm_start,
                    batch_size=batch_size,
                    evaluator=evaluator,
                    scale=scale,
                    seed=seed,
                    dynamic=dynamic,
                )
                cells.append(cell)
    return {
        "dataset": dataset_name,
        "drifts": list(drifts),
        "severities": [float(s) for s in severities],
        "tuners": list(tuners),
        "seed": int(seed),
        "warm_start": bool(warm_start),
        "cells": cells,
    }


def save_matrix(matrix: dict[str, Any], path: str | Path) -> Path:
    """Persist a scenario matrix to JSON (pretty-printed, stable key order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(matrix, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
