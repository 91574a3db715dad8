"""Online tuning under workload drift: warm-started vs cold re-tuning.

Runs the continuous tune/serve loop (:class:`repro.core.online.OnlineTuner`)
on dynamic workloads that drift mid-run (:mod:`repro.workloads.dynamic`),
twice per scenario with identical seeds and budgets: once with warm-started
re-tuning (decayed knowledge base as a noise-inflated bootstrap plus
revalidation of the stale Pareto configurations) and once with a cold restart
(the re-tune episode starts from scratch).

Reported per scenario x seed:

* whether the CUSUM detector fired, and how long after the drift onset;
* the **time to recover** — evaluations from the drift onset until the
  service score (speed x recall) reaches 90% of the best score either run
  achieved in the drifted phase (a common target, so warm and cold are
  comparable; runs that never reach it are censored at the phase length);
* the post-drift Pareto hypervolume.

Asserts the headline claim of the online-tuning subsystem: averaged over the
scenario panel, warm-started re-tuning recovers at least as fast as a cold
restart, and strictly faster overall.
"""

from __future__ import annotations

from conftest import register_report

from repro.analysis.reporting import format_table
from repro.core.online import OnlineTuner, OnlineTunerSettings
from repro.datasets.registry import load_dataset
from repro.workloads.dynamic import (
    DynamicTuningEnvironment,
    DynamicWorkload,
    make_drift_event,
)

DATASET = "glove-small"
TOTAL_STEPS = 44
RETUNE_BUDGET = 10
DRIFT_STEP = 18
SEVERITY = 0.7
SCENARIOS = ("query_shift", "filter_shift", "qps_burst")
SEEDS = (0, 1)
RECOVERY_FRACTION = 0.9


def _run(drift: str, seed: int, warm: bool):
    dynamic = DynamicWorkload(
        load_dataset(DATASET),
        [make_drift_event(drift, at_step=DRIFT_STEP, severity=SEVERITY)],
        seed=seed,
    )
    environment = DynamicTuningEnvironment(dynamic, seed=seed)
    settings = OnlineTunerSettings(
        total_steps=TOTAL_STEPS,
        retune_budget=RETUNE_BUDGET,
        warm_start=warm,
        detector_threshold=4.0,
        detector_warmup=2,
        seed=seed,
    )
    return OnlineTuner(environment, settings=settings).run()


def _censored_recovery(report, target: float) -> tuple[int, bool]:
    """Evaluations to reach ``target`` in the drifted phase (censored at its length)."""
    recovered = report.time_to_reach_score(1, target)
    phase_length = len(report.phase_records(1))
    if recovered is None:
        return phase_length + 1, True
    return recovered, False


def test_online_drift_recovery():
    results = {
        (drift, seed): (_run(drift, seed, True), _run(drift, seed, False))
        for drift in SCENARIOS
        for seed in SEEDS
    }

    rows = []
    warm_total = 0
    cold_total = 0
    for (drift, seed), (warm, cold) in results.items():
        warm_best = warm.phase_best(1)
        cold_best = cold.phase_best(1)
        target = RECOVERY_FRACTION * max(
            warm_best.score if warm_best else 0.0,
            cold_best.score if cold_best else 0.0,
        )
        warm_recovery, warm_censored = _censored_recovery(warm, target)
        cold_recovery, cold_censored = _censored_recovery(cold, target)
        warm_total += warm_recovery
        cold_total += cold_recovery
        delay = warm.detection_delay(1)
        rows.append(
            [
                drift,
                seed,
                delay if delay is not None else "-",
                f"{warm_recovery}{'+' if warm_censored else ''}",
                f"{cold_recovery}{'+' if cold_censored else ''}",
                round(warm.phase_hypervolume(1), 1),
                round(cold.phase_hypervolume(1), 1),
            ]
        )

        # Both modes ran the same budget and observed the same drift.
        assert len(warm.records) == len(cold.records) == TOTAL_STEPS
        assert warm.detections == cold.detections

    table = format_table(
        ["drift", "seed", "detect (evals)", "recover warm", "recover cold",
         "post-drift HV warm", "post-drift HV cold"],
        rows,
        title=(
            f"Online drift recovery on {DATASET} "
            f"({TOTAL_STEPS} steps, drift at {DRIFT_STEP}, severity {SEVERITY}; "
            f"recovery = first evaluation at {RECOVERY_FRACTION:.0%} of the common "
            f"post-drift best score, '+' = never, censored at phase length)"
        ),
    )
    register_report("Online drift - warm vs cold recovery", table)

    # Acceptance: warm-started re-tuning recovers strictly faster than a cold
    # restart on aggregate (and no worse on average per scenario).
    assert warm_total < cold_total, (
        f"warm-start recovered in {warm_total} total evaluations, "
        f"cold restart in {cold_total}"
    )
