"""Batch-parallel tuning engine: wall-clock speedup vs the sequential loop.

Runs VDTuner twice at the *same evaluation budget* on the same dataset and
seed: once with the paper's strictly sequential loop (one suggestion, one
replay per iteration) and once with the batch-parallel engine
(``suggest_batch(4)`` joint q-EHVI batches evaluated by a 4-worker pool).

Two clocks are reported:

* the **tuning clock** — the simulated workload-replay seconds the paper's
  Table VI accounting is based on, extended to concurrent replay by charging
  each batch its worker-pool makespan.  This is the deterministic,
  machine-independent measure of what a real deployment would wait for,
  because replay time dominates tuning time (Table VI) and the substrate
  simulates it.
* the **harness wall clock** — real seconds spent by this process, reported
  for context (it additionally contains surrogate fitting, which the batch
  engine amortizes over q evaluations per fit).

Asserts the acceptance criteria of the batch-parallel engine: >= 2x tuning
clock speedup at an equal budget, with final Pareto-front quality at parity
or better (hypervolume within 5% of — or above — the sequential run's).
"""

from __future__ import annotations

import time

import numpy as np
from conftest import register_report

from repro.analysis.reporting import format_table
from repro.bo.pareto import hypervolume_2d
from repro.core.tuner import VDTuner, VDTunerSettings
from repro.parallel import BatchEvaluator
from repro.workloads.environment import VDMSTuningEnvironment

DATASET = "glove-small"
BATCH_SIZE = 4
NUM_WORKERS = 4
SEED = 3
ITERATIONS = 64


def _settings() -> VDTunerSettings:
    return VDTunerSettings(
        num_iterations=ITERATIONS,
        abandon_window=max(3, ITERATIONS // 10),
        candidate_pool_size=96,
        ehvi_samples=32,
        seed=SEED,
    )


def _run_sequential():
    environment = VDMSTuningEnvironment(DATASET, seed=SEED)
    started = time.perf_counter()
    report = VDTuner(environment, settings=_settings()).run()
    wall = time.perf_counter() - started
    return environment, report, wall


def _run_batch_parallel():
    environment = VDMSTuningEnvironment(DATASET, seed=SEED)
    started = time.perf_counter()
    tuner = VDTuner(environment, settings=_settings())
    with BatchEvaluator.from_environment(environment, num_workers=NUM_WORKERS) as evaluator:
        report = tuner.run(batch_size=BATCH_SIZE, evaluator=evaluator)
    wall = time.perf_counter() - started
    return environment, report, wall


def test_batch_parallel_speedup(benchmark):
    (seq_env, seq_report, seq_wall), (par_env, par_report, par_wall) = benchmark.pedantic(
        lambda: (_run_sequential(), _run_batch_parallel()),
        rounds=1,
        iterations=1,
    )

    # Equal evaluation budget by construction.
    assert len(seq_report.history) == len(par_report.history) == ITERATIONS

    tuning_speedup = seq_env.elapsed_replay_seconds / par_env.elapsed_replay_seconds
    reference = np.zeros(2)
    seq_hv = hypervolume_2d(seq_report.history.pareto_front(), reference)
    par_hv = hypervolume_2d(par_report.history.pareto_front(), reference)

    rows = [
        ["evaluations", ITERATIONS, ITERATIONS],
        ["batch size x workers", "1 x 1", f"{BATCH_SIZE} x {NUM_WORKERS}"],
        ["tuning clock (sim. s)", round(seq_env.elapsed_replay_seconds, 1),
         round(par_env.elapsed_replay_seconds, 1)],
        ["harness wall clock (s)", round(seq_wall, 1), round(par_wall, 1)],
        ["Pareto hypervolume", round(seq_hv, 1), round(par_hv, 1)],
        ["tuning-clock speedup", "1.00x", f"{tuning_speedup:.2f}x"],
    ]
    table = format_table(
        ["metric", "sequential", "batch-parallel"],
        rows,
        title=f"Batch-parallel speedup on {DATASET} ({ITERATIONS} evaluations, seed {SEED})",
    )
    register_report("Batch-parallel engine - speedup", table)

    # Acceptance: >= 2x wall-clock (tuning clock) speedup at equal budget...
    assert tuning_speedup >= 2.0
    # ... with Pareto-front quality within 5% of the sequential run (or better).
    assert par_hv >= 0.95 * seq_hv
