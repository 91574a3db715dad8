"""Tests for the online tuning loop (decay, settings, tune/serve/re-tune)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.history import Observation, ObservationHistory
from repro.core.objectives import ObjectiveSpec
from repro.core.online import (
    OnlineReport,
    OnlineTuner,
    OnlineTunerSettings,
    StepRecord,
    decay_history,
)
from repro.workloads.dynamic import (
    DynamicTuningEnvironment,
    DynamicWorkload,
    FilterSelectivityEvent,
    QPSBurstEvent,
)
from repro.workloads.environment import VDMSTuningEnvironment
from repro.workloads.replay import EvaluationResult
from tests.conftest import make_tiny_dataset


def make_observation(iteration, speed, recall, *, index_type="HNSW", config=None, failed=False):
    configuration = dict(config or {"index_type": index_type, "nprobe": iteration})
    result = EvaluationResult(
        qps=speed,
        recall=recall,
        memory_gib=1.0,
        latency_ms=1.0,
        build_seconds=1.0,
        replay_seconds=2.0,
        failed=failed,
        configuration=configuration,
    )
    return Observation(
        iteration=iteration,
        index_type=index_type,
        configuration=configuration,
        result=result,
        speed=speed,
        recall=recall,
    )


class TestDecayHistory:
    def test_empty_history(self):
        assert len(decay_history(ObservationHistory())) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_history(ObservationHistory(), decay=1.5)
        with pytest.raises(ValueError):
            decay_history(ObservationHistory(), keep_recent=-1)

    def test_keeps_recent_observations(self):
        history = ObservationHistory(
            [make_observation(i, speed=float(i), recall=0.5) for i in range(1, 21)]
        )
        decayed = decay_history(history, decay=0.25, keep_recent=3)
        iterations = [o.iteration for o in decayed]
        # The most recent tail survives in order.
        assert iterations[-3:] == [18, 19, 20]
        assert len(decayed) <= len(history)

    def test_keeps_old_pareto_points(self):
        observations = [make_observation(1, speed=1000.0, recall=0.99)]
        observations += [
            make_observation(i, speed=1.0, recall=0.1) for i in range(2, 30)
        ]
        decayed = decay_history(ObservationHistory(observations), decay=0.1, keep_recent=2)
        # The ancient Pareto-optimal observation survives the decay.
        assert any(o.iteration == 1 for o in decayed)

    def test_dedupes_repeated_configurations(self):
        config = {"index_type": "HNSW", "nprobe": 7}
        observations = [
            make_observation(i, speed=10.0 + i, recall=0.5, config=config)
            for i in range(1, 11)
        ]
        decayed = decay_history(ObservationHistory(observations), decay=1.0)
        # Serving re-measures one configuration; only the latest survives.
        assert len(decayed) == 1
        assert decayed[0].iteration == 10

    def test_dedupe_can_be_disabled(self):
        config = {"index_type": "HNSW", "nprobe": 7}
        observations = [
            make_observation(i, speed=10.0, recall=0.5, config=config) for i in range(1, 6)
        ]
        kept = decay_history(ObservationHistory(observations), decay=1.0, dedupe=False)
        assert len(kept) == 5


class TestOnlineTunerSettings:
    def test_defaults_valid(self):
        settings = OnlineTunerSettings()
        assert settings.warm_start and settings.total_steps >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_steps": 0},
            {"retune_budget": 0},
            {"recovery_fraction": 0.0},
            {"recovery_fraction": 1.5},
            {"batch_size": 0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OnlineTunerSettings(**kwargs)


class TestRecoveryTimes:
    @staticmethod
    def report(recovery_fraction):
        #: (phase, speed, recall, failed) per step; phase 1 never succeeds.
        steps = [
            (0, 100.0, 1.0, False),
            (0, 5000.0, 1.0, True),
            (0, 950.0, 1.0, False),
            (0, 1000.0, 1.0, False),
            (1, 800.0, 1.0, True),
        ]
        records = [
            StepRecord(
                step=step, phase=phase, mode="tune", index_type="HNSW", configuration={},
                speed=speed, recall=recall, failed=failed, replay_seconds=float(step),
            )
            for step, (phase, speed, recall, failed) in enumerate(steps)
        ]
        return OnlineReport(
            records=records,
            phase_log=[(0, 0), (1, 4)],
            detections=[4],
            retunes=[],
            history=ObservationHistory(),
            settings=OnlineTunerSettings(recovery_fraction=recovery_fraction),
            objective=ObjectiveSpec(),
        )

    def test_time_to_recover_reaches_the_settings_fraction_of_the_phase_best(self):
        # 90% of the phase best (1000) is first reached by the third evaluation;
        # the failed 5000 in between scores zero.
        report = self.report(recovery_fraction=0.9)
        assert report.time_to_recover(0) == 3
        assert report.time_to_recover(0) == report.time_to_reach_score(0, 900.0)
        assert self.report(recovery_fraction=0.1).time_to_recover(0) == 1
        assert report.time_to_recover(1) is None


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset()


def online_settings(**overrides):
    values = dict(
        total_steps=12,
        retune_budget=8,
        detector_threshold=4.0,
        detector_warmup=2,
        seed=0,
    )
    values.update(overrides)
    return OnlineTunerSettings(**values)


class TestOnlineTunerStatic:
    def test_static_environment_tunes_then_serves(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        report = OnlineTuner(environment, settings=online_settings()).run()
        assert len(report.records) == 12
        modes = [record.mode for record in report.records]
        assert modes[:8] == ["tune"] * 8
        assert modes[8:] == ["serve"] * 4
        assert report.detections == []
        assert report.phases() == [0]

    def test_serves_the_best_known_configuration(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        report = OnlineTuner(environment, settings=online_settings()).run()
        tune_best = max(
            (r for r in report.records if r.mode == "tune" and not r.failed),
            key=lambda r: r.speed,
        )
        serve_records = [r for r in report.records if r.mode == "serve"]
        assert all(r.configuration == tune_best.configuration for r in serve_records)

    def test_deterministic_across_runs(self, dataset):
        run_a = OnlineTuner(
            VDMSTuningEnvironment(dataset, seed=0), settings=online_settings()
        ).run()
        run_b = OnlineTuner(
            VDMSTuningEnvironment(dataset, seed=0), settings=online_settings()
        ).run()
        assert [(r.speed, r.recall) for r in run_a.records] == [
            (r.speed, r.recall) for r in run_b.records
        ]


class TestOnlineTunerDrift:
    def drifted_environment(self, dataset, *, at_step=12, severity=0.8, seed=0):
        dynamic = DynamicWorkload(
            dataset, [FilterSelectivityEvent(at_step=at_step, severity=severity)], seed=seed
        )
        return DynamicTuningEnvironment(dynamic, seed=seed)

    def test_detects_drift_and_retunes_warm(self, dataset):
        environment = self.drifted_environment(dataset)
        settings = online_settings(total_steps=26, retune_budget=8)
        report = OnlineTuner(environment, settings=settings).run()
        assert report.detections, "the filter shift must trip the detector"
        assert len(report.retunes) == 2
        assert report.retunes[1]["warm"] is True
        # The re-tune happens after the detection.
        assert report.retunes[1]["step"] == report.detections[0] + 1
        post = [r for r in report.records if r.step >= report.retunes[1]["step"]]
        assert any(r.mode == "tune" for r in post)

    def test_cold_restart_flag(self, dataset):
        environment = self.drifted_environment(dataset)
        settings = online_settings(total_steps=26, retune_budget=8, warm_start=False)
        report = OnlineTuner(environment, settings=settings).run()
        assert report.detections
        assert report.retunes[1]["warm"] is False

    def test_phase_metrics_and_summary_serialize(self, dataset):
        environment = self.drifted_environment(dataset)
        settings = online_settings(total_steps=26, retune_budget=8)
        report = OnlineTuner(environment, settings=settings).run()
        assert report.phases() == [0, 1]
        front = report.phase_pareto_front(1)
        assert front.ndim == 2 and front.shape[1] == 2
        assert report.phase_hypervolume(1) >= 0.0
        recovery = report.time_to_recover(0)
        assert recovery is not None and 1 <= recovery <= len(report.phase_records(0))
        summary = json.loads(json.dumps(report.summary()))
        assert summary["total_steps"] == 26
        assert [p["phase"] for p in summary["phases"]] == [0, 1]
        assert summary["phases"][1]["pareto_front"]

    def test_baseline_tuner_runs_online(self, dataset):
        environment = self.drifted_environment(dataset)
        settings = online_settings(total_steps=20, retune_budget=6)
        report = OnlineTuner(environment, tuner="random", settings=settings).run()
        assert len(report.records) == 20
        assert report.tuner_name == "random"

    def test_batched_episodes_cross_the_drift(self, dataset):
        dynamic = DynamicWorkload(
            dataset, [QPSBurstEvent(at_step=12, severity=1.0)], seed=0
        )
        environment = DynamicTuningEnvironment(dynamic, seed=0)
        settings = online_settings(total_steps=24, retune_budget=8, batch_size=4)
        report = OnlineTuner(environment, settings=settings).run()
        assert len(report.records) == 24
        assert report.detections, "the concurrency collapse must trip the detector"
        assert environment.current_phase.name == "qps_burst"

    def test_time_to_reach_score_common_target(self, dataset):
        environment = self.drifted_environment(dataset)
        settings = online_settings(total_steps=26, retune_budget=8)
        report = OnlineTuner(environment, settings=settings).run()
        best = report.phase_best(1)
        assert best is not None
        assert report.time_to_reach_score(1, best.score) is not None
        assert report.time_to_reach_score(1, best.score * 10.0) is None
