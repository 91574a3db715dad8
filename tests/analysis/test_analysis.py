"""Unit tests for the analysis metrics (trade-off, improvement, curves, reporting)."""

import numpy as np
import pytest

from repro.analysis.curves import best_so_far_curve, iterations_to_reach, time_to_reach
from repro.analysis.improvement import improvement_over_default
from repro.analysis.reporting import format_table
from repro.analysis.tradeoff import (
    DEFAULT_SACRIFICES,
    best_speed_at_sacrifice,
    speed_vs_sacrifice_curve,
    tradeoff_ability,
)
from repro.core.history import ObservationHistory
from repro.core.tuner import TuningReport
from repro.workloads.replay import EvaluationResult
from tests.core.test_history import make_observation


@pytest.fixture()
def history():
    h = ObservationHistory()
    h.add(make_observation(1, "HNSW", qps=500, recall=0.99))
    h.add(make_observation(2, "SCANN", qps=900, recall=0.96))
    h.add(make_observation(3, "IVF_FLAT", qps=1500, recall=0.86))
    h.add(make_observation(4, "IVF_PQ", qps=2500, recall=0.60))
    h.add(make_observation(5, "FLAT", qps=3000, recall=0.95, failed=True))
    return h


class TestTradeoff:
    def test_best_speed_tightening_recall_never_increases(self, history):
        curve = speed_vs_sacrifice_curve(history)
        speeds = list(curve.values())  # sacrifices are ordered loose -> tight
        assert all(earlier >= later for earlier, later in zip(speeds, speeds[1:]))

    def test_best_speed_at_specific_sacrifices(self, history):
        assert best_speed_at_sacrifice(history, 0.15) == 1500
        assert best_speed_at_sacrifice(history, 0.05) == 900
        assert best_speed_at_sacrifice(history, 0.01) == 500

    def test_failed_observations_ignored(self, history):
        # The failed 3000-QPS observation must not win at sacrifice 0.05.
        assert best_speed_at_sacrifice(history, 0.05) == 900

    def test_no_feasible_configuration_gives_zero(self):
        h = ObservationHistory()
        h.add(make_observation(1, "HNSW", qps=100, recall=0.5))
        assert best_speed_at_sacrifice(h, 0.01) == 0.0

    def test_invalid_sacrifice_rejected(self, history):
        with pytest.raises(ValueError):
            best_speed_at_sacrifice(history, 1.0)

    def test_tradeoff_ability_lower_for_flatter_curves(self):
        flat = ObservationHistory()
        flat.add(make_observation(1, "HNSW", qps=1000, recall=0.999))
        steep = ObservationHistory()
        steep.add(make_observation(1, "HNSW", qps=1000, recall=0.86))
        steep.add(make_observation(2, "HNSW", qps=100, recall=0.999))
        assert tradeoff_ability(flat) < tradeoff_ability(steep)

    def test_default_sacrifices_match_paper(self):
        assert DEFAULT_SACRIFICES == (0.15, 0.125, 0.1, 0.075, 0.05, 0.025, 0.01)


class TestImprovement:
    def _default_result(self, qps=800.0, recall=0.9):
        return EvaluationResult(
            qps=qps, recall=recall, memory_gib=3.0, latency_ms=1.0,
            build_seconds=5.0, replay_seconds=10.0,
        )

    def test_improvement_requires_not_sacrificing_the_other_objective(self, history):
        report = improvement_over_default(history, self._default_result(qps=800, recall=0.9))
        # Best speed with recall >= 0.9: 900 -> +12.5%; best recall with speed >= 800: 0.96.
        assert report.speed_improvement == pytest.approx((900 - 800) / 800)
        assert report.recall_improvement == pytest.approx((0.96 - 0.9) / 0.9)

    def test_default_speed_is_qps_not_cost_effectiveness(self, history):
        default = self._default_result(qps=800, recall=0.9)
        assert default.cost_effectiveness != pytest.approx(800.0)
        report = improvement_over_default(history, default)
        assert report.default_speed == pytest.approx(800.0)
        assert report.default_recall == pytest.approx(0.9)

    def test_no_improvement_when_default_dominates(self):
        h = ObservationHistory()
        h.add(make_observation(1, "HNSW", qps=100, recall=0.5))
        report = improvement_over_default(h, self._default_result(qps=800, recall=0.99))
        assert report.speed_improvement == 0.0
        assert report.recall_improvement == 0.0


class TestCurves:
    def test_best_so_far_is_monotone(self, history):
        curve = best_so_far_curve(history)
        assert np.all(np.diff(curve) >= 0)

    def test_recall_floor_filters_observations(self, history):
        curve = best_so_far_curve(history, recall_floor=0.9)
        assert curve[-1] == 900

    def test_iterations_to_reach(self, history):
        assert iterations_to_reach(history, 900, recall_floor=0.9) == 2
        assert iterations_to_reach(history, 10_000) is None

    def test_time_to_reach_accumulates_replay_seconds(self, history):
        report = TuningReport(history=history, recommendation_seconds=10.0)
        value = time_to_reach(report, 900, recall_floor=0.9)
        # Two evaluations of 30 simulated seconds each plus 2/5 of the
        # recommendation time.
        assert value == pytest.approx(2 * 30.0 + 10.0 / 5 * 2)

    def test_time_to_reach_none_when_unreached(self, history):
        report = TuningReport(history=history)
        assert time_to_reach(report, 10_000) is None


class TestReporting:
    def test_format_table_alignment_and_title(self):
        text = format_table(
            ["method", "qps"], [["vdtuner", 1234.5678], ["random", 10.0]],
            title="Figure X", precision=2,
        )
        lines = text.splitlines()
        assert lines[0] == "Figure X"
        assert "1234.57" in text
        assert "vdtuner" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
