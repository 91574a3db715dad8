"""Integration tests for the experiment harness (scaled far down)."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentScale,
    current_scale,
    figure1_parameter_grid,
    figure2_index_vs_system,
    figure3_conflicting_objectives,
    figure3_optimization_curves,
    figure6_speed_vs_sacrifice,
    figure7_optimization_curves,
    figure9_score_dynamics,
    run_tuner,
    table5_best_configurations,
    table6_overhead,
)
from repro.experiments.runner import PAPER_TUNERS

TEST_SCALE = ExperimentScale(
    name="test",
    tuning_iterations=10,
    preference_iterations=8,
    ablation_iterations=9,
    candidate_pool_size=24,
    ehvi_samples=8,
    grid_resolution=3,
    scalability_scale=0.5,
    seed=0,
)


class TestScaleSettings:
    def test_default_scale_is_fast(self, monkeypatch):
        monkeypatch.delenv("VDTUNER_FULL", raising=False)
        assert current_scale().name == "fast"

    def test_full_scale_via_environment_variable(self, monkeypatch):
        monkeypatch.setenv("VDTUNER_FULL", "1")
        scale = current_scale()
        assert scale.name == "full"
        assert scale.tuning_iterations == 200

    def test_vdtuner_settings_respect_overrides(self):
        settings = TEST_SCALE.vdtuner_settings(num_iterations=5, seed=9)
        assert settings.num_iterations == 5
        assert settings.seed == 9


class TestMotivationExperiments:
    def test_figure1_grid_shapes_and_variation(self):
        result = figure1_parameter_grid("glove-small", scale=TEST_SCALE)
        assert result.qps.shape == (len(result.x_values), len(result.y_values))
        assert result.recall.shape == result.qps.shape
        assert result.qps.std() > 0  # the two parameters genuinely interact

    def test_figure2_best_index_varies_or_is_reported(self):
        result = figure2_index_vs_system("glove-small", scale=TEST_SCALE)
        assert len(result) == 4
        for per_index in result.values():
            assert set(per_index) == {"FLAT", "HNSW", "IVF_FLAT"}
            assert all(qps > 0 for qps in per_index.values())

    def test_figure3_conflicting_objectives_normalized(self):
        result = figure3_conflicting_objectives(("glove-small",), scale=TEST_SCALE)
        per_index = result["glove-small"]
        assert len(per_index) == 7
        speeds = [speed for speed, _ in per_index.values()]
        assert max(speeds) == pytest.approx(1.0)
        assert per_index["FLAT"][1] == pytest.approx(1.0)  # exact index has recall 1

    def test_figure3_optimization_curves_monotone(self):
        curves = figure3_optimization_curves(
            "glove-small", num_samples=4, index_types=("IVF_FLAT", "HNSW"), scale=TEST_SCALE
        )
        assert set(curves) == {"IVF_FLAT", "HNSW"}
        for curve in curves.values():
            assert np.all(np.diff(curve) >= 0)


class TestRunnerAndComparison:
    @pytest.fixture(scope="class")
    def small_comparison(self):
        from repro.experiments.runner import run_tuner_comparison

        return run_tuner_comparison(
            "glove-small", tuners=("vdtuner", "random"), iterations=10, scale=TEST_SCALE
        )

    def test_run_tuner_returns_default_result(self):
        run = run_tuner("random", "glove-small", iterations=6, scale=TEST_SCALE)
        assert run.default_result.qps > 0
        assert len(run.report.history) == 6

    def test_paper_tuner_list(self):
        assert PAPER_TUNERS == ("vdtuner", "random", "opentuner", "ottertune", "qehvi")

    def test_figure6_curves_for_each_tuner(self, small_comparison):
        result = figure6_speed_vs_sacrifice("glove-small", small_comparison)
        assert result.runs is small_comparison
        assert set(result.curves) == {"vdtuner", "random"}
        for curve in result.curves.values():
            speeds = list(curve.values())
            assert all(earlier >= later for earlier, later in zip(speeds, speeds[1:]))

    def test_figure7_reuses_existing_runs(self, small_comparison):
        result = figure7_optimization_curves(
            "glove-small", small_comparison, recall_floors=(0.9,)
        )
        assert 0.9 in result.curves
        for curve in result.curves[0.9].values():
            assert len(curve) == 10
        assert set(result.iterations_to_match_best_baseline[0.9]) == {"vdtuner", "random"}

    def test_table5_reports_the_fastest_configuration_at_the_floor(self, small_comparison):
        run = small_comparison["vdtuner"]
        successful = run.report.history.successful()
        floor = max(o.recall for o in successful)
        row = table5_best_configurations(
            ("glove-small",), recall_floor=floor, runs={"glove-small": run}
        )["glove-small"]
        assert row.recall >= floor
        assert row.speed == max(o.speed for o in successful if o.recall >= floor)

    def test_table5_gives_no_row_without_a_configuration_at_the_floor(self, small_comparison):
        run = small_comparison["vdtuner"]
        floor = np.nextafter(max(o.recall for o in run.report.history.successful()), 2.0)
        rows = table5_best_configurations(
            ("glove-small",), recall_floor=floor, runs={"glove-small": run}
        )
        assert rows == {}

    def test_table6_breakdown_totals(self, small_comparison):
        rows = table6_overhead(small_comparison)
        for row in rows.values():
            assert row.total_seconds == pytest.approx(
                row.recommendation_seconds + row.replay_seconds
            )
            assert 0.0 <= row.recommendation_share < 0.5


class TestAblationExperiments:
    def test_figure9_weights_sum_to_one(self):
        run = run_tuner("vdtuner", "glove-small", iterations=10, scale=TEST_SCALE)
        weights = figure9_score_dynamics(run.report)
        assert len(weights) == 10 - 7  # one snapshot per tuning iteration
        for snapshot in weights:
            assert sum(snapshot.values()) == pytest.approx(1.0)
