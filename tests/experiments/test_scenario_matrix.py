"""Tests for the scenario-matrix regression harness."""

from __future__ import annotations

import json

import pytest

from repro.experiments.scenario_matrix import (
    DRIFT_SCENARIOS,
    matrix_drift_step,
    run_scenario,
    run_scenario_matrix,
    save_matrix,
)


class TestRunScenario:
    def test_single_cell_summary_shape(self):
        cell = run_scenario(
            "glove-small",
            "query_shift",
            0.7,
            "vdtuner",
            total_steps=14,
            retune_budget=5,
            drift_step=9,
            seed=0,
        )
        assert cell["dataset"] == "glove-small"
        assert cell["drift"] == "query_shift"
        assert cell["severity"] == 0.7
        assert cell["drift_step"] == 9
        assert cell["total_steps"] == 14
        phases = cell["phases"]
        assert [p["phase"] for p in phases] == [0, 1]
        for phase in phases:
            assert phase["pareto_front"], "every phase records a Pareto front"
            assert phase["hypervolume"] >= 0.0

    def test_alias_resolution(self):
        cell = run_scenario(
            "glove-small", "churn", 0.5, "random",
            total_steps=10, retune_budget=4, drift_step=7, seed=0,
        )
        assert cell["drift"] == "data_churn"
        assert cell["tuner"] == "random"


class TestDriftStep:
    """A cell whose drift fires at or after its last step is refused, not run."""

    @pytest.mark.parametrize("drift_step", (3, 4))
    def test_a_drift_at_or_past_the_last_step_is_refused(self, drift_step):
        with pytest.raises(ValueError, match="total_steps must exceed the drift step"):
            run_scenario(
                "glove-small", "query_shift", 0.5, "random",
                total_steps=3, retune_budget=1, drift_step=drift_step, seed=0,
            )

    def test_a_zero_drift_step_is_not_replaced_by_the_default(self):
        # Step 0 reaches the drift event's own check instead of becoming the
        # default step, which would fire after this 3-step run ends.
        with pytest.raises(ValueError, match="at_step must be >= 1"):
            run_scenario(
                "glove-small", "query_shift", 0.5, "random",
                total_steps=3, retune_budget=1, drift_step=0, seed=0,
            )

    def test_a_matrix_whose_default_drift_fires_after_the_run_is_refused(self):
        # retune budget 3 + detector warm-up 2 + 2 = step 7 of a 3-step run.
        with pytest.raises(ValueError, match=r"3 steps, drift at step 7"):
            run_scenario_matrix(
                "glove-small", drifts=("query_shift",), severities=(0.5,),
                tuners=("random",), total_steps=3, seed=0,
            )

    def test_the_matrix_drift_step_fires_inside_the_run(self):
        assert matrix_drift_step(total_steps=12, retune_budget=4) == 8
        assert matrix_drift_step(total_steps=8, retune_budget=1) == 5


class TestScenarioMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        # The acceptance-criteria sweep: >= 4 drift scenarios x >= 2 tuners.
        return run_scenario_matrix(
            "glove-small",
            drifts=DRIFT_SCENARIOS,
            severities=(0.7,),
            tuners=("vdtuner", "random"),
            total_steps=12,
            retune_budget=4,
            seed=0,
        )

    def test_covers_all_cells(self, matrix):
        assert len(DRIFT_SCENARIOS) >= 4
        assert len(matrix["cells"]) == len(DRIFT_SCENARIOS) * 1 * 2
        seen = {(cell["drift"], cell["tuner"]) for cell in matrix["cells"]}
        assert len(seen) == len(matrix["cells"])

    def test_every_cell_has_per_phase_pareto_metrics(self, matrix):
        for cell in matrix["cells"]:
            assert cell["phases"], cell["drift"]
            for phase in cell["phases"]:
                assert "pareto_front" in phase
                assert "hypervolume" in phase
                assert "time_to_recover" in phase

    def test_persists_to_json(self, matrix, tmp_path):
        path = save_matrix(matrix, tmp_path / "nested" / "matrix.json")
        assert path.exists()
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["drifts"] == list(DRIFT_SCENARIOS)
        assert loaded["tuners"] == ["vdtuner", "random"]
        assert len(loaded["cells"]) == len(matrix["cells"])
