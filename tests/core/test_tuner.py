"""Tests for the VDTuner tuning loop (Algorithm 1) and its reports."""

import pytest

from repro.config.milvus_space import INDEX_TYPES
from repro.core.objectives import ObjectiveSpec
from repro.core.tuner import VDTuner, VDTunerSettings


def small_settings(iterations=12, **overrides):
    values = dict(
        num_iterations=iterations,
        abandon_window=3,
        candidate_pool_size=24,
        ehvi_samples=8,
        seed=0,
    )
    values.update(overrides)
    return VDTunerSettings(**values)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    # Build the environment once for the module: the run itself is the
    # expensive part of these tests.
    from repro.workloads.environment import VDMSTuningEnvironment
    from tests.conftest import make_tiny_dataset

    environment = VDMSTuningEnvironment(make_tiny_dataset(), seed=0)
    tuner = VDTuner(environment, settings=small_settings())
    report = tuner.run()
    return environment, tuner, report


class TestSettings:
    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            VDTunerSettings(num_iterations=0)
        with pytest.raises(ValueError):
            VDTunerSettings(abandon_window=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("candidate_pool_size", 0),
            ("candidate_pool_size", -5),
            ("ehvi_samples", 0),
            ("ehvi_samples", -1),
            ("reference_scale", 0.0),
            ("reference_scale", -1.0),
            ("reference_scale", float("nan")),
            ("reference_scale", float("inf")),
        ],
    )
    def test_settings_the_loop_cannot_honour_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            VDTunerSettings(**{field: value})

    def test_smallest_honoured_settings_are_accepted(self):
        settings = VDTunerSettings(candidate_pool_size=1, ehvi_samples=1, reference_scale=1e-6)
        assert (settings.candidate_pool_size, settings.ehvi_samples) == (1, 1)


class TestAlgorithmStructure:
    def test_runs_requested_number_of_iterations(self, completed_run):
        _, _, report = completed_run
        assert len(report.history) == 12

    def test_initial_sampling_covers_every_index_type(self, completed_run):
        _, _, report = completed_run
        first_types = [o.index_type for o in report.history.observations[: len(INDEX_TYPES)]]
        assert first_types == list(INDEX_TYPES)

    def test_initial_samples_use_default_parameters(self, completed_run):
        _, tuner, report = completed_run
        space = tuner.space
        first = report.history[0]
        for name in space.names:
            if name == "index_type":
                continue
            assert first.configuration[name] == space[name].default

    def test_later_iterations_explore_non_default_configurations(self, completed_run):
        _, tuner, report = completed_run
        space = tuner.space
        non_default = 0
        for observation in report.history.observations[len(INDEX_TYPES) :]:
            if any(
                observation.configuration[name] != space[name].default
                for name in space.names
                if name != "index_type"
            ):
                non_default += 1
        assert non_default > 0

    def test_score_trace_has_one_entry_per_tuning_iteration(self, completed_run):
        _, _, report = completed_run
        assert len(report.score_trace) == 12 - len(INDEX_TYPES)

    def test_recommendation_time_is_charged(self, completed_run):
        environment, _, report = completed_run
        assert report.recommendation_seconds > 0
        assert environment.elapsed_recommendation_seconds > 0

    def test_replay_clock_accumulates(self, completed_run):
        _, _, report = completed_run
        assert report.replay_seconds > 0


class TestReport:
    def test_best_observation_respects_floor(self, completed_run):
        _, _, report = completed_run
        best = report.best_observation(recall_floor=0.8)
        assert best is None or best.recall >= 0.8

    def test_best_configuration_returns_dict(self, completed_run):
        _, _, report = completed_run
        configuration = report.best_configuration()
        assert configuration is None or "index_type" in configuration

    def test_best_configuration_is_the_best_observations(self, completed_run):
        _, _, report = completed_run
        best = report.best_observation()
        assert best is not None
        assert report.best_configuration() == dict(best.configuration)


class TestVariants:
    def test_restricted_index_type_space(self):
        from repro.config import build_milvus_space
        from repro.workloads.environment import VDMSTuningEnvironment
        from tests.conftest import make_tiny_dataset

        space = build_milvus_space(index_types=("HNSW", "IVF_FLAT"))
        environment = VDMSTuningEnvironment(make_tiny_dataset(), space=space, seed=0)
        tuner = VDTuner(environment, settings=small_settings(iterations=6))
        report = tuner.run()
        assert {o.index_type for o in report.history} <= {"HNSW", "IVF_FLAT"}

    def test_constrained_objective_run(self):
        from repro.workloads.environment import VDMSTuningEnvironment
        from tests.conftest import make_tiny_dataset

        environment = VDMSTuningEnvironment(make_tiny_dataset(), seed=0)
        objective = ObjectiveSpec(recall_constraint=0.9)
        tuner = VDTuner(environment, settings=small_settings(iterations=10), objective=objective)
        report = tuner.run()
        best = report.best_observation()
        assert best is None or best.recall >= 0.9

    def test_bootstrap_history_is_used_for_training_only(self, completed_run):
        from repro.workloads.environment import VDMSTuningEnvironment
        from tests.conftest import make_tiny_dataset

        _, _, previous_report = completed_run
        environment = VDMSTuningEnvironment(make_tiny_dataset(), seed=1)
        tuner = VDTuner(
            environment,
            settings=small_settings(iterations=9),
            bootstrap_history=previous_report.history,
        )
        report = tuner.run()
        # The new report contains only the new run's observations.
        assert len(report.history) == 9
