"""Tests for the baseline tuners."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    DefaultTuner,
    OpenTunerSearch,
    OtterTuneGP,
    QEHVITuner,
    RandomSearchTuner,
    TUNER_REGISTRY,
    make_tuner,
)
from repro.baselines.base import weighted_sum_scores
from repro.core.history import ObservationHistory
from repro.core.tuner import VDTuner, VDTunerSettings
from repro.workloads.environment import VDMSTuningEnvironment
from tests.conftest import make_tiny_dataset
from tests.core.test_history import make_observation

BASELINE_CLASSES = [DefaultTuner, RandomSearchTuner, OpenTunerSearch, OtterTuneGP, QEHVITuner]


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset()


class TestRegistry:
    def test_registry_contains_all_baselines(self):
        assert set(TUNER_REGISTRY) == {"default", "random", "opentuner", "ottertune", "qehvi"}

    def test_make_tuner_builds_vdtuner(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        tuner = make_tuner("vdtuner", environment, seed=3)
        assert isinstance(tuner, VDTuner)
        assert tuner.settings.seed == 3

    def test_make_tuner_reseeding_keeps_every_other_setting(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        settings = VDTunerSettings(num_iterations=7, stale_noise_inflation=4.0)
        tuner = make_tuner("vdtuner", environment, seed=3, settings=settings)
        assert tuner.settings == dataclasses.replace(settings, seed=3)
        assert tuner.settings.stale_noise_inflation == 4.0

    def test_make_tuner_unknown_name(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        with pytest.raises(KeyError):
            make_tuner("bayesopt-9000", environment)


class TestWeightedSum:
    def test_empty_history(self):
        assert weighted_sum_scores(ObservationHistory()).shape == (0,)

    def test_scores_bounded_and_weighted(self):
        history = ObservationHistory()
        history.add(make_observation(1, "HNSW", qps=100, recall=1.0))
        history.add(make_observation(2, "HNSW", qps=200, recall=0.5))
        scores = weighted_sum_scores(history, speed_weight=0.5)
        assert scores.shape == (2,)
        assert np.all((scores >= 0) & (scores <= 1))
        # First observation: 0.5 * 0.5 + 0.5 * 1.0 = 0.75.
        assert scores[0] == pytest.approx(0.75)


@pytest.mark.parametrize("baseline_class", BASELINE_CLASSES)
class TestBaselineRuns:
    def test_run_produces_requested_iterations(self, dataset, baseline_class):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        tuner = baseline_class(environment, seed=0)
        iterations = 6 if baseline_class in (DefaultTuner, RandomSearchTuner) else 12
        report = tuner.run(iterations)
        assert len(report.history) == iterations
        assert environment.num_evaluations == iterations

    def test_configurations_are_valid_points_of_the_space(self, dataset, baseline_class):
        environment = VDMSTuningEnvironment(dataset, seed=1)
        tuner = baseline_class(environment, seed=1)
        iterations = 5 if baseline_class in (DefaultTuner, RandomSearchTuner) else 11
        report = tuner.run(iterations)
        for observation in report.history:
            environment.space.configuration(observation.configuration)  # must not raise


class TestSpecificBehaviours:
    def test_default_tuner_always_uses_defaults(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        report = DefaultTuner(environment, seed=0).run(3)
        default = environment.space.default_configuration().to_dict()
        for observation in report.history:
            assert observation.configuration == default

    def test_random_tuner_explores_distinct_configurations(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        report = RandomSearchTuner(environment, seed=0).run(8)
        unique = {tuple(sorted((k, str(v)) for k, v in o.configuration.items())) for o in report.history}
        assert len(unique) >= 7

    def test_random_first_iteration_is_default(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        report = RandomSearchTuner(environment, seed=0).run(2)
        assert report.history[0].configuration == environment.space.default_configuration().to_dict()

    def test_opentuner_bandit_credits_techniques(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=2)
        tuner = OpenTunerSearch(environment, seed=2)
        tuner.run(14)
        assert sum(t.uses for t in tuner._techniques) >= 10

    def test_ottertune_and_qehvi_use_lhs_initialization(self, dataset):
        for cls in (OtterTuneGP, QEHVITuner):
            environment = VDMSTuningEnvironment(dataset, seed=3)
            tuner = cls(environment, seed=3)
            report = tuner.run(cls.NUM_INITIAL_SAMPLES)
            assert len(report.history) == cls.NUM_INITIAL_SAMPLES

    def test_model_based_baselines_improve_over_first_samples(self, dataset):
        # A weak smoke check of learning: the best configuration after the
        # model kicks in should be at least as good as the best initial sample.
        environment = VDMSTuningEnvironment(dataset, seed=4)
        tuner = QEHVITuner(environment, seed=4)
        report = tuner.run(14)
        initial_best = max(o.speed for o in report.history.observations[:10] if not o.failed)
        final_best = max(o.speed for o in report.history.observations if not o.failed)
        assert final_best >= initial_best
