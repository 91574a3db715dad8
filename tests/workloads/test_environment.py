"""Unit tests for the tuning environment."""

import pytest

from repro.config import default_configuration
from repro.workloads.environment import VDMSTuningEnvironment


class TestEvaluation:
    def test_evaluate_records_history(self, tiny_environment):
        configuration = tiny_environment.default_configuration()
        result = tiny_environment.evaluate(configuration)
        assert tiny_environment.num_evaluations == 1
        assert tiny_environment.history[0].result is result

    def test_result_cache_returns_identical_results(self, tiny_environment):
        configuration = tiny_environment.default_configuration()
        first = tiny_environment.evaluate(configuration)
        second = tiny_environment.evaluate(configuration)
        assert first.qps == second.qps
        assert tiny_environment.num_evaluations == 2  # both count as evaluations

    def test_replay_clock_accumulates(self, tiny_environment):
        configuration = tiny_environment.default_configuration()
        tiny_environment.evaluate(configuration)
        after_one = tiny_environment.elapsed_replay_seconds
        tiny_environment.evaluate(configuration)
        assert tiny_environment.elapsed_replay_seconds == pytest.approx(2 * after_one)

    def test_recommendation_clock(self, tiny_environment):
        tiny_environment.charge_recommendation_time(1.5)
        tiny_environment.charge_recommendation_time(-3.0)  # negative charges ignored
        assert tiny_environment.elapsed_recommendation_seconds == pytest.approx(1.5)
        assert tiny_environment.elapsed_tuning_seconds >= 1.5

    def test_reset_history_clears_clock_but_keeps_cache(self, tiny_environment):
        configuration = tiny_environment.default_configuration()
        tiny_environment.evaluate(configuration)
        tiny_environment.reset_history()
        assert tiny_environment.num_evaluations == 0
        assert tiny_environment.elapsed_replay_seconds == 0.0

    def test_environment_from_dataset_name(self):
        environment = VDMSTuningEnvironment("glove-small")
        assert environment.dataset.name == "glove-small"
        assert environment.space.dimension == 27

    def test_noise_perturbs_qps(self, tiny_dataset, milvus_space):
        noisy = VDMSTuningEnvironment(tiny_dataset, space=milvus_space, noise=0.3, seed=5)
        clean = VDMSTuningEnvironment(tiny_dataset, space=milvus_space, noise=0.0, seed=5)
        configuration = default_configuration(milvus_space, index_type="IVF_FLAT")
        assert noisy.evaluate(configuration).qps != clean.evaluate(configuration).qps

    def test_evaluate_is_a_batch_of_one(self, tiny_dataset, milvus_space):
        single = VDMSTuningEnvironment(tiny_dataset, space=milvus_space, noise=0.3, seed=5)
        batched = VDMSTuningEnvironment(tiny_dataset, space=milvus_space, noise=0.3, seed=5)
        for index_type in ("IVF_FLAT", "HNSW", "IVF_FLAT"):  # the repeat is a cache hit
            configuration = default_configuration(milvus_space, index_type=index_type)
            assert single.evaluate(configuration) == batched.evaluate_batch([configuration])[0]
        assert single.elapsed_replay_seconds == batched.elapsed_replay_seconds
        assert single.history == batched.history
