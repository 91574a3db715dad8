"""Unit tests for the tuning environment."""

import numpy as np
import pytest

from repro.config import default_configuration
from repro.vdms.errors import IndexBuildError
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


class TestBatchEvaluation:
    """A batch replays in-process, in submission order, charged its longest replay."""

    @staticmethod
    def batch(environment, count=4, seed=5):
        return environment.space.sample_configurations(count, np.random.default_rng(seed))

    def test_results_and_history_follow_submission_order(self, tiny_environment):
        batch = self.batch(tiny_environment, count=6, seed=9)
        results = tiny_environment.evaluate_batch(batch)
        assert [r.configuration["index_type"] for r in results] == [c["index_type"] for c in batch]
        assert [record.result for record in tiny_environment.history] == results

    def test_noise_is_drawn_in_submission_order(self, tiny_dataset, milvus_space):
        batched = VDMSTuningEnvironment(tiny_dataset, space=milvus_space, noise=0.1, seed=11)
        single = VDMSTuningEnvironment(tiny_dataset, space=milvus_space, noise=0.1, seed=11)
        batch = self.batch(batched)
        assert batched.evaluate_batch(batch) == [single.evaluate(c) for c in batch]

    def test_a_repeated_configuration_is_replayed_once(self, tiny_environment, monkeypatch):
        first, second = self.batch(tiny_environment, count=2)
        replayed = []
        replay = tiny_environment._replayer.replay
        monkeypatch.setattr(
            tiny_environment._replayer, "replay", lambda values: replayed.append(values) or replay(values)
        )
        results = tiny_environment.evaluate_batch([first, second, first])
        assert len(replayed) == 2
        assert results[0] is results[2]
        assert tiny_environment.num_evaluations == 3

    def test_an_empty_batch_returns_nothing_and_charges_nothing(self, tiny_environment):
        assert tiny_environment.evaluate_batch([]) == []
        assert tiny_environment.num_evaluations == 0
        assert tiny_environment.elapsed_replay_seconds == 0.0

    def test_a_configuration_cached_by_an_earlier_batch_is_not_replayed(
        self, tiny_environment, monkeypatch
    ):
        first, second, third = self.batch(tiny_environment, count=3)
        tiny_environment.evaluate_batch([first, second])
        replayed = []
        replay = tiny_environment._replayer.replay
        monkeypatch.setattr(
            tiny_environment._replayer, "replay", lambda values: replayed.append(values) or replay(values)
        )
        tiny_environment.evaluate_batch([second, third, first])
        assert replayed == [dict(third)]
        assert tiny_environment.num_evaluations == 5

    def test_a_noisy_repeat_within_a_batch_matches_the_sequential_cache_hit(
        self, tiny_dataset, milvus_space
    ):
        batched = VDMSTuningEnvironment(tiny_dataset, space=milvus_space, noise=0.2, seed=3)
        single = VDMSTuningEnvironment(tiny_dataset, space=milvus_space, noise=0.2, seed=3)
        first, second = self.batch(batched, count=2)
        batch = [first, second, first, second]
        results = batched.evaluate_batch(batch)
        assert results == [single.evaluate(c) for c in batch]
        # The repeat shares its first draw: noise is drawn once per replay.
        assert results[0] is results[2] and results[1] is results[3]

    def test_the_batch_clock_is_the_longest_replay(self, tiny_environment):
        batch = self.batch(tiny_environment)
        costs = [r.replay_seconds for r in tiny_environment.evaluate_batch(batch)]
        assert tiny_environment.elapsed_replay_seconds == max(costs) < sum(costs)
        # Every record of the batch closes at the batch's clock.
        assert {r.elapsed_replay_seconds for r in tiny_environment.history} == {max(costs)}
        # A cached repeat still costs its replay, as a sequential step does.
        tiny_environment.evaluate_batch(batch[:2])
        assert tiny_environment.elapsed_replay_seconds == max(costs) + max(costs[:2])

    def test_a_replay_error_propagates_and_records_nothing(self, tiny_environment):
        bad = dict(tiny_environment.default_configuration(), index_type="NO_SUCH_INDEX")
        with pytest.raises(IndexBuildError):
            tiny_environment.evaluate_batch([tiny_environment.default_configuration(), bad])
        assert tiny_environment.num_evaluations == 0
        assert tiny_environment.elapsed_replay_seconds == 0.0
