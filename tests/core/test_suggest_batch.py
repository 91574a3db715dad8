"""Tests for joint q-EHVI batch suggestion on VDTuner and the baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import make_tuner
from repro.core.tuner import VDTuner, VDTunerSettings
from repro.workloads.environment import VDMSTuningEnvironment
from tests.conftest import make_tiny_dataset


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


def batch_closing_clocks(environment):
    """Each batch's ``(closing clock, longest replay)``, in order.

    The records of one batch share the clock at which the batch closed, and
    every batch moves the clock forward, so equal consecutive clocks mark one
    batch.
    """
    batches: list[tuple[float, float]] = []
    for record in environment.history:
        clock, cost = record.elapsed_replay_seconds, record.result.replay_seconds
        if batches and batches[-1][0] == clock:
            batches[-1] = (clock, max(batches[-1][1], cost))
        else:
            batches.append((clock, cost))
    return batches


def assert_each_batch_charged_its_longest_replay(environment, sizes_at_most):
    batches = batch_closing_clocks(environment)
    assert len(batches) >= len(environment.history) / sizes_at_most
    previous = 0.0
    for clock, longest in batches:
        assert clock == pytest.approx(previous + longest)
        previous = clock
    assert environment.elapsed_replay_seconds == pytest.approx(previous)


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset()


@pytest.fixture()
def warm_tuner(dataset):
    """A VDTuner with 10 evaluations of history (past initial sampling)."""
    environment = VDMSTuningEnvironment(dataset, seed=0)
    tuner = VDTuner(environment, settings=small_settings())
    tuner.run(10)
    return tuner


class TestSuggestBatch:
    def test_returns_q_distinct_in_bounds_configurations(self, warm_tuner):
        batch = warm_tuner.suggest_batch(4)
        assert len(batch) == 4
        assert len(set(batch)) == 4
        space = warm_tuner.space
        for configuration in batch:
            for name in space.names:
                assert space[name].validate(configuration[name])

    def test_invalid_q_rejected(self, warm_tuner):
        with pytest.raises(ValueError):
            warm_tuner.suggest_batch(0)

    def test_q1_matches_sequential_suggestion(self, dataset):
        first = VDTuner(VDMSTuningEnvironment(dataset, seed=0), settings=small_settings())
        first.run(10)
        second = VDTuner(VDMSTuningEnvironment(dataset, seed=0), settings=small_settings())
        second.run(10)

        suggested = first.suggest_batch(1)[0]
        observation = second.run(11).history[-1]
        assert suggested.to_dict() == observation.configuration

    def test_empty_history_suggests_index_type_defaults(self, dataset):
        tuner = VDTuner(VDMSTuningEnvironment(dataset, seed=0), settings=small_settings())
        batch = tuner.suggest_batch(3)
        assert [c["index_type"] for c in batch] == tuner.index_types[:3]
        space = tuner.space
        for configuration in batch:
            for name in space.names:
                if name != "index_type":
                    assert configuration[name] == space[name].default

    def test_batched_run_completes_budget_and_matches_report_shape(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        tuner = VDTuner(environment, settings=small_settings(iterations=14))
        report = tuner.run(batch_size=4)
        assert len(report.history) == 14
        assert environment.num_evaluations == 14
        assert report.replay_seconds > 0
        iterations = [o.iteration for o in report.history]
        assert iterations == list(range(1, 15))

    def test_batched_run_covers_every_index_type_initially(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        tuner = VDTuner(environment, settings=small_settings(iterations=12))
        report = tuner.run(batch_size=4)
        initial_types = [o.index_type for o in report.history[: len(tuner.index_types)]]
        assert initial_types == tuner.index_types


    def test_batch_default_sweep_is_one_batch_sequential_is_batches_of_one(self, dataset):
        def sweep_clocks(**run_options):
            environment = VDMSTuningEnvironment(dataset, seed=0)
            tuner = VDTuner(environment, settings=small_settings())
            tuner.run(len(tuner.index_types), **run_options)
            return [record.elapsed_replay_seconds for record in environment.history]

        # Not chunked by q: every record carries the one batch's closing clock.
        assert len(set(sweep_clocks(batch_size=2))) == 1
        sequential = sweep_clocks()
        assert sequential == sorted(set(sequential))

    def test_batched_run_charges_each_batch_its_longest_replay(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        tuner = VDTuner(environment, settings=small_settings(iterations=14))
        report = tuner.run(batch_size=4)
        # The opening sweep is one batch of every index type; later batches hold 4.
        assert_each_batch_charged_its_longest_replay(environment, len(tuner.index_types))
        assert report.replay_seconds == environment.elapsed_replay_seconds
        assert report.replay_seconds < sum(o.result.replay_seconds for o in environment.history)


class TestBaselineSuggestBatch:
    @pytest.mark.parametrize("name", ["random", "qehvi", "opentuner", "ottertune"])
    def test_baselines_return_q_distinct_configs(self, dataset, name):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        tuner = make_tuner(name, environment, seed=0)
        tuner.run(8)
        batch = tuner.suggest_batch(3)
        assert len(batch) == 3
        assert len(set(batch)) == 3

    def test_baseline_batched_run_budget(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        tuner = make_tuner("random", environment, seed=0)
        report = tuner.run(10, batch_size=4)
        assert len(report.history) == 10

    def test_qehvi_greedy_batch_spans_distinct_points(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        tuner = make_tuner("qehvi", environment, seed=0)
        tuner.run(12)  # past the initial design, GPs are in play
        batch = tuner.suggest_batch(4)
        encoded = np.array([tuner.space.encode(c) for c in batch])
        distances = np.linalg.norm(encoded[:, None, :] - encoded[None, :, :], axis=-1)
        off_diagonal = distances[~np.eye(4, dtype=bool)]
        assert off_diagonal.min() > 0.0

    def test_baseline_batched_run_charges_each_batch_its_longest_replay(self, dataset):
        environment = VDMSTuningEnvironment(dataset, seed=0)
        tuner = make_tuner("random", environment, seed=0)
        report = tuner.run(10, batch_size=4)
        assert len(batch_closing_clocks(environment)) == 3  # 4 + 4 + 2
        assert_each_batch_charged_its_longest_replay(environment, 4)
        assert report.replay_seconds == environment.elapsed_replay_seconds
