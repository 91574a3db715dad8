"""Tests for the dynamic-workload subsystem (drift events, timelines, environment)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.dynamic import (
    DRIFT_EVENT_TYPES,
    FILTER_FIELD,
    DataChurnEvent,
    DynamicTuningEnvironment,
    DynamicWorkload,
    FilterSelectivityEvent,
    QPSBurstEvent,
    QueryShiftEvent,
    make_drift_event,
    make_filtered_workload,
)
from repro.workloads.workload import SearchWorkload
from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset()


@pytest.fixture(scope="module")
def workload(dataset):
    return SearchWorkload.from_dataset(dataset, concurrency=10)


class TestDriftEventValidation:
    def test_at_step_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryShiftEvent(at_step=0)

    @pytest.mark.parametrize("severity", [0.0, -0.1, 1.5])
    def test_severity_must_be_in_unit_interval(self, severity):
        with pytest.raises(ValueError):
            DataChurnEvent(at_step=5, severity=severity)

    def test_burst_direction_validated(self):
        with pytest.raises(ValueError):
            QPSBurstEvent(at_step=5, direction="sideways")

    def test_registry_covers_four_families(self):
        assert set(DRIFT_EVENT_TYPES) == {
            "query_shift", "data_churn", "qps_burst", "filter_shift",
        }

    @pytest.mark.parametrize(
        "alias,expected",
        [("shift", "query_shift"), ("churn", "data_churn"),
         ("burst", "qps_burst"), ("filter", "filter_shift"),
         ("query_shift", "query_shift")],
    )
    def test_make_drift_event_aliases(self, alias, expected):
        assert make_drift_event(alias, at_step=3).name == expected

    def test_make_drift_event_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_drift_event("comet-strike", at_step=3)


class TestDriftEventSemantics:
    def test_query_shift_replaces_queries_and_recomputes_truth(self, dataset, workload):
        event = QueryShiftEvent(at_step=5, severity=0.5)
        rng = np.random.default_rng(0)
        drifted, new_workload = event.apply(dataset, workload, rng)
        assert drifted.vectors is dataset.vectors  # corpus untouched
        changed = np.any(drifted.queries != dataset.queries, axis=1)
        fraction = changed.mean()
        assert 0.3 <= fraction <= 0.7  # about `severity` of the queries moved
        assert new_workload.ground_truth.shape == workload.ground_truth.shape
        # Ground truth was recomputed for the new queries.
        assert not np.array_equal(new_workload.ground_truth, workload.ground_truth)

    def test_data_churn_preserves_corpus_size(self, dataset, workload):
        event = DataChurnEvent(at_step=5, severity=0.6)
        drifted, new_workload = event.apply(dataset, workload, np.random.default_rng(1))
        assert drifted.num_vectors == dataset.num_vectors
        assert not np.array_equal(drifted.vectors, dataset.vectors)
        assert new_workload.ground_truth.shape[0] == drifted.num_queries

    def test_qps_burst_drop_and_surge(self, dataset, workload):
        drop = QPSBurstEvent(at_step=5, severity=1.0)
        same_dataset, trough = drop.apply(dataset, workload, np.random.default_rng(2))
        assert same_dataset is dataset
        assert trough.concurrency < workload.concurrency

        surge = QPSBurstEvent(at_step=5, severity=1.0, direction="surge")
        _, burst = surge.apply(dataset, workload, np.random.default_rng(2))
        assert burst.concurrency > workload.concurrency

    def test_filter_shift_restricts_ground_truth(self, dataset, workload):
        event = FilterSelectivityEvent(at_step=5, severity=0.8)
        drifted, new_workload = event.apply(dataset, workload, np.random.default_rng(3))
        assert drifted.vectors is dataset.vectors
        # Post-filter ground truth only references the matching subset.
        matched = np.unique(new_workload.ground_truth)
        assert matched.size < dataset.num_vectors
        assert matched.min() >= 0 and matched.max() < dataset.num_vectors

    def test_filtered_workload_always_matches_top_k_rows(self, dataset, workload):
        # A selectivity that rounds to zero matching rows still matches top_k
        # of them, so every query has a full ground-truth row.
        drifted, new_workload = make_filtered_workload(
            dataset, workload, 1e-6, np.random.default_rng(4)
        )
        assert np.count_nonzero(drifted.attributes[FILTER_FIELD] == 0) == dataset.top_k
        assert not (new_workload.ground_truth == -1).any()


class TestDynamicWorkload:
    def test_phase_zero_is_the_base_workload(self, dataset):
        dynamic = DynamicWorkload(dataset, seed=0)
        assert dynamic.num_phases == 1
        phase = dynamic.phase(0)
        assert phase.name == "baseline" and phase.start_step == 1
        assert phase.dataset is dataset

    def test_events_sorted_and_phases_compose(self, dataset):
        events = [
            QPSBurstEvent(at_step=20, severity=0.5),
            QueryShiftEvent(at_step=10, severity=0.5),
        ]
        dynamic = DynamicWorkload(dataset, events, seed=0)
        assert [e.at_step for e in dynamic.events] == [10, 20]
        assert dynamic.phase(1).name == "query_shift"
        # Phase 2 composes: the burst applies on top of the shifted queries.
        phase2 = dynamic.phase(2)
        assert phase2.name == "qps_burst"
        assert np.array_equal(phase2.dataset.queries, dynamic.phase(1).dataset.queries)
        assert phase2.workload.concurrency != dynamic.phase(1).workload.concurrency

    def test_duplicate_event_steps_rejected(self, dataset):
        with pytest.raises(ValueError):
            DynamicWorkload(
                dataset,
                [QueryShiftEvent(at_step=5), QPSBurstEvent(at_step=5)],
            )

    def test_phase_index_at_steps(self, dataset):
        dynamic = DynamicWorkload(dataset, [QueryShiftEvent(at_step=10)], seed=0)
        assert dynamic.phase_index_at(1) == 0
        assert dynamic.phase_index_at(9) == 0
        assert dynamic.phase_index_at(10) == 1
        assert dynamic.phase_index_at(99) == 1

    def test_materialization_is_deterministic(self, dataset):
        a = DynamicWorkload(dataset, [QueryShiftEvent(at_step=4, severity=0.6)], seed=7)
        b = DynamicWorkload(dataset, [QueryShiftEvent(at_step=4, severity=0.6)], seed=7)
        assert np.array_equal(a.phase(1).dataset.queries, b.phase(1).dataset.queries)

    def test_phase_index_out_of_range(self, dataset):
        dynamic = DynamicWorkload(dataset, seed=0)
        with pytest.raises(IndexError):
            dynamic.phase(1)


class TestDynamicTuningEnvironment:
    def test_phases_advance_with_evaluations(self, dataset):
        dynamic = DynamicWorkload(dataset, [QPSBurstEvent(at_step=3, severity=1.0)], seed=0)
        environment = DynamicTuningEnvironment(dynamic, seed=0)
        configuration = environment.default_configuration()
        environment.evaluate(configuration)
        environment.evaluate(configuration)
        assert environment.current_phase.index == 0
        environment.evaluate(configuration)
        assert environment.current_phase.index == 1
        assert environment.phase_log == [(0, 1), (1, 3)]

    def test_same_configuration_remeasures_after_drift(self, dataset):
        dynamic = DynamicWorkload(
            dataset, [FilterSelectivityEvent(at_step=2, severity=0.8)], seed=0
        )
        environment = DynamicTuningEnvironment(dynamic, seed=0)
        configuration = environment.default_configuration()
        before = environment.evaluate(configuration)
        after = environment.evaluate(configuration)
        # The filter shift caps recall: the cached result must not be reused.
        assert after.recall < before.recall

    def test_batches_are_phase_atomic(self, dataset):
        dynamic = DynamicWorkload(dataset, [QPSBurstEvent(at_step=3, severity=1.0)], seed=0)
        environment = DynamicTuningEnvironment(dynamic, seed=0)
        batch = [environment.default_configuration()] * 4
        # The batch starts at step 1, so the whole batch runs under phase 0.
        environment.evaluate_batch(batch)
        assert environment.current_phase.index == 0
        # The next evaluation is step 5, which is past the boundary.
        environment.evaluate(environment.default_configuration())
        assert environment.current_phase.index == 1

    def test_evaluate_is_a_one_step_batch(self, dataset):
        # The drift stepping lives in evaluate_batch only; evaluate inherits
        # the base class's one-element-batch wrapper.
        assert "evaluate" not in vars(DynamicTuningEnvironment)
        dynamic = DynamicWorkload(dataset, [QPSBurstEvent(at_step=2, severity=1.0)], seed=0)
        environment = DynamicTuningEnvironment(dynamic, seed=0)
        for step in (1, 2, 3):
            environment.evaluate(environment.default_configuration())
            assert environment.steps_taken == step
            assert environment.num_evaluations == step
        assert environment.phase_log == [(0, 1), (1, 2)]

    def test_steps_counted_across_entry_points(self, dataset):
        dynamic = DynamicWorkload(dataset, [QPSBurstEvent(at_step=4, severity=1.0)], seed=0)
        environment = DynamicTuningEnvironment(dynamic, seed=0)
        environment.evaluate(environment.default_configuration())
        environment.evaluate_batch([environment.default_configuration()] * 2)
        assert environment.steps_taken == 3
        environment.evaluate(environment.default_configuration())
        assert environment.current_phase.index == 1

    def test_an_empty_batch_takes_no_step(self, dataset):
        dynamic = DynamicWorkload(dataset, [QPSBurstEvent(at_step=2, severity=1.0)], seed=0)
        environment = DynamicTuningEnvironment(dynamic, seed=0)
        assert environment.evaluate_batch([]) == []
        assert environment.steps_taken == 0
        environment.evaluate(environment.default_configuration())
        assert environment.current_phase.index == 0

    def test_a_batch_is_charged_its_longest_replay(self, dataset):
        dynamic = DynamicWorkload(dataset, [QPSBurstEvent(at_step=3, severity=1.0)], seed=0)
        environment = DynamicTuningEnvironment(dynamic, seed=0)
        batch = environment.space.sample_configurations(3, np.random.default_rng(4))
        costs = [result.replay_seconds for result in environment.evaluate_batch(batch)]
        assert environment.elapsed_replay_seconds == max(costs)
