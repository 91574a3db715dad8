"""Unit tests for the observation history / knowledge base."""

import numpy as np
import pytest

from repro.core.history import Observation, ObservationHistory
from repro.workloads.replay import EvaluationResult


def make_result(qps=100.0, recall=0.9, memory=2.0, failed=False):
    return EvaluationResult(
        qps=qps, recall=recall, memory_gib=memory, latency_ms=1.0,
        build_seconds=10.0, replay_seconds=30.0, failed=failed,
    )


def make_observation(
    iteration, index_type="HNSW", qps=100.0, recall=0.9, failed=False, config=None, memory=2.0
):
    result = make_result(qps=qps, recall=recall, failed=failed, memory=memory)
    return Observation(
        iteration=iteration,
        index_type=index_type,
        configuration=config or {"index_type": index_type, "nlist": 64},
        result=result,
        speed=qps,
        recall=recall,
    )


@pytest.fixture()
def history():
    h = ObservationHistory()
    h.add(make_observation(1, "HNSW", qps=100, recall=0.95))
    h.add(make_observation(2, "HNSW", qps=300, recall=0.80))
    h.add(make_observation(3, "IVF_FLAT", qps=200, recall=0.99))
    h.add(make_observation(4, "IVF_FLAT", qps=50, recall=0.50, failed=True))
    h.add(make_observation(5, "SCANN", qps=250, recall=0.90))
    return h


class TestContainer:
    def test_len_iter_getitem(self, history):
        assert len(history) == 5
        assert history[0].iteration == 1
        assert [o.iteration for o in history] == [1, 2, 3, 4, 5]

    def test_index_types_first_seen_order(self, history):
        assert history.index_types() == ["HNSW", "IVF_FLAT", "SCANN"]

    def test_successful_excludes_failures(self, history):
        assert len(history.successful()) == 4

    def test_extend_and_constructor(self, history):
        copy = ObservationHistory(history.observations)
        copy.extend([make_observation(6, "FLAT", qps=10, recall=1.0)])
        assert len(copy) == 6
        assert len(history) == 5


class TestObjectives:
    def test_worst_objectives_over_successful(self, history):
        worst = history.worst_objectives()
        assert worst[0] == pytest.approx(100.0)
        assert worst[1] == pytest.approx(0.80)

    def test_worst_objectives_empty_history(self):
        assert np.allclose(ObservationHistory().worst_objectives(), 0.0)

    def test_objective_matrix_replaces_failures(self, history):
        matrix = history.objective_matrix()
        assert matrix.shape == (5, 2)
        # Row 3 (failed) is replaced by the worst successful values.
        assert matrix[3, 0] == pytest.approx(100.0)
        assert matrix[3, 1] == pytest.approx(0.80)

    def test_non_dominated_per_type(self, history):
        hnsw_front = history.non_dominated("HNSW")
        assert {o.iteration for o in hnsw_front} == {1, 2}
        overall = history.non_dominated()
        assert all(not o.failed for o in overall)

    def test_pareto_front_values(self, history):
        front = history.pareto_front()
        assert front.shape[1] == 2
        # (300, 0.80) and (200, 0.99) are both non-dominated overall.
        assert any(np.allclose(row, [300, 0.80]) for row in front)
        assert any(np.allclose(row, [200, 0.99]) for row in front)

    def test_balanced_point_prefers_diagonal(self, history):
        balanced = history.balanced_point()
        assert balanced is not None
        # The most balanced non-dominated point normalizes closest to equal ratios.
        assert balanced[0] in (200.0, 250.0, 300.0)

    def test_balanced_point_of_one_index_type(self, history):
        # IVF_FLAT's only successful observation is its own front.
        assert np.allclose(history.balanced_point("IVF_FLAT"), [200.0, 0.99])
        assert history.balanced_point("FLAT") is None

    def test_balanced_point_empty(self):
        assert ObservationHistory().balanced_point() is None

    def test_max_point(self, history):
        maximum = history.max_point()
        assert maximum[0] == pytest.approx(300.0)
        assert maximum[1] == pytest.approx(0.99)
        hnsw_max = history.max_point("HNSW")
        assert hnsw_max[0] == pytest.approx(300.0)


class TestSelection:
    def test_best_with_recall_floor(self, history):
        best = history.best(recall_floor=0.9)
        assert best.iteration == 5
        assert history.best(recall_floor=0.999) is None

    def test_best_ignores_failures(self, history):
        # The failed observation has recall 0.5; even with a low floor it is skipped.
        best = history.best(recall_floor=0.0)
        assert not best.failed

    def test_contains_configuration(self, history):
        assert history.contains_configuration({"index_type": "HNSW", "nlist": 64})
        assert not history.contains_configuration({"index_type": "HNSW", "nlist": 65})
