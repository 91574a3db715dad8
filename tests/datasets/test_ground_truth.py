"""Unit tests for exact neighbour computation and recall."""

import numpy as np
import pytest

from repro.datasets.ground_truth import (
    brute_force_neighbors,
    masked_brute_force_neighbors,
    recall_at_k,
)


class TestBruteForceNeighbors:
    def test_self_is_nearest_neighbour(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(50, 8)).astype(np.float32)
        neighbours = brute_force_neighbors(vectors, vectors, top_k=1, metric="l2")
        assert np.array_equal(neighbours[:, 0], np.arange(50))

    def test_results_sorted_by_distance(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(40, 4)).astype(np.float32)
        queries = rng.normal(size=(5, 4)).astype(np.float32)
        neighbours = brute_force_neighbors(vectors, queries, top_k=10, metric="l2")
        for q in range(5):
            distances = np.linalg.norm(vectors[neighbours[q]] - queries[q], axis=1)
            assert np.all(np.diff(distances) >= -1e-5)

    def test_angular_ignores_vector_scale(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(30, 6)).astype(np.float32)
        queries = rng.normal(size=(4, 6)).astype(np.float32)
        scaled = vectors * rng.uniform(0.5, 5.0, size=(30, 1)).astype(np.float32)
        original = brute_force_neighbors(vectors, queries, top_k=5, metric="angular")
        rescaled = brute_force_neighbors(scaled, queries, top_k=5, metric="angular")
        assert np.array_equal(original, rescaled)

    def test_top_k_larger_than_corpus_rejected(self):
        vectors = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            brute_force_neighbors(vectors, vectors, top_k=4)

    def test_batched_matches_unbatched(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(60, 5)).astype(np.float32)
        queries = rng.normal(size=(17, 5)).astype(np.float32)
        small_batches = brute_force_neighbors(vectors, queries, top_k=3, metric="l2", batch_size=4)
        one_batch = brute_force_neighbors(vectors, queries, top_k=3, metric="l2", batch_size=1000)
        assert np.array_equal(small_batches, one_batch)


class TestMaskedBruteForceNeighbors:
    def test_matches_brute_force_over_the_allowed_rows(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(80, 6)).astype(np.float32)
        queries = rng.normal(size=(7, 6)).astype(np.float32)
        mask = rng.random(80) < 0.4
        allowed = np.flatnonzero(mask)
        neighbours = masked_brute_force_neighbors(vectors, queries, 5, "l2", mask=mask)
        subset = brute_force_neighbors(vectors[allowed], queries, top_k=5, metric="l2")
        # Positions refer to the full array, not to the allowed subset.
        assert np.array_equal(neighbours, allowed[subset])
        assert mask[neighbours].all()

    def test_pads_with_minus_one_when_the_mask_allows_fewer_rows(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(20, 4)).astype(np.float32)
        queries = rng.normal(size=(3, 4)).astype(np.float32)
        mask = np.zeros(20, dtype=bool)
        mask[[2, 11]] = True
        neighbours = masked_brute_force_neighbors(vectors, queries, 5, "angular", mask=mask)
        assert neighbours.shape == (3, 5)
        assert np.array_equal(np.sort(neighbours[:, :2], axis=1), np.tile([2, 11], (3, 1)))
        assert np.all(neighbours[:, 2:] == -1)

    def test_empty_mask_returns_only_padding(self):
        vectors = np.ones((6, 3), dtype=np.float32)
        neighbours = masked_brute_force_neighbors(
            vectors, vectors[:2], 4, "l2", mask=np.zeros(6, dtype=bool)
        )
        assert neighbours.shape == (2, 4)
        assert np.all(neighbours == -1)

    def test_mask_must_have_one_entry_per_base_row(self):
        vectors = np.zeros((6, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            masked_brute_force_neighbors(vectors, vectors, 2, "l2", mask=np.ones(5, dtype=bool))


class TestRecallAtK:
    def test_perfect_recall(self):
        truth = np.array([[0, 1, 2], [3, 4, 5]])
        assert recall_at_k(truth, truth) == 1.0

    def test_zero_recall(self):
        truth = np.array([[0, 1], [2, 3]])
        retrieved = np.array([[7, 8], [9, 10]])
        assert recall_at_k(retrieved, truth) == 0.0

    def test_partial_recall(self):
        truth = np.array([[0, 1, 2, 3]])
        retrieved = np.array([[0, 1, 9, 9]])
        assert recall_at_k(retrieved, truth) == pytest.approx(0.5)

    def test_order_does_not_matter_within_top_k(self):
        truth = np.array([[0, 1, 2]])
        retrieved = np.array([[2, 0, 1]])
        assert recall_at_k(retrieved, truth) == 1.0

    def test_padding_with_minus_one_counts_as_miss(self):
        truth = np.array([[0, 1]])
        retrieved = np.array([[0, -1]])
        assert recall_at_k(retrieved, truth) == pytest.approx(0.5)

    def test_k_cutoff(self):
        truth = np.array([[0, 1, 2, 3]])
        retrieved = np.array([[0, 9, 9, 9]])
        assert recall_at_k(retrieved, truth, k=1) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            recall_at_k(np.zeros(3), np.zeros((1, 3)))
