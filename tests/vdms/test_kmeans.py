"""Unit tests for the shared k-means implementation."""

import numpy as np
import pytest

from repro.vdms.index.kmeans import _plus_plus_init, kmeans


def seed_plus_plus_init(vectors, k, rng):
    """The seed's k-means++ seeding, kept as the oracle: one ``rng.choice`` per pick."""
    n = vectors.shape[0]
    evaluations = 0
    first = int(rng.integers(0, n))
    centroids = [vectors[first]]
    closest = np.full(n, np.inf, dtype=np.float64)
    for _ in range(1, k):
        diff = vectors - centroids[-1]
        distances = np.einsum("ij,ij->i", diff, diff)
        evaluations += n
        np.minimum(closest, distances, out=closest)
        total = float(closest.sum())
        if total <= 0.0:
            pick = int(rng.integers(0, n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids.append(vectors[pick])
    return np.vstack(centroids), evaluations


#: (rows, dimension, k) of seedings a tuning loop on glove-small runs: IVF
#: lists over whole and partial segments, HNSW cells, a PQ sub-space (8 of 32
#: columns, a strided view) and k = n.
SEEDING_SHAPES = [
    (4000, 32, 128),
    (4000, 32, 16),
    (2000, 32, 1024),
    (1000, 8, 16),
    (512, 32, 64),
    (170, 32, 128),
    (64, 32, 64),
]


class TestPlusPlusSeeding:
    @pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
    @pytest.mark.parametrize("rows, dimension, k", SEEDING_SHAPES)
    def test_equals_the_seeds_choice_loop(self, rows, dimension, k, duplicated):
        data = np.random.default_rng(rows + k).normal(size=(rows, 32)).astype(np.float32)
        if duplicated:
            # Half the rows repeat the other half: once every distinct row is
            # a seed, ``total == 0`` and the pick falls back to ``integers``.
            data[rows // 2 :] = data[: rows - rows // 2]
        data = data[:, :dimension]
        for seed in range(5):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            seeds, evaluations = _plus_plus_init(data, k, rng)
            expected, expected_evaluations = seed_plus_plus_init(data, k, oracle_rng)
            assert seeds.dtype == expected.dtype
            assert seeds.tobytes() == expected.tobytes()
            assert evaluations == expected_evaluations
            assert rng.random() == oracle_rng.random()

    def test_identical_rows_take_the_zero_total_branch(self):
        data = np.ones((50, 4), dtype=np.float32)
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        seeds, _ = _plus_plus_init(data, 10, rng)
        assert seeds.tobytes() == seed_plus_plus_init(data, 10, oracle_rng)[0].tobytes()
        assert rng.random() == oracle_rng.random()

    def test_a_nan_row_raises_on_both(self):
        data = np.random.default_rng(0).normal(size=(40, 4)).astype(np.float32)
        data[7, 1] = np.nan
        for seeding in (_plus_plus_init, seed_plus_plus_init):
            with pytest.raises(ValueError):
                seeding(data, 5, np.random.default_rng(1))


def make_blobs(num_per_cluster=50, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [separation, 0.0], [0.0, separation]], dtype=np.float32)
    points = []
    for center in centers:
        points.append(center + rng.normal(scale=0.3, size=(num_per_cluster, 2)))
    return np.vstack(points).astype(np.float32)


class TestKMeans:
    def test_recovers_well_separated_clusters(self):
        points = make_blobs()
        result = kmeans(points, 3, seed=1)
        # Every true cluster should map to exactly one learned centroid.
        labels = [set(result.assignments[i * 50 : (i + 1) * 50].tolist()) for i in range(3)]
        assert all(len(group) == 1 for group in labels)
        assert len(set.union(*labels)) == 3

    def test_centroid_count_capped_at_num_points(self):
        points = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
        result = kmeans(points, 20, seed=0)
        assert result.centroids.shape[0] == 5

    def test_assignments_within_range(self):
        points = make_blobs()
        result = kmeans(points, 4, seed=2)
        assert result.assignments.min() >= 0
        assert result.assignments.max() < result.centroids.shape[0]

    def test_deterministic_for_fixed_seed(self):
        points = make_blobs(seed=3)
        first = kmeans(points, 3, seed=5)
        second = kmeans(points, 3, seed=5)
        assert np.array_equal(first.assignments, second.assignments)
        assert np.allclose(first.centroids, second.centroids)

    def test_inertia_decreases_with_more_clusters(self):
        points = make_blobs(seed=4)
        few = kmeans(points, 2, seed=1)
        many = kmeans(points, 8, seed=1)
        assert many.inertia < few.inertia

    def test_stops_once_inertia_stops_improving(self):
        points = make_blobs()
        result = kmeans(points, 3, seed=1, max_iterations=50)
        # Well-separated blobs settle long before the iteration cap ...
        assert result.iterations < 50
        # ... and a cap at the iteration it stopped on changes nothing.
        capped = kmeans(points, 3, seed=1, max_iterations=result.iterations)
        assert np.array_equal(capped.assignments, result.assignments)
        assert np.array_equal(capped.centroids, result.centroids)

    def test_distance_evaluations_counted(self):
        points = make_blobs()
        result = kmeans(points, 3, seed=0, max_iterations=5)
        # At least one assignment pass over all points and clusters.
        assert result.distance_evaluations >= points.shape[0] * 3

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 3), dtype=np.float32), 2)
        with pytest.raises(ValueError):
            kmeans(np.zeros(5, dtype=np.float32), 2)

    def test_single_cluster(self):
        points = make_blobs()
        result = kmeans(points, 1, seed=0)
        assert result.centroids.shape == (1, 2)
        assert np.all(result.assignments == 0)
