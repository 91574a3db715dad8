"""Behavioural tests shared by every index type, plus per-type specifics."""

import numpy as np
import pytest

from repro.datasets.ground_truth import brute_force_neighbors, recall_at_k
from repro.vdms.errors import IndexNotBuiltError
from repro.vdms.index import INDEX_REGISTRY, create_index
from repro.vdms.index.flat import FlatIndex
from repro.vdms.index.hnsw import HNSWIndex
from repro.vdms.index.ivf_flat import IVFFlatIndex
from repro.vdms.index.ivf_pq import IVFPQIndex
from repro.vdms.index.ivf_sq8 import IVFSQ8Index
from repro.vdms.index.kmeans import kmeans
from repro.vdms.index.scann import ScannIndex

ALL_INDEX_TYPES = tuple(INDEX_REGISTRY)


@pytest.fixture(scope="module")
def corpus(rng=None):
    generator = np.random.default_rng(11)
    centers = generator.normal(size=(10, 16)).astype(np.float32)
    assignment = generator.integers(0, 10, size=500)
    vectors = centers[assignment] + generator.normal(scale=0.15, size=(500, 16)).astype(np.float32)
    queries = vectors[generator.integers(0, 500, size=20)] + generator.normal(
        scale=0.05, size=(20, 16)
    ).astype(np.float32)
    truth = brute_force_neighbors(vectors, queries, top_k=5, metric="angular")
    return vectors.astype(np.float32), queries.astype(np.float32), truth


class TestRegistry:
    def test_registry_contains_all_paper_index_types(self):
        assert set(INDEX_REGISTRY) == {
            "FLAT",
            "IVF_FLAT",
            "IVF_SQ8",
            "IVF_PQ",
            "HNSW",
            "SCANN",
            "AUTOINDEX",
        }

    def test_create_index_unknown_type_raises(self):
        with pytest.raises(KeyError):
            create_index("BTREE")

    def test_create_index_ignores_irrelevant_parameters(self):
        index = create_index("FLAT", nlist=64, hnsw_m=8)
        assert index.index_type == "FLAT"


@pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
class TestCommonBehaviour:
    def test_search_before_build_raises(self, index_type):
        index = create_index(index_type)
        with pytest.raises(IndexNotBuiltError):
            index.search(np.zeros((1, 4), dtype=np.float32), 1)

    def test_build_and_search_shapes(self, index_type, corpus):
        vectors, queries, _ = corpus
        index = create_index(index_type, seed=0)
        stats = index.build(vectors)
        assert stats.num_vectors == vectors.shape[0]
        ids, distances, search_stats = index.search(queries, 5)
        assert ids.shape == (queries.shape[0], 5)
        assert distances.shape == (queries.shape[0], 5)
        assert search_stats.num_queries == queries.shape[0]

    def test_returned_ids_are_valid_or_padding(self, index_type, corpus):
        vectors, queries, _ = corpus
        index = create_index(index_type, seed=0)
        index.build(vectors)
        ids, _, _ = index.search(queries, 5)
        assert np.all((ids >= -1) & (ids < vectors.shape[0]))

    def test_distances_sorted_per_query(self, index_type, corpus):
        vectors, queries, _ = corpus
        index = create_index(index_type, seed=0)
        index.build(vectors)
        _, distances, _ = index.search(queries, 5)
        finite = np.where(np.isfinite(distances), distances, np.inf)
        assert np.all(np.diff(finite, axis=1) >= -1e-5)

    def test_reasonable_recall_on_easy_corpus(self, index_type, corpus):
        vectors, queries, truth = corpus
        index = create_index(index_type, seed=0)
        index.build(vectors)
        ids, _, _ = index.search(queries, 5)
        recall = recall_at_k(ids, truth, 5)
        # Every index type should beat random guessing by a wide margin on
        # a small, well-clustered corpus; exact indexes should be near 1.
        assert recall >= 0.5

    def test_search_work_is_counted(self, index_type, corpus):
        vectors, queries, _ = corpus
        index = create_index(index_type, seed=0)
        index.build(vectors)
        _, _, stats = index.search(queries, 5)
        assert stats.total_work() > 0

    def test_external_ids_are_respected(self, index_type, corpus):
        vectors, queries, _ = corpus
        external_ids = np.arange(1000, 1000 + vectors.shape[0], dtype=np.int64)
        index = create_index(index_type, seed=0)
        index.build(vectors, ids=external_ids)
        ids, _, _ = index.search(queries, 3)
        valid = ids[ids >= 0]
        assert np.all(valid >= 1000)

    def test_memory_bytes_non_negative(self, index_type, corpus):
        vectors, _, _ = corpus
        index = create_index(index_type, seed=0)
        index.build(vectors)
        assert index.memory_bytes() >= 0

    def test_top_k_larger_than_corpus_is_padded(self, index_type):
        generator = np.random.default_rng(5)
        vectors = generator.normal(size=(20, 8)).astype(np.float32)
        index = create_index(index_type, seed=0)
        index.build(vectors)
        ids, distances, _ = index.search(vectors[:2], 30)
        assert ids.shape == (2, 30)
        assert np.any(ids == -1)
        assert np.any(~np.isfinite(distances))


class TestFlat:
    def test_flat_recall_is_perfect(self, corpus):
        vectors, queries, truth = corpus
        index = FlatIndex(metric="angular")
        index.build(vectors)
        ids, _, _ = index.search(queries, 5)
        assert recall_at_k(ids, truth, 5) == 1.0

    def test_flat_distance_count_is_exhaustive(self, corpus):
        vectors, queries, _ = corpus
        index = FlatIndex(metric="angular")
        index.build(vectors)
        _, _, stats = index.search(queries, 5)
        assert stats.distance_evaluations == vectors.shape[0] * queries.shape[0]


class TestIVFFamily:
    def test_higher_nprobe_improves_recall(self, corpus):
        vectors, queries, truth = corpus
        low = IVFFlatIndex(metric="angular", nlist=64, nprobe=1, seed=0)
        high = IVFFlatIndex(metric="angular", nlist=64, nprobe=32, seed=0)
        low.build(vectors)
        high.build(vectors)
        low_recall = recall_at_k(low.search(queries, 5)[0], truth, 5)
        high_recall = recall_at_k(high.search(queries, 5)[0], truth, 5)
        assert high_recall >= low_recall

    def test_higher_nprobe_costs_more_work(self, corpus):
        vectors, queries, _ = corpus
        low = IVFFlatIndex(metric="angular", nlist=64, nprobe=1, seed=0)
        high = IVFFlatIndex(metric="angular", nlist=64, nprobe=32, seed=0)
        low.build(vectors)
        high.build(vectors)
        low_work = low.search(queries, 5)[2].total_work()
        high_work = high.search(queries, 5)[2].total_work()
        assert high_work > low_work

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            IVFFlatIndex(nlist=0)
        with pytest.raises(ValueError):
            IVFFlatIndex(nprobe=0)

    def test_sq8_memory_is_smaller_than_raw(self, corpus):
        vectors, _, _ = corpus
        sq8 = IVFSQ8Index(metric="angular", nlist=32, nprobe=8, seed=0)
        sq8.build(vectors)
        # Codes take one byte per dimension versus four for raw floats.
        assert sq8.memory_bytes() < vectors.nbytes

    def test_sq8_counts_code_evaluations(self, corpus):
        vectors, queries, _ = corpus
        sq8 = IVFSQ8Index(metric="angular", nlist=32, nprobe=8, seed=0)
        sq8.build(vectors)
        stats = sq8.search(queries, 5)[2]
        assert stats.code_evaluations > 0
        assert stats.distance_evaluations == 0

    def test_pq_subspace_dimension_divides_vector_dimension(self, corpus):
        vectors, _, _ = corpus
        pq = IVFPQIndex(metric="angular", nlist=32, nprobe=8, pq_m=5, pq_nbits=6, seed=0)
        stats = pq.build(vectors)
        assert 16 % stats.extra["pq_m"] == 0

    def test_pq_invalid_nbits_rejected(self):
        with pytest.raises(ValueError):
            IVFPQIndex(pq_nbits=0)
        with pytest.raises(ValueError):
            IVFPQIndex(pq_m=0)


class TestScann:
    def test_reorder_uses_full_precision(self, corpus):
        vectors, queries, _ = corpus
        index = ScannIndex(metric="angular", nlist=32, nprobe=8, reorder_k=50, seed=0)
        index.build(vectors)
        stats = index.search(queries, 5)[2]
        assert stats.reorder_evaluations > 0
        assert stats.code_evaluations > 0

    def test_larger_reorder_k_does_not_hurt_recall(self, corpus):
        vectors, queries, truth = corpus
        small = ScannIndex(metric="angular", nlist=32, nprobe=4, reorder_k=5, seed=0)
        large = ScannIndex(metric="angular", nlist=32, nprobe=4, reorder_k=200, seed=0)
        small.build(vectors)
        large.build(vectors)
        small_recall = recall_at_k(small.search(queries, 5)[0], truth, 5)
        large_recall = recall_at_k(large.search(queries, 5)[0], truth, 5)
        assert large_recall >= small_recall

    def test_invalid_reorder_k_rejected(self):
        with pytest.raises(ValueError):
            ScannIndex(reorder_k=0)


class TestSearchTimeParameters:
    def test_set_search_params_updates_only_search_time_knobs(self, corpus):
        vectors, _, _ = corpus
        index = IVFFlatIndex(metric="angular", nlist=32, nprobe=4, seed=0)
        index.build(vectors)
        index.set_search_params(nprobe=16, nlist=999, hnsw_m=77)
        assert index.nprobe == 16
        assert index.nlist == 32  # structural parameter untouched

    def test_set_search_params_changes_work(self, corpus):
        vectors, queries, _ = corpus
        index = ScannIndex(metric="angular", nlist=32, nprobe=2, reorder_k=10, seed=0)
        index.build(vectors)
        before = index.search(queries, 5)[2].total_work()
        index.set_search_params(nprobe=16, reorder_k=100)
        after = index.search(queries, 5)[2].total_work()
        assert after > before

    @pytest.mark.parametrize(
        "index_type, name",
        [("IVF_FLAT", "nprobe"), ("SCANN", "nprobe"), ("SCANN", "reorder_k"), ("HNSW", "ef_search")],
    )
    @pytest.mark.parametrize("value", [0, -4])
    def test_set_search_params_applies_the_constructor_bounds(self, corpus, index_type, name, value):
        # The constructor's message, and a rejected call changes nothing —
        # not even the valid parameter passed beside the invalid one.
        vectors, queries, _ = corpus
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            create_index(index_type, **{name: value})
        index = create_index(index_type, nlist=32, seed=0)
        index.build(vectors)
        other = "nprobe" if name != "nprobe" else "ef_search"
        before = (dict(index.params), getattr(index, name), index.search(queries, 5))
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            index.set_search_params(**{other: 3, name: value})
        assert (index.params, getattr(index, name)) == before[:2]
        ids, distances, _ = index.search(queries, 5)
        assert np.array_equal(ids, before[2][0]) and np.array_equal(distances, before[2][1])
        assert (ids[:, 0] >= 0).all()


@pytest.mark.xfail(
    strict=True,
    reason="kmeans() always stops after one Lloyd iteration: previous_inertia starts at inf, so "
    "the first convergence test is inf <= 1e-4 * inf.  Known and pinned, not fixed: the fix "
    "moves every IVF / SCANN / PQ / HNSW build and with it every recorded digest and golden "
    "trace.  The PR that fixes it must turn this test on.",
)
def test_kmeans_runs_past_the_first_lloyd_iteration(corpus):
    vectors, _, _ = corpus
    # 16 k-means++ seeds over ten well-separated blobs do not converge in one step.
    assert kmeans(vectors, 16, seed=0).iterations > 1
