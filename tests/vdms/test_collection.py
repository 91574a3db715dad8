"""Unit tests for Collection: ingestion, indexing, search, profiling."""

import numpy as np
import pytest

from repro.datasets.ground_truth import brute_force_neighbors, recall_at_k
from repro.vdms.collection import MAX_DIMENSION, Collection
from repro.vdms.errors import IndexBuildError, IndexNotBuiltError
from repro.vdms.system_config import SystemConfig


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(31)
    centers = rng.normal(size=(8, 16)).astype(np.float32)
    vectors = centers[rng.integers(0, 8, size=500)] + rng.normal(scale=0.15, size=(500, 16)).astype(np.float32)
    queries = vectors[rng.integers(0, 500, size=15)] + rng.normal(scale=0.05, size=(15, 16)).astype(np.float32)
    truth = brute_force_neighbors(vectors, queries, 5, "angular")
    return vectors.astype(np.float32), queries.astype(np.float32), truth


def loaded_collection(corpus, system_config=None, **kwargs):
    vectors, _, _ = corpus
    # A small sealed-segment capacity so the 500-row corpus produces at least
    # one sealed (indexable) segment plus a growing tail.
    if system_config is None:
        system_config = SystemConfig(segment_max_size=64, segment_seal_proportion=0.25)
    collection = Collection("test", dimension=16, system_config=system_config, **kwargs)
    collection.insert(vectors)
    collection.flush()
    return collection


class TestLifecycle:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Collection("bad", dimension=0)
        with pytest.raises(ValueError):
            Collection("bad", dimension=4, metric="hamming")
        with pytest.raises(ValueError, match="dimension must be an integer"):
            Collection("bad", 2.7)  # refused, not truncated to 2
        with pytest.raises(ValueError, match=f"dimension must be in 1..{MAX_DIMENSION}"):
            Collection("bad", MAX_DIMENSION + 1)
        assert Collection("c", np.int64(4)).dimension == 4

    def test_insert_assigns_sequential_ids(self, corpus):
        vectors, _, _ = corpus
        collection = Collection("c", dimension=16)
        collection.insert(vectors[:10])
        collection.insert(vectors[10:20])
        collection.flush()
        assert collection.num_rows == 20

    def test_search_empty_collection_raises(self):
        collection = Collection("empty", dimension=8)
        with pytest.raises(IndexNotBuiltError):
            collection.search(np.zeros((1, 8), dtype=np.float32), 3)

    def test_search_without_index_raises_when_sealed_segments_exist(self, corpus):
        collection = loaded_collection(corpus)
        if collection.num_sealed_segments:
            with pytest.raises(IndexNotBuiltError):
                collection.search(np.zeros((1, 16), dtype=np.float32), 3)

    def test_unknown_index_type_rejected(self, corpus):
        collection = loaded_collection(corpus)
        with pytest.raises(IndexBuildError):
            collection.create_index("BOGUS", {})

    def test_drop_index(self, corpus):
        collection = loaded_collection(corpus)
        collection.create_index("IVF_FLAT", {"nlist": 16, "nprobe": 8})
        assert collection.has_index
        collection.drop_index()
        assert not collection.has_index


class TestSearch:
    @pytest.mark.parametrize("index_type", ["FLAT", "IVF_FLAT", "HNSW", "SCANN"])
    def test_search_returns_reasonable_recall(self, corpus, index_type):
        _, queries, truth = corpus
        collection = loaded_collection(corpus)
        collection.create_index(index_type, {"nlist": 32, "nprobe": 16, "hnsw_m": 8,
                                              "ef_construction": 64, "ef_search": 64,
                                              "reorder_k": 100, "seed": 0})
        result = collection.search(queries, 5)
        assert recall_at_k(result.ids, truth, 5) >= 0.5
        assert result.stats.segments_searched > 0

    def test_growing_segment_is_searched(self, corpus):
        vectors, queries, truth = corpus
        # A huge segment size keeps everything growing (one growing segment).
        config = SystemConfig(segment_max_size=1_000_000, segment_seal_proportion=1.0, insert_buf_size=1_000_000)
        collection = Collection("grow", dimension=16, system_config=config)
        collection.insert(vectors)
        collection.flush()
        if collection.num_sealed_segments == 0:
            result = collection.search(queries, 5)
            assert recall_at_k(result.ids, truth, 5) == 1.0

    def test_results_merged_across_segments(self, corpus):
        vectors, queries, truth = corpus
        config = SystemConfig(segment_max_size=64, segment_seal_proportion=0.1)
        collection = Collection("many", dimension=16, system_config=config)
        collection.insert(vectors)
        collection.flush()
        assert collection.num_sealed_segments > 1
        collection.create_index("FLAT", {})
        result = collection.search(queries, 5)
        assert recall_at_k(result.ids, truth, 5) == 1.0

    def test_invalid_top_k(self, corpus):
        collection = loaded_collection(corpus)
        collection.create_index("FLAT", {})
        with pytest.raises(ValueError):
            collection.search(np.zeros((1, 16), dtype=np.float32), 0)

    def test_set_search_params_propagates(self, corpus):
        _, queries, _ = corpus
        collection = loaded_collection(corpus)
        collection.create_index("IVF_FLAT", {"nlist": 32, "nprobe": 1})
        narrow = collection.search(queries, 5).stats.total_work()
        collection.set_search_params(nprobe=32)
        wide = collection.search(queries, 5).stats.total_work()
        assert wide > narrow

    @pytest.mark.parametrize(
        "index_type, name",
        [("IVF_FLAT", "nprobe"), ("SCANN", "nprobe"), ("SCANN", "reorder_k"), ("HNSW", "ef_search")],
    )
    def test_rejected_search_params_change_nothing(self, corpus, index_type, name):
        _, queries, _ = corpus
        collection = loaded_collection(corpus)
        collection.create_index(index_type, {"nlist": 32, "nprobe": 4})
        indexes = [dict(shard.indexes) for shard in collection.shards]
        before = collection.search(queries, 5)
        state = (collection._version, dict(collection._index_params))
        for value in (0, -4):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                collection.set_search_params(
                    **{"nprobe": 2, "ef_search": 9, "reorder_k": 7, name: value}
                )
        assert (collection._version, collection._index_params) == state
        for shard, kept in zip(collection.shards, indexes):
            assert shard.indexes.keys() == kept.keys()
            assert all(shard.indexes[segment] is kept[segment] for segment in kept)
        after = collection.search(queries, 5)
        assert np.array_equal(after.ids, before.ids)
        assert np.array_equal(after.distances, before.distances)
        assert (after.ids[:, 0] >= 0).all()


class TestDelete:
    def test_delete_removes_rows(self, corpus):
        collection = loaded_collection(corpus)
        deleted = collection.delete(np.arange(10))
        assert deleted == 10
        assert collection.num_rows == 490

    def test_delete_unknown_ids_is_a_noop(self, corpus):
        collection = loaded_collection(corpus)
        assert collection.delete(np.array([10_000, 10_001])) == 0
        assert collection.num_rows == 500

    def test_delete_from_pending_buffer(self, corpus):
        vectors, _, _ = corpus
        collection = Collection("buffered", dimension=16)
        collection.insert(vectors[:20])
        # Not flushed yet: deletion must reach the insert buffer.
        assert collection.delete(np.arange(5)) == 5
        collection.flush()
        assert collection.num_rows == 15

    def test_delete_invalidates_touched_segment_indexes(self, corpus):
        collection = loaded_collection(corpus)
        collection.create_index("IVF_FLAT", {"nlist": 16, "nprobe": 16})
        index_bytes_before = collection.index_bytes()
        sealed_ids = collection.shards[0].segments.sealed_segments[0].ids
        collection.delete(sealed_ids[:8])
        # The touched sealed segment lost its index; the others keep theirs.
        assert collection.index_bytes() < index_bytes_before
        assert collection.has_index

    def test_search_falls_back_to_brute_force_after_delete(self, corpus):
        vectors, queries, _ = corpus
        collection = loaded_collection(corpus)
        collection.create_index("FLAT", {})
        doomed = collection.shards[0].segments.sealed_segments[0].ids[:8]
        collection.delete(doomed)
        result = collection.search(queries, 5)
        assert result.ids.shape == (queries.shape[0], 5)
        # Deleted rows never appear in results, and recall against the
        # surviving corpus stays exact (brute force over de-indexed segments).
        assert not np.isin(result.ids, doomed).any()
        keep = np.ones(vectors.shape[0], dtype=bool)
        keep[doomed] = False
        survivors = np.flatnonzero(keep)
        truth = survivors[brute_force_neighbors(vectors[keep], queries, 5, "angular")]
        assert recall_at_k(result.ids, truth, 5) == pytest.approx(1.0)

    def test_reindex_after_delete_restores_index_search(self, corpus):
        collection = loaded_collection(corpus)
        collection.create_index("IVF_FLAT", {"nlist": 16, "nprobe": 16})
        collection.delete(collection.shards[0].segments.sealed_segments[0].ids[:8])
        collection.create_index("IVF_FLAT", {"nlist": 16, "nprobe": 16})
        # Every sealed segment is indexed again.
        assert set(collection.shards[0].indexes) == {
            s.segment_id for s in collection.shards[0].segments.sealed_segments
        }

    def test_delete_everything_leaves_searchable_empty_state(self, corpus):
        collection = loaded_collection(corpus)
        collection.create_index("FLAT", {})
        collection.delete(np.arange(500))
        assert collection.num_rows == 0
        with pytest.raises(IndexNotBuiltError):
            collection.search(np.zeros((1, 16), dtype=np.float32), 3)


class TestProfile:
    def test_profile_reflects_collection_state(self, corpus):
        collection = loaded_collection(corpus)
        collection.create_index("IVF_FLAT", {"nlist": 32, "nprobe": 4})
        profile = collection.profile()
        assert profile.total_rows == 500
        assert profile.dimension == 16
        assert profile.sealed_segments == collection.num_sealed_segments
        assert profile.index_bytes == collection.index_bytes()
        assert profile.raw_bytes > 0
