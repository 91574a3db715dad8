"""Maintenance subsystem tests: tombstones, compaction, incremental re-indexing.

Four families of guarantees are pinned down:

* **Correctness of the storage primitives** — tombstoned deletes never
  resurrect or double-count rows (delete→insert→delete round trips,
  duplicate external ids), ``num_rows``/``raw_bytes`` stay in lockstep with
  an oracle scan, and :meth:`repro.vdms.segment.SegmentManager.compact`
  preserves the exact live ``(id, vector)`` multiset (hypothesis property).
* **Serving equivalence** — search results are bit-identical before and
  after :meth:`repro.vdms.collection.Collection.run_maintenance` for exact
  indexes (hypothesis property over random delete sets), and the healed
  collection stops brute-forcing sealed segments.
* **Policy plumbing** — ``maintenance_mode`` and
  ``compaction_trigger_ratio`` drive when compaction and incremental
  re-indexing actually run, and the cost model charges them.
* **Lifetime** — an index that maintenance, a rebuild or a drop replaced is
  freed: a served collection holds one index per indexed segment, not one
  per build ever made.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vdms import (
    AttributeFilter,
    Collection,
    CostModel,
    MaintenanceReport,
    SearchRequest,
    SystemConfig,
    VectorDBServer,
)
from repro.vdms.index import INDEX_REGISTRY, FlatIndex, IVFFlatIndex
from repro.vdms.segment import SegmentManager, SegmentState

#: At this dimension the 64 MB / 0.25 segment config seals ~170-row
#: segments, so the default corpus yields several sealed segments per shard.
DIMENSION = 24
NUM_VECTORS = 1200
TOP_K = 8

SEGMENT_CONFIG = dict(segment_max_size=64, segment_seal_proportion=0.25, insert_buf_size=64)


def make_corpus(seed: int = 11, rows: int = NUM_VECTORS):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(rows, DIMENSION)).astype(np.float32)
    queries = rng.normal(size=(10, DIMENSION)).astype(np.float32)
    return vectors, queries


def make_collection(vectors, *, shard_num=2, index_type="FLAT", params=None, **config):
    merged = {**SEGMENT_CONFIG, **config}
    collection = Collection(
        "maint", DIMENSION, metric="l2", system_config=SystemConfig(shard_num=shard_num, **merged)
    )
    collection.insert(vectors)
    collection.flush()
    if index_type is not None:
        collection.create_index(index_type, params or {})
    return collection


def live_multiset(collection):
    """The (id -> vector) mapping a brute-force oracle over the collection sees."""
    pairs = {}
    for shard in collection.shards:
        for segment in shard.segments.segments:
            vectors, ids = segment.live_arrays()
            for row, row_id in enumerate(ids.tolist()):
                assert row_id not in pairs, "duplicate live id across segments"
                pairs[row_id] = vectors[row]
    return pairs


def unindexed_sealed_segments(collection):
    return [
        segment.segment_id
        for shard in collection.shards
        for segment in shard.segments.sealed_segments
        if segment.segment_id not in shard.indexes
    ]


class TestDeleteSemantics:
    """Satellite: pin down delete semantics for duplicate / re-inserted ids."""

    def test_delete_insert_delete_round_trip(self):
        vectors, _ = make_corpus()
        collection = make_collection(vectors)
        assert collection.delete(np.array([7])) == 1
        assert collection.num_rows == NUM_VECTORS - 1
        collection.insert(vectors[7:8], ids=np.array([7]))
        collection.flush()
        assert collection.num_rows == NUM_VECTORS
        # The second delete removes the re-inserted copy — exactly once.
        assert collection.delete(np.array([7])) == 1
        assert collection.num_rows == NUM_VECTORS - 1
        # The tombstoned original is never resurrected or double-counted.
        assert collection.delete(np.array([7])) == 0
        assert collection.num_rows == NUM_VECTORS - 1

    def test_duplicate_external_ids_delete_every_copy(self):
        vectors, _ = make_corpus(rows=64)
        collection = Collection(
            "dups", DIMENSION, metric="l2",
            system_config=SystemConfig(**SEGMENT_CONFIG),
        )
        ids = np.arange(64, dtype=np.int64)
        collection.insert(vectors, ids=ids)
        collection.insert(vectors[:5], ids=ids[:5])  # 5 duplicate external ids
        collection.flush()
        assert collection.num_rows == 69
        assert collection.delete(np.array([0, 1, 2, 3, 4])) == 10
        assert collection.num_rows == 59

    def test_compaction_does_not_resurrect_tombstoned_rows(self):
        vectors, queries = make_corpus()
        collection = make_collection(vectors)
        doomed = np.arange(0, 200, dtype=np.int64)
        collection.delete(doomed)
        collection.run_maintenance()
        result = collection.search(queries, TOP_K)
        assert not np.isin(result.ids, doomed).any()
        assert collection.num_rows == NUM_VECTORS - 200

    def test_num_rows_and_raw_bytes_agree_with_oracle_after_interleavings(self):
        vectors, _ = make_corpus()
        collection = make_collection(vectors, index_type="FLAT")
        rng = np.random.default_rng(3)
        alive = set(range(NUM_VECTORS))
        next_id = NUM_VECTORS
        for step in range(6):
            doomed = rng.choice(sorted(alive), size=40, replace=False)
            collection.delete(doomed)
            alive -= set(int(d) for d in doomed)
            fresh = rng.normal(size=(25, DIMENSION)).astype(np.float32)
            fresh_ids = np.arange(next_id, next_id + 25, dtype=np.int64)
            collection.insert(fresh, ids=fresh_ids)
            collection.flush()
            alive |= set(fresh_ids.tolist())
            next_id += 25
            if step % 2:
                collection.run_maintenance()
            assert collection.num_rows == len(alive)
            assert set(live_multiset(collection)) == alive
        # Physical bytes always equal live rows plus the tombstones still
        # awaiting compaction — storage never leaks rows in either direction.
        collection.run_maintenance()
        profile = collection.profile()
        assert profile.total_rows == len(alive)
        expected_bytes = (len(alive) + profile.tombstone_rows) * (DIMENSION * 4 + 8)
        assert sum(s.segments.raw_bytes() for s in collection.shards) == expected_bytes


class TestCompactionPrimitive:
    def test_compaction_reclaims_tombstones_and_memory(self):
        vectors, _ = make_corpus()
        collection = make_collection(vectors)
        bytes_before = collection.profile().raw_bytes
        collection.delete(np.arange(0, 320, dtype=np.int64))
        # Tombstoned rows still occupy storage until maintenance runs.
        assert collection.profile().raw_bytes == bytes_before
        assert collection.profile().tombstone_rows > 0
        report = collection.run_maintenance()
        assert report.rows_dropped > 0
        assert collection.profile().raw_bytes < bytes_before
        assert collection.profile().tombstone_rows == 0

    def test_trigger_ratio_gates_compaction_but_not_reindexing(self):
        vectors, queries = make_corpus()
        # A trigger ratio no realistic delete set reaches.
        collection = make_collection(vectors, compaction_trigger_ratio=0.99)
        doomed = collection.shards[0].segments.sealed_segments[0].ids[:4]
        collection.delete(doomed)
        assert unindexed_sealed_segments(collection)
        report = collection.run_maintenance()
        # Nothing compacted (below trigger), but the invalidated segment was
        # incrementally re-indexed over its live rows — the cliff is healed.
        assert report.segments_compacted == 0
        assert report.segments_reindexed >= 1
        assert not unindexed_sealed_segments(collection)
        result = collection.search(queries, TOP_K)
        assert not np.isin(result.ids, doomed).any()

    def test_undersized_segments_merge_to_fewer(self):
        config = SystemConfig(**SEGMENT_CONFIG)
        manager = SegmentManager(dimension=DIMENSION, system_config=config)
        target = config.sealed_segment_rows(DIMENSION)
        rng = np.random.default_rng(0)
        # Hand-seal several undersized segments.
        for start in range(4):
            rows = max(2, target // 4)
            manager._segments.append(
                manager._new_segment(
                    rng.normal(size=(rows, DIMENSION)).astype(np.float32),
                    np.arange(start * 1000, start * 1000 + rows, dtype=np.int64),
                    SegmentState.SEALED,
                )
            )
        before = {s.segment_id: dict(zip(s.ids.tolist(), map(tuple, s.vectors))) for s in manager.segments}
        result = manager.compact()
        assert result.did_work
        assert len(manager.sealed_segments) < 4
        merged = {}
        for segment in manager.segments:
            merged.update(dict(zip(segment.ids.tolist(), map(tuple, segment.vectors))))
        original = {}
        for mapping in before.values():
            original.update(mapping)
        assert merged == original

    def test_lone_undersized_tail_is_left_alone(self):
        config = SystemConfig(**SEGMENT_CONFIG)
        manager = SegmentManager(dimension=DIMENSION, system_config=config)
        rng = np.random.default_rng(1)
        manager._segments.append(
            manager._new_segment(
                rng.normal(size=(4, DIMENSION)).astype(np.float32),
                np.arange(4, dtype=np.int64),
                SegmentState.SEALED,
            )
        )
        assert not manager.compact().did_work
        # Repeated passes converge: still nothing to do.
        assert not manager.compact().did_work

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        delete_fraction=st.floats(0.0, 0.9),
        trigger=st.floats(0.05, 0.95),
    )
    def test_compaction_preserves_live_multiset(self, seed, delete_fraction, trigger):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(60, 240))
        vectors = rng.normal(size=(rows, DIMENSION)).astype(np.float32)
        config = SystemConfig(compaction_trigger_ratio=trigger, **SEGMENT_CONFIG)
        manager = SegmentManager(dimension=DIMENSION, system_config=config)
        manager.insert(vectors, np.arange(rows, dtype=np.int64))
        manager.flush()
        doomed = rng.choice(rows, size=int(delete_fraction * rows), replace=False)
        manager.delete(doomed.astype(np.int64))

        def snapshot(m):
            pairs = {}
            for segment in m.segments:
                seg_vectors, seg_ids = segment.live_arrays()
                pairs.update(zip(seg_ids.tolist(), map(tuple, seg_vectors.tolist())))
            return pairs

        before = snapshot(manager)
        manager.compact()
        after = snapshot(manager)
        assert after == before
        assert manager.num_rows == rows - len(set(doomed.tolist()))


class TestServingEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1_000), shard_num=st.sampled_from([1, 2, 4]))
    def test_search_bit_identical_before_and_after_maintenance(self, seed, shard_num):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(720, DIMENSION)).astype(np.float32)
        queries = rng.normal(size=(6, DIMENSION)).astype(np.float32)
        collection = make_collection(vectors, shard_num=shard_num)
        doomed = rng.choice(720, size=int(rng.integers(10, 300)), replace=False).astype(np.int64)
        collection.delete(doomed)
        before = collection.search(queries, TOP_K)
        collection.run_maintenance()
        after = collection.search(queries, TOP_K)
        assert np.array_equal(before.ids, after.ids)
        assert np.allclose(before.distances, after.distances, rtol=1e-6, atol=1e-6)

    def test_maintenance_heals_the_brute_force_cliff(self):
        vectors, queries = make_corpus()
        collection = make_collection(vectors, shard_num=2)
        collection.delete(np.arange(0, 300, dtype=np.int64))
        degraded = collection.search(queries, TOP_K)
        collection.run_maintenance()
        assert not unindexed_sealed_segments(collection)
        healed = collection.search(queries, TOP_K)
        # Identical service, far less counted scan work (FLAT indexes count
        # the same distances, so compare segments brute-forced instead).
        assert np.array_equal(degraded.ids, healed.ids)
        for shard in collection.shards:
            growing = {segment.segment_id for segment in shard.segments.growing_segments}
            views = shard.snapshot(collection.metric)
            assert all(view.indexed or view.segment_id in growing for view in views)

    def test_incremental_reindex_keeps_untouched_indexes(self):
        vectors, _ = make_corpus()
        collection = make_collection(vectors, shard_num=1, index_type="IVF_FLAT",
                                     params={"nlist": 8, "nprobe": 8})
        shard = collection.shards[0]
        sealed = shard.segments.sealed_segments
        assert len(sealed) >= 2
        untouched = sealed[-1]
        untouched_index = shard.indexes[untouched.segment_id]
        collection.delete(sealed[0].ids[: sealed[0].num_rows // 2])
        report = collection.run_maintenance()
        assert report.did_work
        # The untouched segment kept the very same index object: maintenance
        # is incremental, never a full-collection rebuild.
        assert shard.indexes[untouched.segment_id] is untouched_index


class TestMaintenanceModes:
    def test_off_mode_leaves_the_cliff(self):
        vectors, _ = make_corpus()
        collection = make_collection(vectors)  # maintenance_mode defaults to off
        collection.delete(np.arange(0, 200, dtype=np.int64))
        assert unindexed_sealed_segments(collection)

    def test_inline_mode_heals_on_the_mutating_call(self):
        vectors, _ = make_corpus()
        collection = make_collection(
            vectors, maintenance_mode="inline", compaction_trigger_ratio=0.05
        )
        collection.delete(np.arange(0, 200, dtype=np.int64))
        assert not unindexed_sealed_segments(collection)
        assert collection.profile().tombstone_rows == 0

    def test_background_mode_heals_asynchronously(self):
        vectors, _ = make_corpus()
        collection = make_collection(
            vectors, maintenance_mode="background", compaction_trigger_ratio=0.05
        )
        try:
            collection.delete(np.arange(0, 200, dtype=np.int64))
            worker = collection.maintenance_worker
            assert worker is not None and worker.is_alive
            worker.join_idle(timeout=10.0)
            assert not unindexed_sealed_segments(collection)
        finally:
            collection.stop_maintenance()
        assert collection.maintenance_worker is None

    def test_stop_joins_the_worker_thread(self):
        vectors, _ = make_corpus()
        collection = make_collection(
            vectors, maintenance_mode="background", compaction_trigger_ratio=0.05
        )
        try:
            collection.delete(np.arange(0, 200, dtype=np.int64))
            worker = collection.maintenance_worker
            assert worker is not None and worker.is_alive
            worker.stop()
            assert not worker.is_alive
        finally:
            collection.stop_maintenance()

    def test_auto_maintenance_false_never_triggers(self):
        vectors, _ = make_corpus()
        collection = Collection(
            "manual", DIMENSION, metric="l2",
            system_config=SystemConfig(maintenance_mode="inline", **SEGMENT_CONFIG),
            auto_maintenance=False,
        )
        collection.insert(vectors)
        collection.flush()
        collection.create_index("FLAT")
        collection.delete(np.arange(0, 200, dtype=np.int64))
        assert unindexed_sealed_segments(collection)
        assert collection.maintenance_worker is None


def index_census() -> Counter:
    """Every index object alive in the process, counted by concrete type."""
    gc.collect()
    index_types = set(INDEX_REGISTRY.values())
    return Counter(type(obj) for obj in gc.get_objects() if type(obj) in index_types)


def built_indexes(collection):
    return [index for shard in collection.shards for index in shard.indexes.values()]


def reachable_indexes(collection) -> Counter:
    """What a collection is entitled to hold: one built index per indexed
    segment, plus the exact FLAT view a segment caches once it was searched
    (or recovered) unindexed."""
    return Counter(
        {
            IVFFlatIndex: len(built_indexes(collection)),
            FlatIndex: sum(
                segment._exact_cache is not None
                for shard in collection.shards
                for segment in shard.segments.segments
            ),
        }
    )


class TestIndexLifetime:
    """Nothing outlives its segment on a server-owned collection under churn."""

    def test_replaced_indexes_are_freed(self):
        baseline = index_census()
        vectors, queries = make_corpus()
        server = VectorDBServer(
            SystemConfig(
                shard_num=2,
                maintenance_mode="inline",
                compaction_trigger_ratio=0.05,
                **SEGMENT_CONFIG,
            )
        )
        collection = server.create_collection("churn", DIMENSION, "l2")
        collection.insert(vectors[:800])
        collection.flush()
        params = {"nlist": 8, "nprobe": 4}
        collection.create_index("IVF_FLAT", params)

        seen = [weakref.ref(index) for index in built_indexes(collection)]
        first_generation = len(seen)
        assert first_generation >= 4
        for cycle in range(3):
            start = 800 + 100 * cycle
            collection.insert(vectors[start : start + 100])
            collection.flush()
            # Touches every sealed segment: each index is invalidated and the
            # inline pass rebuilds it.
            collection.delete(np.arange(cycle, start, 9, dtype=np.int64))
            assert not unindexed_sealed_segments(collection)
            collection.search(queries, TOP_K)
            seen.extend(weakref.ref(index) for index in built_indexes(collection))

        gc.collect()
        current = {id(index) for index in built_indexes(collection)}
        survivors = [ref for ref in seen if ref() is not None]
        assert all(id(ref()) in current for ref in survivors)
        assert len(seen) - len(survivors) >= first_generation
        assert index_census() - baseline == reachable_indexes(collection)

        collection.create_index("IVF_FLAT", {"nlist": 4, "nprobe": 4})
        collection.create_index("IVF_FLAT", params)
        assert index_census() - baseline == reachable_indexes(collection)

        server.drop_collection("churn")
        del collection
        assert index_census() - baseline == Counter()

    def test_searches_free_replaced_indexes_without_the_collector(self):
        # The census above, with the cyclic collector off.  A search that left
        # its indexes in a reference cycle (a recursive closure over a run,
        # say) would keep every index churn replaces alive until the collector
        # happened to run; reference counting alone must free them.
        baseline = index_census()
        vectors, queries = make_corpus()
        categories = np.arange(vectors.shape[0]) % 4
        filtered = SearchRequest(
            queries, TOP_K, filter=AttributeFilter("cat", "eq", 1), filter_strategy="pre"
        )
        server = VectorDBServer(
            SystemConfig(
                shard_num=2,
                maintenance_mode="inline",
                compaction_trigger_ratio=0.05,
                **SEGMENT_CONFIG,
            )
        )
        gc.disable()
        try:
            collection = server.create_collection("churn", DIMENSION, "l2")
            collection.insert(vectors[:800], attributes={"cat": categories[:800]})
            collection.flush()
            collection.create_index("IVF_FLAT", {"nlist": 8, "nprobe": 4})
            for cycle in range(3):
                # Every shard's IVF_FLAT segments are answered as one run.
                assert all(
                    sum(type(index) is IVFFlatIndex for index in shard.indexes.values()) > 1
                    for shard in collection.shards
                )
                collection.search(queries, TOP_K)
                collection.search(filtered)
                start = 800 + 100 * cycle
                rows = slice(start, start + 100)
                collection.insert(vectors[rows], attributes={"cat": categories[rows]})
                collection.flush()
                collection.delete(np.arange(cycle, start, 9, dtype=np.int64))
            collection.search(queries, TOP_K)
            collection.search(filtered)
            uncollected = Counter(
                type(obj) for obj in gc.get_objects() if type(obj) in set(INDEX_REGISTRY.values())
            )
            assert uncollected - baseline == reachable_indexes(collection)
        finally:
            gc.enable()


class TestCostModelCharges:
    def make_report(self):
        report = MaintenanceReport()
        report.segments_compacted = 2
        report.segments_created = 1
        report.rows_dropped = 100
        report.rows_rewritten = 300
        report.segments_reindexed = 3
        return report

    def profile(self):
        from repro.vdms.cost_model import CollectionProfile

        return CollectionProfile(
            dimension=DIMENSION, total_rows=500, sealed_segments=4,
            growing_rows=20, raw_bytes=10_000, index_bytes=2_000, tombstone_rows=0,
        )

    def test_noop_pass_costs_nothing(self):
        model = CostModel(SystemConfig(maintenance_mode="inline"))
        assert model.maintenance_seconds(None, self.profile()) == 0.0
        assert model.maintenance_seconds(MaintenanceReport(), self.profile()) == 0.0

    def test_inline_charges_more_than_background(self):
        report = self.make_report()
        inline = CostModel(SystemConfig(maintenance_mode="inline"))
        background = CostModel(SystemConfig(maintenance_mode="background"))
        inline_cost = inline.maintenance_seconds(report, self.profile())
        background_cost = background.maintenance_seconds(report, self.profile())
        assert inline_cost > background_cost > 0.0
        assert background_cost == pytest.approx(
            inline_cost * CostModel.MAINTENANCE_BACKGROUND_DUTY
        )

    def test_maintenance_is_cheaper_than_a_full_rebuild(self):
        report = self.make_report()
        model = CostModel(SystemConfig(maintenance_mode="inline"))
        assert model.maintenance_seconds(report, self.profile()) < model.build_seconds(
            [], self.profile()
        )
