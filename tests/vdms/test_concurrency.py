"""Concurrency stress suite for the sharded serving engine.

The scheduler owns no threads, so every test brings its own: searcher
threads that each call ``QueryScheduler().run`` against one shared
collection.  Four guarantees are pinned down:

* **No lost or duplicated queries** — the scheduler serves exactly one
  request per query, however many searchers run at once.
* **Deterministic results** — concurrent searchers all serve the answer a
  lone searcher serves (real thread scheduling may interleave arbitrarily;
  snapshots and per-call scratch must hide that completely), and a replay
  at ``search_threads in {1, 4, 8}`` is rerun-stable with one recall.
* **Thread-safe mutation** — ``Collection.delete`` racing against in-flight
  scheduled searches never corrupts a result: every response is a coherent
  snapshot (valid ids, correct shape), and once the deletes have landed a
  fresh search no longer serves the deleted rows.
* **Thread-safe durability** — WAL appends racing in-flight searches, and
  checkpoints racing inserts/deletes, never lose an acknowledged mutation,
  never tear the version counter, and never leave a batch half-applied:
  the directory recovered afterwards holds exactly the acknowledged rows.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.vdms import Collection, QueryScheduler, SystemConfig
from repro.vdms.durability import CrashPointFS
from repro.vdms.index.base import COUNTERS, SearchStats
from repro.workloads.replay import WorkloadReplayer
from tests.conftest import run_searchers

NUM_VECTORS = 900
NUM_QUERIES = 48
DIMENSION = 16
TOP_K = 10

SEARCH_THREADS = (1, 4, 8)


def build_collection(shard_num: int = 4) -> tuple[Collection, np.ndarray]:
    rng = np.random.default_rng(17)
    vectors = rng.normal(size=(NUM_VECTORS, DIMENSION)).astype(np.float32)
    queries = rng.normal(size=(NUM_QUERIES, DIMENSION)).astype(np.float32)
    config = SystemConfig(
        shard_num=shard_num, segment_max_size=64, segment_seal_proportion=0.25, insert_buf_size=64
    )
    collection = Collection("stress", DIMENSION, metric="l2", system_config=config)
    collection.insert(vectors)
    collection.flush()
    collection.create_index("FLAT")
    return collection, queries


def test_cross_request_accumulation_sums_every_counter():
    first = SearchStats(1, **{name: position + 1 for position, name in enumerate(COUNTERS)})
    second = SearchStats(2, **{name: 100 * (position + 1) for position, name in enumerate(COUNTERS)})
    total = SearchStats().accumulate(first).accumulate(second)
    assert dataclasses.asdict(total) == {
        "num_queries": 3,
        **{name: 201 * (position + 1) for position, name in enumerate(COUNTERS)},
    }
    np.testing.assert_array_equal(
        total.per_query, np.concatenate([first.per_query, second.per_query])
    )


def assert_one_answer(outcomes):
    """All searchers served the same ids and distances; returns that answer."""
    first = outcomes[0][0]
    for searcher, (result, _) in enumerate(outcomes):
        assert np.array_equal(result.ids, first.ids), f"searcher {searcher} diverged"
        assert np.array_equal(result.distances, first.distances)
    return first


class TestSchedulerDeterminism:
    def test_no_lost_or_duplicated_queries(self):
        collection, queries = build_collection()
        for result, trace in run_searchers(collection.search_many, queries, TOP_K, searchers=8):
            assert trace.num_requests == NUM_QUERIES
            assert len(trace.request_shard_stats) == NUM_QUERIES
            assert result.ids.shape == (NUM_QUERIES, TOP_K)
            assert result.stats.num_queries == NUM_QUERIES

    def test_concurrent_searchers_match_a_lone_searcher(self):
        collection, queries = build_collection()
        alone, _ = QueryScheduler().run(collection.search_many, queries, TOP_K)
        answer = assert_one_answer(
            run_searchers(collection.search_many, queries, TOP_K, searchers=8)
        )
        assert np.array_equal(answer.ids, alone.ids)
        assert np.array_equal(answer.distances, alone.distances)

    def test_replay_is_deterministic_for_every_thread_count(self):
        dataset = load_dataset("glove-small")
        replayer = WorkloadReplayer(dataset)
        params = {
            "index_type": "IVF_FLAT",
            "nlist": 32,
            "nprobe": 8,
            "segment_max_size": 125,
            "insert_buf_size": 64,
            "shard_num": 4,
        }
        recalls = {}
        for threads in SEARCH_THREADS:
            configured = dict(params, search_threads=threads)
            first = replayer.replay(configured)
            second = replayer.replay(configured)
            assert first == second, f"replay at search_threads={threads} not rerun-stable"
            recalls[threads] = first.recall
        # The served results (and therefore recall) do not depend on the
        # thread count, only the throughput accounting does.
        assert len(set(recalls.values())) == 1


class TestConcurrentDeletes:
    def test_delete_during_in_flight_searches(self):
        collection, queries = build_collection()
        doomed_universe = np.arange(0, NUM_VECTORS, 2, dtype=np.int64)  # delete every other row
        survivors = np.setdiff1d(np.arange(NUM_VECTORS, dtype=np.int64), doomed_universe)
        errors: list[Exception] = []
        stop = threading.Event()

        def hammer() -> None:
            try:
                while not stop.is_set():
                    result, trace = QueryScheduler().run(collection.search_many, queries, TOP_K)
                    assert result.ids.shape == (NUM_QUERIES, TOP_K)
                    assert len(trace.request_shard_stats) == trace.num_requests == NUM_QUERIES
                    valid = (result.ids >= -1) & (result.ids < NUM_VECTORS)
                    assert valid.all(), "search served an id outside the inserted universe"
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        searchers = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in searchers:
            thread.start()
        try:
            deleted = 0
            for start in range(0, doomed_universe.size, 50):
                deleted += collection.delete(doomed_universe[start : start + 50])
        finally:
            stop.set()
            for thread in searchers:
                thread.join(timeout=30)
        assert not errors, f"concurrent search failed: {errors[0]!r}"
        assert all(not thread.is_alive() for thread in searchers)
        assert deleted == doomed_universe.size
        assert collection.num_rows == survivors.size

        # After the dust settles, deleted rows are never served again and
        # the survivors are served exactly (brute force over de-indexed
        # segments keeps recall intact).
        result = collection.search(queries, TOP_K)
        assert not np.isin(result.ids, doomed_universe).any()
        assert np.isin(result.ids, survivors).all()

    def test_mutations_between_scheduled_batches_stay_coherent(self):
        collection, queries = build_collection(shard_num=2)

        def scheduled():
            return assert_one_answer(
                run_searchers(collection.search_many, queries, TOP_K, searchers=4)
            )

        before = scheduled()
        held_out = before.ids[0, 0]
        collection.delete(np.array([held_out]))
        after = scheduled()
        assert not (after.ids == held_out).any()
        # Re-indexing restores fully indexed serving with the same contract.
        collection.create_index("FLAT")
        reindexed = scheduled()
        assert np.array_equal(reindexed.ids, after.ids)

    def test_concurrent_searches_do_not_deadlock_with_reindex(self):
        collection, queries = build_collection(shard_num=2)
        errors: list[Exception] = []
        done = threading.Event()

        def reindex() -> None:
            try:
                for _ in range(5):
                    collection.create_index("FLAT")
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)
            finally:
                done.set()

        rebuilder = threading.Thread(target=reindex)
        rebuilder.start()
        while not done.is_set():
            for result, _ in run_searchers(collection.search_many, queries, TOP_K, searchers=4):
                assert result.ids.shape == (NUM_QUERIES, TOP_K)
        rebuilder.join(timeout=30)
        assert not rebuilder.is_alive()
        assert not errors


class TestSnapshotIsolation:
    def test_reconfiguring_search_params_does_not_touch_snapshotted_indexes(self):
        collection, queries = build_collection(shard_num=2)
        collection.create_index("IVF_FLAT", {"nlist": 8, "nprobe": 2})
        snapshots = [shard.snapshot(collection.metric) for shard in collection.shards]
        before = [view.index.nprobe for views in snapshots for view in views if view.indexed]
        # Both reconfiguration paths: explicit update and a cache-hit rebuild
        # with different search-time parameters.
        collection.set_search_params(nprobe=8)
        collection.create_index("IVF_FLAT", {"nlist": 8, "nprobe": 6})
        after = [view.index.nprobe for views in snapshots for view in views if view.indexed]
        assert after == before == [2] * len(before), (
            "in-flight snapshot saw a search-time parameter change"
        )
        # New snapshots serve under the new parameters.
        fresh = [index.nprobe for shard in collection.shards for index in shard.indexes.values()]
        assert fresh == [6] * len(fresh)
        result = collection.search(queries, TOP_K)
        assert result.ids.shape == (NUM_QUERIES, TOP_K)

    def test_mismatched_ids_length_raises_value_error(self):
        collection, _ = build_collection(shard_num=2)
        with pytest.raises(ValueError, match="ids must match"):
            collection.insert(
                np.zeros((5, DIMENSION), dtype=np.float32), ids=np.arange(3, dtype=np.int64)
            )


class TestMaintenanceConcurrency:
    """Maintenance racing in-flight searches and deletes stays coherent."""

    def test_maintenance_racing_searches_and_deletes(self):
        collection, queries = build_collection(shard_num=2)
        doomed_universe = np.arange(0, NUM_VECTORS, 3, dtype=np.int64)
        errors: list[Exception] = []
        stop = threading.Event()

        def hammer() -> None:
            try:
                while not stop.is_set():
                    result, trace = QueryScheduler().run(collection.search_many, queries, TOP_K)
                    assert result.ids.shape == (NUM_QUERIES, TOP_K)
                    assert len(trace.request_shard_stats) == trace.num_requests == NUM_QUERIES
                    valid = (result.ids >= -1) & (result.ids < NUM_VECTORS)
                    assert valid.all(), "search served an id outside the inserted universe"
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        def maintain() -> None:
            try:
                while not stop.is_set():
                    collection.run_maintenance()
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        searchers = [threading.Thread(target=hammer) for _ in range(8)]
        maintainer = threading.Thread(target=maintain)
        for thread in searchers:
            thread.start()
        maintainer.start()
        try:
            deleted = 0
            for start in range(0, doomed_universe.size, 40):
                deleted += collection.delete(doomed_universe[start : start + 40])
        finally:
            stop.set()
            for thread in searchers + [maintainer]:
                thread.join(timeout=30)
        assert not errors, f"maintenance race failed: {errors[0]!r}"
        assert deleted == doomed_universe.size

        # Once the dust settles a final pass heals every sealed segment and
        # the deleted rows stay gone.
        collection.run_maintenance()
        for shard in collection.shards:
            for segment in shard.segments.sealed_segments:
                assert segment.segment_id in shard.indexes
        result = collection.search(queries, TOP_K)
        assert not np.isin(result.ids, doomed_universe).any()

    def test_cached_searches_racing_deletes_never_serve_tombstones(self):
        """Cache-enabled searches racing deletes + maintenance never return
        a deleted id once its delete has completed, and never tear a
        version read (every response is a coherent snapshot)."""
        rng = np.random.default_rng(23)
        vectors = rng.normal(size=(NUM_VECTORS, DIMENSION)).astype(np.float32)
        queries = rng.normal(size=(NUM_QUERIES, DIMENSION)).astype(np.float32)
        config = SystemConfig(
            shard_num=2, segment_max_size=64, segment_seal_proportion=0.25,
            insert_buf_size=64, cache_policy="lru", cache_capacity=256,
        )
        collection = Collection("cached", DIMENSION, metric="l2", system_config=config)
        collection.insert(vectors)
        collection.flush()
        collection.create_index("FLAT")

        confirmed_deleted: set[int] = set()
        deleted_lock = threading.Lock()
        errors: list[Exception] = []
        stop = threading.Event()

        def hammer() -> None:
            try:
                while not stop.is_set():
                    with deleted_lock:
                        gone_before = np.fromiter(confirmed_deleted, dtype=np.int64)
                    result, _ = QueryScheduler().run(collection.search_many, queries, TOP_K)
                    assert result.ids.shape == (NUM_QUERIES, TOP_K)
                    # Rows whose delete completed BEFORE this search began
                    # must never be served — cached or not.  (Rows deleted
                    # mid-flight may legitimately appear either way.)
                    stale = np.isin(result.ids, gone_before)
                    assert not stale.any(), (
                        f"cached search served tombstoned ids "
                        f"{result.ids[stale][:5].tolist()}"
                    )
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        def version_reader() -> None:
            # The version counter must be monotonic from any thread: a torn
            # or non-monotonic read would break the cache-key protocol.
            try:
                last = collection.version
                while not stop.is_set():
                    current = collection.version
                    assert current >= last, f"version went backwards: {current} < {last}"
                    last = current
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        searchers = [threading.Thread(target=hammer) for _ in range(8)]
        reader = threading.Thread(target=version_reader)
        for thread in searchers:
            thread.start()
        reader.start()
        try:
            for start in range(0, 600, 60):
                doomed = np.arange(start, start + 60, dtype=np.int64)
                collection.delete(doomed)
                with deleted_lock:
                    confirmed_deleted.update(doomed.tolist())
                if start % 120 == 0:
                    collection.run_maintenance()
        finally:
            stop.set()
            for thread in searchers + [reader]:
                thread.join(timeout=30)
        assert not errors, f"cached search race failed: {errors[0]!r}"
        assert all(not thread.is_alive() for thread in searchers + [reader])

        # Settled state: a cached hit and a cache-bypassed scan agree.
        cached = collection.search(queries, TOP_K)
        cached_again = collection.search(queries, TOP_K)
        fresh = collection.search(queries, TOP_K, use_cache=False)
        assert np.array_equal(cached_again.ids, fresh.ids)
        assert np.array_equal(cached.ids, fresh.ids)
        assert not np.isin(fresh.ids, np.arange(600)).any()
        assert collection.query_cache is not None
        assert collection.query_cache.stats.result_hits > 0

    def test_background_worker_racing_scheduled_searches(self):
        rng = np.random.default_rng(29)
        vectors = rng.normal(size=(NUM_VECTORS, DIMENSION)).astype(np.float32)
        queries = rng.normal(size=(NUM_QUERIES, DIMENSION)).astype(np.float32)
        config = SystemConfig(
            shard_num=2, segment_max_size=64, segment_seal_proportion=0.25,
            insert_buf_size=64, maintenance_mode="background",
            compaction_trigger_ratio=0.05,
        )
        collection = Collection("bg", DIMENSION, metric="l2", system_config=config)
        collection.insert(vectors)
        collection.flush()
        collection.create_index("FLAT")
        try:
            for start in range(0, 300, 60):
                collection.delete(np.arange(start, start + 60, dtype=np.int64))
                for result, _ in run_searchers(
                    collection.search_many, queries, TOP_K, searchers=4
                ):
                    assert result.ids.shape == (NUM_QUERIES, TOP_K)
            worker = collection.maintenance_worker
            assert worker is not None
            worker.join_idle(timeout=10.0)
            for shard in collection.shards:
                for segment in shard.segments.sealed_segments:
                    assert segment.segment_id in shard.indexes
            for final, _ in run_searchers(collection.search_many, queries, TOP_K, searchers=4):
                assert not np.isin(final.ids, np.arange(300)).any()
        finally:
            collection.stop_maintenance()


class TestDurabilityConcurrency:
    """The durability tier under concurrent load: WAL appends racing
    in-flight searches and checkpoints racing mutations.

    The judge is recovery itself: after the race, the data directory is
    recovered on a *fresh* filesystem view and must hold exactly the
    acknowledged row population — no lost acks, no half-applied batch.
    """

    def durable_collection(self, data_dir: str) -> tuple[CrashPointFS, Collection, np.ndarray]:
        fs = CrashPointFS()
        rng = np.random.default_rng(31)
        vectors = rng.normal(size=(NUM_VECTORS, DIMENSION)).astype(np.float32)
        queries = rng.normal(size=(NUM_QUERIES, DIMENSION)).astype(np.float32)
        config = SystemConfig(
            shard_num=2, segment_max_size=64, segment_seal_proportion=0.25,
            insert_buf_size=64, durability_mode="wal+checkpoint",
            wal_sync_policy="always",
        )
        collection = Collection(
            "durable-race", DIMENSION, metric="l2", system_config=config,
            data_dir=data_dir, filesystem=fs, auto_maintenance=False,
        )
        collection.insert(vectors)
        collection.flush()
        collection.create_index("FLAT")
        return fs, collection, queries

    @staticmethod
    def recovered_live_ids(fs: CrashPointFS, data_dir: str) -> np.ndarray:
        recovered = Collection.recover(data_dir, filesystem=fs, auto_maintenance=False)
        recovered.flush()
        chunks = [
            segment.live_ids
            for shard in recovered.shards
            for segment in shard.segments.segments
        ]
        recovered.close()
        return np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)

    def test_wal_appends_racing_in_flight_searches(self):
        data_dir = "/data/race-wal"
        fs, collection, queries = self.durable_collection(data_dir)
        errors: list[Exception] = []
        stop = threading.Event()

        def hammer() -> None:
            try:
                while not stop.is_set():
                    result, trace = QueryScheduler().run(collection.search_many, queries, TOP_K)
                    assert result.ids.shape == (NUM_QUERIES, TOP_K)
                    assert len(trace.request_shard_stats) == trace.num_requests == NUM_QUERIES
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        def version_reader() -> None:
            try:
                last = collection.version
                while not stop.is_set():
                    current = collection.version
                    assert current >= last, f"version went backwards: {current} < {last}"
                    last = current
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        # Two mutators over disjoint id ranges, so the acknowledged row
        # population is order-independent; their WAL appends interleave
        # freely under the collection lock.
        acked_live: list[set[int]] = [set(), set()]
        rng = np.random.default_rng(37)

        def mutate(slot: int, base: int) -> None:
            try:
                mine = acked_live[slot]
                for round_number in range(12):
                    start = base + round_number * 20
                    ids = np.arange(start, start + 20, dtype=np.int64)
                    collection.insert(
                        rng.normal(size=(20, DIMENSION)).astype(np.float32), ids=ids
                    )
                    mine.update(ids.tolist())  # acknowledged: must survive
                    if round_number % 3 == 2:
                        victims = np.array(sorted(mine)[:5], dtype=np.int64)
                        collection.delete(victims)
                        mine.difference_update(victims.tolist())
                    if round_number % 4 == 3:
                        collection.flush()
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        searchers = [threading.Thread(target=hammer) for _ in range(8)]
        reader = threading.Thread(target=version_reader)
        mutators = [
            threading.Thread(target=mutate, args=(0, NUM_VECTORS)),
            threading.Thread(target=mutate, args=(1, NUM_VECTORS + 10_000)),
        ]
        for thread in searchers + [reader]:
            thread.start()
        try:
            for thread in mutators:
                thread.start()
            for thread in mutators:
                thread.join(timeout=60)
        finally:
            stop.set()
            for thread in searchers + [reader]:
                thread.join(timeout=30)
        assert not errors, f"durable mutation race failed: {errors[0]!r}"
        assert all(not thread.is_alive() for thread in searchers + [reader] + mutators)

        collection.close()
        expected = set(range(NUM_VECTORS)) | acked_live[0] | acked_live[1]
        survivors = self.recovered_live_ids(fs, data_dir)
        assert set(survivors.tolist()) == expected, (
            "recovery after the race lost or resurrected acknowledged rows"
        )

    def test_checkpoints_racing_inserts_and_deletes(self):
        data_dir = "/data/race-ckpt"
        fs, collection, queries = self.durable_collection(data_dir)
        errors: list[Exception] = []
        stop = threading.Event()
        checkpoints_done = 0

        def checkpointer() -> None:
            nonlocal checkpoints_done
            try:
                while not stop.is_set():
                    report = collection.checkpoint()
                    assert report.generation > 0
                    checkpoints_done += 1
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        def hammer() -> None:
            try:
                while not stop.is_set():
                    result, _ = QueryScheduler().run(collection.search_many, queries, TOP_K)
                    assert result.ids.shape == (NUM_QUERIES, TOP_K)
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        runner = threading.Thread(target=checkpointer)
        searchers = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in [runner] + searchers:
            thread.start()
        acked: set[int] = set(range(NUM_VECTORS))
        rng = np.random.default_rng(41)
        try:
            for round_number in range(20):
                start = NUM_VECTORS + round_number * 25
                ids = np.arange(start, start + 25, dtype=np.int64)
                collection.insert(
                    rng.normal(size=(25, DIMENSION)).astype(np.float32), ids=ids
                )
                acked.update(ids.tolist())
                victims = np.array(sorted(acked)[: 10], dtype=np.int64)
                collection.delete(victims)
                acked.difference_update(victims.tolist())
        finally:
            stop.set()
            for thread in [runner] + searchers:
                thread.join(timeout=60)
        assert not errors, f"checkpoint race failed: {errors[0]!r}"
        assert checkpoints_done > 0
        assert collection.durability.generation == checkpoints_done

        collection.close()
        survivors = self.recovered_live_ids(fs, data_dir)
        assert set(survivors.tolist()) == acked, (
            "a checkpoint racing mutations lost or resurrected acknowledged rows"
        )
