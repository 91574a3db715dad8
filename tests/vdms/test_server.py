"""Unit tests for the Milvus-like server facade."""

import threading

import numpy as np
import pytest

from repro.vdms.collection import Collection
from repro.vdms.errors import CollectionNotFoundError
from repro.vdms.server import VectorDBServer
from repro.vdms.system_config import SystemConfig
from tests.conftest import run_searchers


def _live_maintenance_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-maintenance") and thread.is_alive()
    ]


@pytest.fixture()
def vectors():
    return np.random.default_rng(0).normal(size=(300, 8)).astype(np.float32)


class TestCollections:
    def test_create_list_drop(self, vectors):
        server = VectorDBServer()
        server.create_collection("a", 8)
        server.create_collection("b", 8)
        assert server.list_collections() == ["a", "b"]
        assert server.has_collection("a")
        server.drop_collection("a")
        assert not server.has_collection("a")

    def test_get_missing_collection_raises(self):
        server = VectorDBServer()
        with pytest.raises(CollectionNotFoundError):
            server.get_collection("nope")

    def test_insert_flush_index_search_passthrough(self, vectors):
        server = VectorDBServer()
        server.create_collection("c", 8)
        assert server.insert("c", vectors) == 300
        server.flush("c")
        server.create_index("c", "IVF_FLAT", {"nlist": 16, "nprobe": 8})
        result = server.search("c", vectors[:5], 3)
        assert result.ids.shape == (5, 3)


class TestSystemConfig:
    def test_apply_system_config_drops_collections(self, vectors):
        server = VectorDBServer()
        server.create_collection("c", 8)
        server.apply_system_config({"segment_max_size": 128})
        assert not server.has_collection("c")
        assert server.system_config.segment_max_size == 128

    def test_apply_accepts_systemconfig_instance(self):
        server = VectorDBServer()
        config = SystemConfig(graceful_time=100)
        assert server.apply_system_config(config).graceful_time == 100

    def test_cost_model_uses_current_config(self):
        server = VectorDBServer()
        server.apply_system_config({"query_node_threads": 8})
        assert server.cost_model().system_config.query_node_threads == 8

    def test_new_collections_after_config_change_use_new_config(self, vectors):
        server = VectorDBServer()
        server.apply_system_config({"segment_max_size": 64, "segment_seal_proportion": 0.2})
        collection = server.create_collection("c", 8)
        collection.insert(vectors)
        collection.flush()
        many_segments = collection.num_sealed_segments
        server.apply_system_config({"segment_max_size": 2048, "segment_seal_proportion": 1.0})
        collection = server.create_collection("c", 8)
        collection.insert(vectors)
        collection.flush()
        assert collection.num_sealed_segments <= many_segments


#: 8-row sealed segments at d = 8: many small segments whose auto-assigned
#: id runs coincide between collections.
SMALL_SEGMENTS = {"segment_max_size": 1, "segment_seal_proportion": 0.05, "insert_buf_size": 1}

INDEX_PARAMS = {
    "FLAT": {},
    "IVF_FLAT": {"nlist": 4, "nprobe": 4},
    "HNSW": {"hnsw_m": 8, "ef_construction": 32, "ef_search": 32},
}


def _corpus(seed, rows=96, dimension=8):
    return np.random.default_rng(seed).normal(size=(rows, dimension)).astype(np.float32)


def _fill(collection, rows, index_type, params):
    collection.insert(rows)  # auto-assigned ids: 0 .. len(rows) - 1 in every collection
    collection.flush()
    collection.create_index(index_type, params)
    return collection


def _assert_serves_like_bare_collection(served, rows, index_type):
    """``served`` answers exactly like a bare ``Collection`` over the same rows."""
    bare = _fill(
        Collection("bare", served.dimension, served.metric, served.system_config),
        rows,
        index_type,
        INDEX_PARAMS[index_type],
    )
    queries = rows[::7]
    result, expected = served.search(queries, 3), bare.search(queries, 3)
    assert np.array_equal(result.ids, expected.ids)
    assert result.distances.tobytes() == expected.distances.tobytes()
    # A stored row finds itself (the probed lists / beam cover an 8-row segment).
    assert np.array_equal(result.ids[:, 0], np.arange(rows.shape[0])[::7])
    assert np.allclose(result.distances[:, 0], 0.0, atol=1e-6)


class TestTenantIsolation:
    """Collections of one server share nothing — not even a coinciding id run."""

    @pytest.fixture()
    def server(self):
        server = VectorDBServer()
        server.apply_system_config(SMALL_SEGMENTS)
        yield server
        server.shutdown()

    @staticmethod
    def _load(server, name, rows, metric, index_type):
        collection = server.create_collection(name, rows.shape[1], metric)
        return _fill(collection, rows, index_type, INDEX_PARAMS[index_type])

    @pytest.mark.parametrize("metric", ["l2", "angular"])
    @pytest.mark.parametrize("index_type", sorted(INDEX_PARAMS))
    @pytest.mark.parametrize(
        "other", [_corpus(2), _corpus(2, rows=48, dimension=16)], ids=["d8", "d16"]
    )
    def test_same_ids_different_vectors(self, server, other, index_type, metric):
        corpora = {"a": _corpus(1), "b": other}
        for name, rows in corpora.items():
            self._load(server, name, rows, metric, index_type)
        assert server.get_collection("a").num_sealed_segments >= 10
        for name, rows in corpora.items():
            _assert_serves_like_bare_collection(server.get_collection(name), rows, index_type)

    def test_replaced_collection_serves_the_new_vectors(self, server):
        self._load(server, "c", _corpus(1), "l2", "IVF_FLAT")
        replacement = _corpus(2)
        self._load(server, "c", replacement, "l2", "IVF_FLAT")
        _assert_serves_like_bare_collection(server.get_collection("c"), replacement, "IVF_FLAT")

    def test_rebuild_applies_every_build_parameter(self, server):
        collection = server.create_collection("c", 8, "l2")
        _fill(collection, _corpus(1), "IVF_SQ8", {"nlist": 4, "nprobe": 4})
        server.create_index("c", "IVF_SQ8", {"nlist": 2, "nprobe": 4})
        indexes = [index for shard in collection.shards for index in shard.indexes.values()]
        assert indexes
        assert all(index.nlist == 2 for index in indexes)
        assert all(index._centroids.shape[0] == 2 for index in indexes)


class TestConcurrentSearch:
    def test_concurrent_search_matches_batch_search(self, vectors):
        server = VectorDBServer()
        server.apply_system_config(
            {"shard_num": 2, "search_threads": 4, "segment_max_size": 64, "insert_buf_size": 64}
        )
        server.create_collection("c", 8)
        server.insert("c", vectors)
        server.flush("c")
        server.create_index("c", "FLAT")
        batch = server.search("c", vectors[:6], 3)
        for concurrent, trace in run_searchers(
            server.get_collection("c").search_many, vectors[:6], 3, searchers=4
        ):
            assert trace.num_requests == len(trace.request_shard_stats) == 6
            assert np.array_equal(concurrent.ids, batch.ids)
            # Per-request shard tasks feed the cost model's event simulation.
            assert all(len(stats) == 2 for stats in trace.request_shard_stats)
        qps, makespan = server.cost_model().concurrent_qps(
            trace.request_shard_stats,
            server.get_collection("c").profile(),
            workers=server.system_config.effective_search_workers(),
        )
        assert qps > 0 and makespan > 0


class TestSearchKwargForwarding:
    """The facade must forward search kwargs instead of silently dropping them."""

    @pytest.fixture()
    def cached_server(self, vectors):
        server = VectorDBServer()
        server.apply_system_config({"cache_policy": "lru", "cache_capacity": 64})
        server.create_collection("c", 8)
        server.insert("c", vectors)
        server.flush("c")
        yield server
        server.shutdown()

    def test_search_forwards_use_cache(self, cached_server, vectors):
        queries = vectors[:4]
        cached_server.search("c", queries, 3)
        hit = cached_server.search("c", queries, 3)
        assert hit.stats.cache_hits == 4  # the repeat is served from cache...
        bypass = cached_server.search("c", queries, 3, use_cache=False)
        assert bypass.stats.cache_hits == 0  # ...unless the caller opts out
        assert np.array_equal(bypass.ids, hit.ids)


class TestMaintenanceWorkerLifecycle:
    """Dropping or replacing a collection must stop its maintenance thread."""

    @pytest.fixture()
    def background_server(self, vectors):
        server = VectorDBServer()
        server.apply_system_config({"maintenance_mode": "background"})
        yield server
        server.shutdown()
        assert _live_maintenance_threads() == []

    def _spawn_worker(self, server, vectors, name="c"):
        collection = server.create_collection(name, 8)
        collection.insert(vectors)
        collection.flush()  # the flush mutation spawns the background worker
        assert collection.maintenance_worker is not None
        assert collection.maintenance_worker.is_alive
        return collection

    def test_drop_collection_stops_worker(self, background_server, vectors):
        self._spawn_worker(background_server, vectors)
        background_server.drop_collection("c")
        assert _live_maintenance_threads() == []

    def test_create_collection_replacement_stops_old_worker(
        self, background_server, vectors
    ):
        old = self._spawn_worker(background_server, vectors)
        old_worker = old.maintenance_worker
        replacement = background_server.create_collection("c", 8)
        assert background_server.get_collection("c") is replacement
        assert not old_worker.is_alive

    def test_apply_system_config_stops_workers(self, background_server, vectors):
        self._spawn_worker(background_server, vectors, "a")
        self._spawn_worker(background_server, vectors, "b")
        background_server.apply_system_config({"maintenance_mode": "background"})
        assert _live_maintenance_threads() == []

    def test_shutdown_stops_workers(self, vectors):
        server = VectorDBServer()
        server.apply_system_config({"maintenance_mode": "background"})
        self._spawn_worker(server, vectors)
        server.shutdown()
        assert _live_maintenance_threads() == []


class TestTenantConfigs:
    def test_tenant_override_applies_to_that_tenant_only(self):
        server = VectorDBServer()
        server.apply_system_config({"cache_policy": "lru", "cache_capacity": 16}, tenant="a")
        assert server.system_config_for("a").cache_policy == "lru"
        assert server.system_config_for("b").cache_policy == "none"
        assert server.system_config_for("a").cache_capacity == 16
        # The override is what new collections under that name are built with.
        collection = server.create_collection("a", 8)
        assert collection.query_cache is not None
        other = server.create_collection("b", 8)
        assert other.query_cache is None

    def test_apply_tenant_config_closes_only_that_tenants_collection(self, vectors):
        server = VectorDBServer()
        server.create_collection("a", 8)
        b = server.create_collection("b", 8)
        b.insert(vectors)
        b.flush()
        server.apply_system_config({"segment_max_size": 128}, tenant="a")
        assert not server.has_collection("a")
        # The other tenant keeps serving, data intact.
        assert server.has_collection("b")
        assert server.get_collection("b").num_rows == 300

    def test_tenant_config_overrides_snapshot(self):
        server = VectorDBServer()
        assert server.tenant_config_overrides() == {}
        server.apply_system_config({"graceful_time": 50}, tenant="a")
        overrides = server.tenant_config_overrides()
        assert set(overrides) == {"a"}
        assert overrides["a"].graceful_time == 50

    def test_drop_collection_clears_the_override(self):
        server = VectorDBServer()
        server.apply_system_config({"graceful_time": 50}, tenant="a")
        server.create_collection("a", 8)
        server.drop_collection("a")
        assert server.tenant_config_overrides() == {}
        assert server.system_config_for("a").graceful_time == (
            server.system_config.graceful_time
        )

    def test_cost_model_reflects_tenant_config(self):
        server = VectorDBServer()
        server.apply_system_config({"query_node_threads": 8}, tenant="a")
        assert server.cost_model(tenant="a").system_config.query_node_threads == 8
        assert server.cost_model().system_config.query_node_threads != 8 or (
            server.system_config.query_node_threads == 8
        )

    def test_durable_server_rejects_durability_off_override(self, tmp_path):
        server = VectorDBServer(
            SystemConfig(durability_mode="wal"), data_dir=str(tmp_path)
        )
        from repro.vdms.errors import DurabilityError

        with pytest.raises(DurabilityError):
            server.apply_system_config({"durability_mode": "off"}, tenant="a")
        server.shutdown()


class TestRecoverAll:
    """`recover_all` across several durable collections with mixed modes."""

    DIMENSION = 6

    def _durable_server(self, tmp_path):
        return VectorDBServer(
            SystemConfig(durability_mode="wal+checkpoint"), data_dir=str(tmp_path)
        )

    def _populate(self, server, rng):
        # Three tenants with different durability tiers and lifecycles:
        # alpha checkpoints, beta runs WAL-only via a tenant override, gamma
        # stays WAL-resident (its WAL tail gets torn below).
        server.apply_system_config({"durability_mode": "wal"}, tenant="beta")
        rows = {}
        for name, count in (("alpha", 50), ("beta", 35), ("gamma", 30)):
            collection = server.create_collection(name, self.DIMENSION, auto_maintenance=False)
            vectors = rng.normal(size=(count, self.DIMENSION)).astype(np.float32)
            collection.insert(vectors)
            collection.flush()
            rows[name] = count
        server.get_collection("alpha").checkpoint()
        # One more row lands in gamma's WAL only — the record the torn tail
        # will destroy.
        extra = rng.normal(size=(1, self.DIMENSION)).astype(np.float32)
        server.get_collection("gamma").insert(extra)
        return rows

    def test_recover_all_restores_every_collection(self, tmp_path):
        rng = np.random.default_rng(5)
        server = self._durable_server(tmp_path)
        rows = self._populate(server, rng)
        server.shutdown()

        # Tear gamma's WAL tail mid-frame, as a crash would.
        import os

        wal_dir = tmp_path / "gamma"
        wal_files = sorted(p for p in wal_dir.iterdir() if p.name.startswith("wal-"))
        assert wal_files, "gamma wrote no WAL"
        torn = wal_files[-1]
        size = torn.stat().st_size
        os.truncate(torn, size - 3)

        # A stray non-durable directory must not block startup.
        junk = tmp_path / "scratch"
        junk.mkdir()
        (junk / "notes.txt").write_text("not a collection")

        fresh = self._durable_server(tmp_path)
        assert fresh.recover_all() == ["alpha", "beta", "gamma"]

        alpha = fresh.get_collection("alpha")
        assert alpha.num_rows == rows["alpha"]
        assert alpha.recovery_report.segments_loaded > 0  # from the checkpoint

        beta = fresh.get_collection("beta")
        assert beta.num_rows == rows["beta"]
        assert beta.recovery_report.wal_records_replayed > 0

        gamma = fresh.get_collection("gamma")
        report = gamma.recovery_report
        assert report.wal_bytes_truncated > 0  # the torn frame was discarded
        # The unacked final row is gone; every acked (flushed) row survived.
        assert gamma.num_rows == rows["gamma"]

        # The recovered collections serve searches immediately.
        queries = rng.normal(size=(2, self.DIMENSION)).astype(np.float32)
        for name in ("alpha", "beta", "gamma"):
            collection = fresh.get_collection(name)
            collection.create_index("FLAT", {})
            result = collection.search(queries, 3)
            assert result.ids.shape == (2, 3)
        fresh.shutdown()

    def test_recover_all_requires_a_data_dir(self):
        from repro.vdms.errors import DurabilityError

        with pytest.raises(DurabilityError):
            VectorDBServer().recover_all()
