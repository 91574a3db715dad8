"""Unit tests for the workload replayer and EvaluationResult."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import default_configuration
from repro.vdms.durability import CrashPointFS
from repro.vdms.server import VectorDBServer
from repro.vdms.system_config import SystemConfig
from repro.workloads.dynamic import DataChurnEvent, make_filtered_workload
from repro.workloads.replay import EvaluationResult, WorkloadReplayer
from repro.workloads.workload import SearchWorkload


@pytest.fixture()
def replayer(tiny_dataset):
    return WorkloadReplayer(tiny_dataset)


class TestWorkloadReplayer:
    def test_replay_default_configuration(self, replayer, milvus_space):
        configuration = default_configuration(milvus_space)
        result = replayer.replay(configuration)
        assert result.qps > 0
        assert 0.0 <= result.recall <= 1.0
        assert result.memory_gib > 0
        assert result.replay_seconds >= result.build_seconds
        assert result.configuration["index_type"] == "AUTOINDEX"

    def test_replay_is_deterministic(self, replayer, milvus_space):
        configuration = default_configuration(milvus_space, index_type="IVF_FLAT")
        first = replayer.replay(configuration)
        second = replayer.replay(configuration)
        assert first.qps == second.qps
        assert first.recall == second.recall

    @pytest.mark.parametrize("index_type", ["FLAT", "IVF_SQ8", "SCANN"])
    def test_replay_every_index_type(self, replayer, milvus_space, index_type):
        result = replayer.replay(default_configuration(milvus_space, index_type=index_type))
        assert result.qps > 0

    def test_flat_has_perfect_recall(self, replayer, milvus_space):
        result = replayer.replay(default_configuration(milvus_space, index_type="FLAT"))
        assert result.recall == pytest.approx(1.0)

    def test_index_type_with_trailing_underscore_is_normalized(self, replayer, milvus_space):
        values = default_configuration(milvus_space, index_type="FLAT").to_dict()
        values["index_type"] = "FLAT"
        result = replayer.replay({**values, "index_type": "FLAT"})
        assert result.configuration["index_type"] == "FLAT"


def zipf_workload(dataset, *, pools: int = 3) -> SearchWorkload:
    """Zipf(1.1) traffic over the dataset's query pool, ``pools`` pools long."""
    base = SearchWorkload.from_dataset(dataset)
    return replace(base, popularity_skew=1.1, popularity_requests=pools * base.num_queries)


def cached(space, **overrides):
    """An IVF_FLAT configuration on the per-request path, the LRU cache on."""
    values = {"search_threads": 4, "cache_policy": "lru", "cache_capacity": 1024, **overrides}
    return default_configuration(space, index_type="IVF_FLAT").to_dict() | values


class TestCachedReplay:
    """A cache-on replay is the per-request replay through the collection's own cache."""

    def test_zipf_stream_hits_without_changing_what_is_served(
        self, tiny_dataset, milvus_space, monkeypatch
    ):
        workload = zipf_workload(tiny_dataset)
        replayer = WorkloadReplayer(tiny_dataset, workload)
        served_ids = []
        run = replayer._scheduler.run

        def recording_run(search_fn, request):
            result, trace = run(search_fn, request)
            served_ids.append(result.ids)
            return result, trace

        monkeypatch.setattr(replayer._scheduler, "run", recording_run)
        on = replayer.replay(cached(milvus_space))
        off = replayer.replay(cached(milvus_space, cache_policy="none"))

        requests = workload.popularity_requests
        assert on.breakdown["cache_hits"] + on.breakdown["cache_misses"] == requests
        assert on.breakdown["cache_hits"] > 0
        assert on.breakdown["cache_hit_ratio"] == on.breakdown["cache_hits"] / requests
        assert "cache_hits" not in off.breakdown
        assert on.recall == off.recall
        np.testing.assert_array_equal(*served_ids)
        assert on.qps > off.qps

    def test_capacity_below_the_hot_set_re_misses(self, tiny_dataset, milvus_space):
        workload = zipf_workload(tiny_dataset)
        replayer = WorkloadReplayer(tiny_dataset, workload)
        small = replayer.replay(cached(milvus_space, cache_capacity=2))
        large = replayer.replay(cached(milvus_space))
        distinct = np.unique(workload.popularity_indices(workload.popularity_requests)).size
        # Large enough to keep every entry: each distinct request misses once.
        assert large.breakdown["cache_misses"] == distinct
        # Two entries: evicted hot queries miss again and pay the scan again.
        assert small.breakdown["cache_misses"] > distinct
        assert 0.0 < small.breakdown["cache_hit_ratio"] < large.breakdown["cache_hit_ratio"]
        assert small.recall == large.recall
        assert small.qps < large.qps

    @pytest.mark.parametrize("capacity", [2, 1024])
    def test_filtered_stream_scans_the_predicate_once(self, tiny_dataset, milvus_space, capacity):
        dataset, workload = make_filtered_workload(
            tiny_dataset, zipf_workload(tiny_dataset), 0.3, np.random.default_rng(0)
        )
        replayer = WorkloadReplayer(dataset, workload)
        on = replayer.replay(cached(milvus_space, cache_capacity=capacity))
        off = replayer.replay(cached(milvus_space, cache_policy="none"))
        # Plan tier: the first miss builds the allow-masks (one pass over the
        # corpus); every later miss, however many there are, reuses them.
        assert on.breakdown["cache_misses"] > 1
        assert on.breakdown["filter_rows_scanned"] == dataset.num_vectors
        assert off.breakdown["filter_rows_scanned"] == (
            workload.popularity_requests * dataset.num_vectors
        )
        assert on.recall == off.recall

    @pytest.mark.parametrize("search_threads", [1, 4])
    def test_uniform_stream_never_hits(self, tiny_dataset, milvus_space, search_threads):
        replayer = WorkloadReplayer(tiny_dataset)
        on = replayer.replay(cached(milvus_space, search_threads=search_threads))
        assert on.breakdown["cache_hits"] == 0
        assert on.breakdown["cache_misses"] == replayer.workload.num_queries
        assert on.breakdown["cache_hit_ratio"] == 0.0
        assert on.breakdown["scheduled_requests"] == replayer.workload.num_queries


class TestDurabilityAccounting:
    """The replayer's hand-counted WAL traffic equals what a durable server logs.

    The replay collection is in-memory, so ``replay()`` charges durability
    from arithmetic over the operations it performs; here the same operations
    run against a server with a (in-memory, fsync-tracking) data directory.
    """

    @pytest.fixture(scope="class")
    def churn(self, tiny_dataset):
        workload = SearchWorkload.from_dataset(tiny_dataset)
        event = DataChurnEvent(at_step=2, severity=0.5)
        return event.apply_with_plan(tiny_dataset, workload, np.random.default_rng(0))

    @pytest.mark.parametrize("churned", [False, True], ids=["static", "churn"])
    @pytest.mark.parametrize("maintenance_mode", ["off", "inline"])
    @pytest.mark.parametrize("wal_sync_policy", ["always", "batch"])
    @pytest.mark.parametrize("durability_mode", ["wal", "wal+checkpoint"])
    def test_breakdown_matches_a_durable_server(
        self, tiny_dataset, milvus_space, churn, durability_mode, wal_sync_policy,
        maintenance_mode, churned,
    ):
        configuration = default_configuration(milvus_space, index_type="FLAT").to_dict() | {
            "durability_mode": durability_mode,
            "wal_sync_policy": wal_sync_policy,
            "maintenance_mode": maintenance_mode,
        }
        dataset, workload, row_ids, plan = churn if churned else (tiny_dataset, None, None, None)
        breakdown = WorkloadReplayer(
            dataset, workload, mutations=plan, row_ids=row_ids
        ).replay(configuration).breakdown

        server = VectorDBServer(
            SystemConfig.from_mapping(configuration), data_dir="/data", filesystem=CrashPointFS()
        )
        collection = server.create_collection(
            "tuning", dataset.dimension, metric=dataset.metric, auto_maintenance=False
        )
        if plan is None:
            collection.insert(dataset.vectors)
        else:
            collection.insert(plan.base_vectors, ids=plan.base_ids)
        collection.flush()
        collection.create_index("FLAT", {})
        if plan is not None:
            collection.delete(plan.delete_ids)
            collection.insert(plan.insert_vectors, ids=plan.insert_ids)
            collection.flush()
            if maintenance_mode != "off":
                collection.run_maintenance()

        logged = collection.durability.stats
        assert breakdown["wal_records"] == logged.records_appended
        assert breakdown["wal_rows_logged"] == logged.rows_logged
        assert breakdown["wal_fsyncs"] == logged.fsyncs
        assert breakdown["checkpoints"] == logged.checkpoints


class TestEvaluationResult:
    def test_cost_effectiveness(self):
        result = EvaluationResult(
            qps=1000.0, recall=0.9, memory_gib=4.0, latency_ms=1.0,
            build_seconds=10.0, replay_seconds=20.0,
        )
        assert result.cost_effectiveness == pytest.approx(250.0)

    def test_cost_effectiveness_with_zero_memory(self):
        result = EvaluationResult(
            qps=1000.0, recall=0.9, memory_gib=0.0, latency_ms=1.0,
            build_seconds=10.0, replay_seconds=20.0,
        )
        assert result.cost_effectiveness == 0.0

    def test_objective_values_selects_metric(self):
        result = EvaluationResult(
            qps=1000.0, recall=0.9, memory_gib=2.0, latency_ms=1.0,
            build_seconds=10.0, replay_seconds=20.0,
        )
        assert result.objective_values("qps") == (1000.0, 0.9)
        assert result.objective_values("qp$") == (500.0, 0.9)
        with pytest.raises(ValueError):
            result.objective_values("latency")
