"""Unit tests for the deterministic cost model."""

import pytest

from repro.vdms.cost_model import CollectionProfile, CostModel
from repro.vdms.index.base import BuildStats, SearchStats
from repro.vdms.system_config import SystemConfig


def make_profile(**overrides):
    values = dict(
        dimension=32,
        total_rows=4000,
        sealed_segments=4,
        growing_rows=100,
        raw_bytes=4000 * 32 * 4,
        index_bytes=200_000,
    )
    values.update(overrides)
    return CollectionProfile(**values)


def make_stats(**overrides):
    """A 50-query record from batch totals, spread evenly over the queries."""
    totals = dict(
        distance_evaluations=50 * 600,
        coarse_evaluations=50 * 128,
        code_evaluations=0,
        reorder_evaluations=0,
        graph_hops=0,
        segments_searched=50 * 4,
    )
    totals.update(overrides)
    return SearchStats(50, **{name: total // 50 for name, total in totals.items()})


class TestLatencyAndThroughput:
    def test_more_work_means_more_latency(self):
        model = CostModel(SystemConfig())
        light, _ = model.query_latency_microseconds(make_stats(), make_profile())
        heavy, _ = model.query_latency_microseconds(
            make_stats(distance_evaluations=50 * 6000), make_profile()
        )
        assert heavy > light

    def test_code_evaluations_cheaper_than_full(self):
        model = CostModel(SystemConfig())
        full, _ = model.query_latency_microseconds(
            make_stats(distance_evaluations=50 * 1000, code_evaluations=0), make_profile()
        )
        coded, _ = model.query_latency_microseconds(
            make_stats(distance_evaluations=0, code_evaluations=50 * 1000), make_profile()
        )
        assert coded < full

    def test_qps_inversely_proportional_to_latency(self):
        model = CostModel(SystemConfig())
        assert model.throughput_qps(1000.0, 10) > model.throughput_qps(2000.0, 10)

    def test_small_graceful_time_blocks_requests(self):
        fast = CostModel(SystemConfig(graceful_time=8000))
        blocked = CostModel(SystemConfig(graceful_time=0))
        profile = make_profile(growing_rows=400)
        fast_latency, _ = fast.query_latency_microseconds(make_stats(), profile)
        blocked_latency, blocked_breakdown = blocked.query_latency_microseconds(make_stats(), profile)
        assert blocked_latency > fast_latency
        assert blocked_breakdown["consistency_blocking"] > 0

    def test_blocking_grows_with_growing_rows(self):
        model = CostModel(SystemConfig(graceful_time=0))
        few, _ = model.query_latency_microseconds(make_stats(), make_profile(growing_rows=10))
        many, _ = model.query_latency_microseconds(make_stats(), make_profile(growing_rows=1000))
        assert many > few

    def test_more_segments_add_overhead(self):
        model = CostModel(SystemConfig())
        few, _ = model.query_latency_microseconds(
            make_stats(segments_searched=50 * 1), make_profile(sealed_segments=1)
        )
        many, _ = model.query_latency_microseconds(
            make_stats(segments_searched=50 * 12), make_profile(sealed_segments=12)
        )
        assert many > few

    def test_threads_speed_up_parallel_work_but_cut_concurrency(self):
        single = CostModel(SystemConfig(query_node_threads=1))
        multi = CostModel(SystemConfig(query_node_threads=8))
        stats, profile = make_stats(), make_profile()
        single_latency, _ = single.query_latency_microseconds(stats, profile)
        multi_latency, _ = multi.query_latency_microseconds(stats, profile)
        assert multi_latency < single_latency
        assert single.system_config.effective_concurrency(10) > multi.system_config.effective_concurrency(10)

    def test_chunk_rows_extremes_both_add_overhead(self):
        model_small = CostModel(SystemConfig(chunk_rows=512))
        model_large = CostModel(SystemConfig(chunk_rows=65_536))
        model_mid = CostModel(SystemConfig(chunk_rows=8_192))
        stats, profile = make_stats(), make_profile()
        latency_small, _ = model_small.query_latency_microseconds(stats, profile)
        latency_large, _ = model_large.query_latency_microseconds(stats, profile)
        latency_mid, _ = model_mid.query_latency_microseconds(stats, profile)
        assert latency_mid <= latency_small
        assert latency_mid <= latency_large


class TestMemoryAndBuild:
    def test_memory_grows_with_replicas(self):
        one = CostModel(SystemConfig(replica_number=1))
        four = CostModel(SystemConfig(replica_number=4))
        assert four.memory_gib(make_profile()) > one.memory_gib(make_profile())

    def test_memory_grows_with_insert_buffer(self):
        small = CostModel(SystemConfig(insert_buf_size=64))
        large = CostModel(SystemConfig(insert_buf_size=2048))
        assert large.memory_gib(make_profile()) > small.memory_gib(make_profile())

    def test_memory_grows_with_index_bytes(self):
        model = CostModel(SystemConfig())
        assert model.memory_gib(make_profile(index_bytes=5_000_000)) > model.memory_gib(
            make_profile(index_bytes=0)
        )

    def test_build_seconds_grow_with_build_work(self):
        model = CostModel(SystemConfig())
        cheap = model.build_seconds([BuildStats(distance_evaluations=1000)], make_profile())
        expensive = model.build_seconds([BuildStats(distance_evaluations=10_000_000)], make_profile())
        assert expensive > cheap
        assert cheap >= CostModel.BUILD_FIXED_SECONDS


class TestEvaluate:
    def test_report_fields_consistent(self):
        model = CostModel(SystemConfig())
        report = model.evaluate(make_stats(), make_profile(), [BuildStats()], recall=0.9, concurrency=10)
        assert report.qps > 0
        assert report.recall == pytest.approx(0.9)
        assert report.replay_seconds >= report.build_seconds
        assert not report.failed
        assert "full_scoring" in report.breakdown

    def test_excessive_replay_marks_failure(self):
        model = CostModel(SystemConfig())
        huge_build = [BuildStats(distance_evaluations=10_000_000_000)]
        report = model.evaluate(make_stats(), make_profile(), huge_build, recall=0.9)
        assert report.failed

    def test_deterministic(self):
        model = CostModel(SystemConfig())
        first = model.evaluate(make_stats(), make_profile(), [BuildStats()], recall=0.5)
        second = model.evaluate(make_stats(), make_profile(), [BuildStats()], recall=0.5)
        assert first.qps == second.qps
        assert first.memory_gib == second.memory_gib
