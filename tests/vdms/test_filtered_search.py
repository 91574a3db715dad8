"""Hybrid filtered search: the query planner, strategies and storage plumbing.

Four families of guarantees are pinned down:

* **Strategy equivalence** — on exact indexes, pre-filter and post-filter
  execution return bit-identical results for any filter (hypothesis
  property): post-filtering refills until it has ``top_k`` allowed rows or
  the index is exhausted, so the strategy only moves *work*, never results.
* **Filter ∘ compaction commutes** — a filtered search returns identical
  results before and after maintenance (compaction + incremental
  re-indexing): attribute columns ride through tombstones and segment
  rewrites (hypothesis property over random delete sets).
* **Under-full semantics** — a filter matching fewer than ``top_k`` live
  rows pads with id ``-1`` / distance ``inf`` bit-identically across
  unsharded, sharded {1, 2, 4} and maintenance-enabled paths.
* **Planner behaviour** — ``auto`` resolves pre vs post per segment at the
  documented selectivity threshold, forced strategies are obeyed,
  brute-forced segments always pre-filter, and the plan/filter stats
  surface the executed work.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vdms import (
    AttributeFilter,
    Collection,
    SearchRequest,
    SystemConfig,
)
from repro.vdms.request import AUTO_PRE_FILTER_SELECTIVITY, FilterStats, SearchPlan
from tests.conftest import run_searchers

DIMENSION = 16
NUM_VECTORS = 600
NUM_QUERIES = 8
TOP_K = 10

SEGMENT_CONFIG = dict(segment_max_size=64, segment_seal_proportion=0.25, insert_buf_size=64)


def make_corpus(seed: int = 3, rows: int = NUM_VECTORS):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(rows, DIMENSION)).astype(np.float32)
    queries = rng.normal(size=(NUM_QUERIES, DIMENSION)).astype(np.float32)
    tags = rng.integers(0, 1000, size=rows).astype(np.int64)
    return vectors, queries, tags


def make_collection(vectors, tags, *, shard_num=1, index_type="FLAT", **config):
    merged = {**SEGMENT_CONFIG, **config}
    collection = Collection(
        "filtered",
        DIMENSION,
        metric="l2",
        system_config=SystemConfig(shard_num=shard_num, **merged),
    )
    collection.insert(vectors, attributes={"tag": tags})
    collection.flush()
    collection.create_index(index_type, {"nlist": 8, "nprobe": 8})
    return collection


class TestAttributeFilter:
    def test_all_operators(self):
        column = {"tag": np.array([1, 5, 9, 5], dtype=np.int64)}
        assert AttributeFilter("tag", "eq", 5).mask(column).tolist() == [False, True, False, True]
        assert AttributeFilter("tag", "ne", 5).mask(column).tolist() == [True, False, True, False]
        assert AttributeFilter("tag", "lt", 5).mask(column).tolist() == [True, False, False, False]
        assert AttributeFilter("tag", "le", 5).mask(column).tolist() == [True, True, False, True]
        assert AttributeFilter("tag", "gt", 5).mask(column).tolist() == [False, False, True, False]
        assert AttributeFilter("tag", "ge", 5).mask(column).tolist() == [False, True, True, True]
        assert AttributeFilter("tag", "in", (1, 9)).mask(column).tolist() == [True, False, True, False]
        assert AttributeFilter("tag", "range", (5, 9)).mask(column).tolist() == [False, True, True, True]

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            AttributeFilter("tag", "like", 5)

    def test_missing_column_matches_nothing(self):
        column = {"other": np.array([1, 2], dtype=np.int64)}
        assert AttributeFilter("tag", "eq", 1).mask(column).tolist() == [False, False]

    def test_missing_value_sentinel_rejects_every_operator(self):
        from repro.vdms.request import ATTRIBUTE_MISSING

        column = {"tag": np.array([ATTRIBUTE_MISSING, 0], dtype=np.int64)}
        for op, value in [
            ("eq", ATTRIBUTE_MISSING), ("ne", 0), ("lt", 0), ("le", 0),
            ("in", (ATTRIBUTE_MISSING, 0)), ("range", (ATTRIBUTE_MISSING, 0)),
        ]:
            mask = AttributeFilter("tag", op, value).mask(column)
            assert not mask[0], f"missing value matched op {op!r}"

    def test_untagged_batch_rows_never_match_after_merge(self):
        # Two insert batches land in the same segments: one carries the
        # column, one does not.  The untagged rows must behave like NULLs —
        # rejected by every predicate, including eq-0 (the matching bucket
        # filtered workloads emit) — not silently zero-filled into matches.
        rng = np.random.default_rng(17)
        tagged = rng.normal(size=(120, DIMENSION)).astype(np.float32)
        untagged = rng.normal(size=(120, DIMENSION)).astype(np.float32)
        queries = rng.normal(size=(4, DIMENSION)).astype(np.float32)
        collection = Collection(
            "mixed", DIMENSION, metric="l2", system_config=SystemConfig(**SEGMENT_CONFIG)
        )
        collection.insert(
            tagged,
            ids=np.arange(120, dtype=np.int64),
            attributes={"tag": np.zeros(120, dtype=np.int64)},
        )
        collection.insert(untagged, ids=np.arange(120, 240, dtype=np.int64))
        collection.flush()
        collection.create_index("FLAT")
        result = collection.search(
            SearchRequest(
                queries=queries, top_k=TOP_K, filter=AttributeFilter("tag", "eq", 0)
            )
        )
        served = result.ids[result.ids >= 0]
        assert served.size > 0
        assert (served < 120).all(), "an untagged row matched the eq-0 filter"


class TestSearchRequestValidation:
    def test_promotes_single_vector(self):
        request = SearchRequest(queries=np.zeros(DIMENSION, dtype=np.float32), top_k=3)
        assert request.queries.shape == (1, DIMENSION)

    def test_rejects_nonpositive_top_k(self):
        with pytest.raises(ValueError):
            SearchRequest(queries=np.zeros((1, DIMENSION)), top_k=0)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            SearchRequest(queries=np.zeros((1, DIMENSION)), top_k=3, filter_strategy="sideways")

    def test_rejects_overfetch_below_one(self):
        with pytest.raises(ValueError):
            SearchRequest(queries=np.zeros((1, DIMENSION)), top_k=3, overfetch_factor=0.5)

    def test_slice_carries_plan_knobs(self):
        request = SearchRequest(
            queries=np.zeros((4, DIMENSION), dtype=np.float32),
            top_k=3,
            filter=AttributeFilter("tag", "eq", 1),
            filter_strategy="post",
            overfetch_factor=3.0,
        )
        part = request.slice(1, 3)
        assert part.queries.shape == (2, DIMENSION)
        assert part.filter is request.filter
        assert part.filter_strategy == "post" and part.overfetch_factor == 3.0

    def test_search_rejects_both_request_and_top_k(self):
        vectors, queries, tags = make_corpus()
        collection = make_collection(vectors, tags)
        request = SearchRequest(queries=queries, top_k=3)
        with pytest.raises(ValueError):
            collection.search(request, 5)


@pytest.mark.parametrize("index_type", ("FLAT", "IVF_FLAT"))
class TestPreEqualsPostOnExactIndexes:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), cutoff=st.integers(5, 995))
    def test_strategies_agree_bit_for_bit(self, index_type, seed, cutoff):
        vectors, queries, tags = make_corpus(seed=seed, rows=240)
        collection = make_collection(vectors, tags, index_type=index_type)
        query_filter = AttributeFilter("tag", "lt", cutoff)
        results = {
            strategy: collection.search(
                SearchRequest(
                    queries=queries, top_k=TOP_K, filter=query_filter,
                    filter_strategy=strategy,
                )
            )
            for strategy in ("pre", "post")
        }
        assert np.array_equal(results["pre"].ids, results["post"].ids)
        pre_distances = np.asarray(results["pre"].distances, dtype=np.float64)
        post_distances = np.asarray(results["post"].distances, dtype=np.float64)
        both_finite = np.isfinite(pre_distances) & np.isfinite(post_distances)
        assert np.array_equal(np.isfinite(pre_distances), np.isfinite(post_distances))
        assert np.allclose(
            pre_distances[both_finite], post_distances[both_finite], rtol=1e-6, atol=1e-6
        )


class TestFilterCompactionCommutes:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), delete_fraction=st.floats(0.05, 0.4))
    def test_filtered_search_identical_across_maintenance(self, seed, delete_fraction):
        vectors, queries, tags = make_corpus(seed=seed, rows=400)
        collection = make_collection(
            vectors, tags, shard_num=2,
            maintenance_mode="inline", compaction_trigger_ratio=0.05,
        )
        collection.auto_maintenance = False
        rng = np.random.default_rng(seed + 1)
        doomed = rng.choice(
            400, size=max(1, int(delete_fraction * 400)), replace=False
        ).astype(np.int64)
        collection.delete(doomed)
        request = SearchRequest(
            queries=queries, top_k=TOP_K, filter=AttributeFilter("tag", "lt", 300)
        )
        before = collection.search(request)
        report = collection.run_maintenance()
        after = collection.search(request)
        assert np.array_equal(before.ids, after.ids), (
            f"filtered search changed across maintenance (compacted "
            f"{report.segments_compacted}, reindexed {report.segments_reindexed})"
        )
        assert np.allclose(
            np.where(np.isfinite(before.distances), before.distances, 0.0),
            np.where(np.isfinite(after.distances), after.distances, 0.0),
            rtol=1e-6,
            atol=1e-6,
        )
        assert np.array_equal(
            np.isfinite(before.distances), np.isfinite(after.distances)
        )

    def test_attributes_survive_delete_and_compaction(self):
        vectors, queries, tags = make_corpus(rows=300)
        collection = make_collection(vectors, tags, compaction_trigger_ratio=0.05)
        collection.delete(np.arange(0, 300, 3, dtype=np.int64))
        collection.run_maintenance()
        stored: dict[int, int] = {}
        for shard in collection.shards:
            for segment in shard.segments.segments:
                _, ids, attributes = segment.live_view()
                assert "tag" in attributes
                for external_id, value in zip(ids, attributes["tag"]):
                    assert int(external_id) not in stored
                    stored[int(external_id)] = int(value)
        expected = {i: int(tags[i]) for i in range(300) if i % 3 != 0}
        assert stored == expected


class TestUnderFullSemantics:
    """A filter matching fewer than ``top_k`` rows pads with -1 / inf,
    bit-identically across every serving layout."""

    def expected_rows(self, vectors, queries, allowed):
        v = vectors[allowed].astype(np.float64)
        q = queries.astype(np.float64)
        distances = ((q[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(distances, axis=1, kind="stable")
        return allowed[order]

    def test_padding_bit_identical_across_layouts(self):
        vectors, queries, tags = make_corpus()
        rare = np.full(NUM_VECTORS, 7, dtype=np.int64)
        rare_rows = np.array([11, 222, 433], dtype=np.int64)
        rare[rare_rows] = 0
        request = SearchRequest(
            queries=queries, top_k=TOP_K, filter=AttributeFilter("tag", "eq", 0)
        )
        results = []
        for shard_num in (1, 2, 4):
            collection = make_collection(vectors, rare, shard_num=shard_num)
            results.append(collection.search(request))
        maintained = make_collection(
            vectors, rare, shard_num=2,
            maintenance_mode="inline", compaction_trigger_ratio=0.05,
        )
        maintained.delete(np.array([0, 1, 2], dtype=np.int64))  # rare rows untouched
        maintained.run_maintenance()
        results.append(maintained.search(request))

        expected_ids = self.expected_rows(vectors, queries, rare_rows)
        for result in results:
            assert result.ids.shape == (NUM_QUERIES, TOP_K)
            assert np.array_equal(result.ids[:, : rare_rows.size], expected_ids)
            assert (result.ids[:, rare_rows.size :] == -1).all()
            assert np.isinf(result.distances[:, rare_rows.size :]).all()
            assert np.array_equal(result.ids, results[0].ids)

    def test_zero_match_filter_returns_fully_padded(self):
        vectors, queries, tags = make_corpus()
        collection = make_collection(vectors, tags, shard_num=2)
        result = collection.search(
            SearchRequest(queries=queries, top_k=5, filter=AttributeFilter("tag", "lt", -1))
        )
        assert (result.ids == -1).all()
        assert np.isinf(result.distances).all()
        assert result.filter_stats.selectivity == 0.0

    def test_query_scheduler_matches_batch_for_filtered_requests(self):
        vectors, queries, tags = make_corpus()
        collection = make_collection(vectors, tags, shard_num=2)
        request = SearchRequest(
            queries=queries, top_k=TOP_K, filter=AttributeFilter("tag", "lt", 120)
        )
        batch = collection.search(request)
        for scheduled, trace in run_searchers(collection.search_many, request, searchers=4):
            assert np.array_equal(scheduled.ids, batch.ids)
            assert trace.num_requests == len(trace.request_shard_stats) == NUM_QUERIES
            assert scheduled.filter_stats is not None
            # Per-query requests each evaluate the filter masks themselves, so
            # the scheduled path scans the predicate once per request instead
            # of once per batch — real per-request serving cost, not an error.
            assert scheduled.stats.filter_rows_scanned == (
                NUM_QUERIES * batch.stats.filter_rows_scanned
            )


class TestPlannerBehaviour:
    def test_auto_resolves_by_selectivity_threshold(self):
        vectors, queries, tags = make_corpus()
        collection = make_collection(vectors, tags)
        low = collection.plan_search(
            SearchRequest(
                queries=queries, top_k=TOP_K,
                filter=AttributeFilter(
                    "tag", "lt", int(AUTO_PRE_FILTER_SELECTIVITY * 1000) - 100
                ),
            )
        )
        high = collection.plan_search(
            SearchRequest(
                queries=queries, top_k=TOP_K, filter=AttributeFilter("tag", "lt", 900)
            )
        )
        assert low.post_segments == 0 and low.pre_segments > 0
        indexed_high = [s for s in high.segments if s.indexed]
        assert indexed_high and all(s.strategy == "post" for s in indexed_high)

    def test_forced_strategies_are_obeyed_on_indexed_segments(self):
        vectors, queries, tags = make_corpus()
        collection = make_collection(vectors, tags)
        for strategy in ("pre", "post"):
            plan = collection.plan_search(
                SearchRequest(
                    queries=queries, top_k=TOP_K,
                    filter=AttributeFilter("tag", "lt", 500),
                    filter_strategy=strategy,
                )
            )
            indexed = [s for s in plan.segments if s.indexed]
            assert indexed and all(s.strategy == strategy for s in indexed)

    def test_brute_forced_segments_always_pre_filter(self):
        vectors, queries, tags = make_corpus()
        collection = make_collection(vectors, tags)
        plan = collection.plan_search(
            SearchRequest(
                queries=queries, top_k=TOP_K,
                filter=AttributeFilter("tag", "lt", 900),
                filter_strategy="post",
            )
        )
        unindexed = [s for s in plan.segments if not s.indexed]
        assert unindexed and all(s.strategy == "pre" for s in unindexed)

    def test_plan_lists_segments_in_shard_then_segment_order(self):
        vectors, queries, tags = make_corpus(rows=1500)
        collection = make_collection(vectors, tags, shard_num=2)
        # Invalidate the *first* sealed segment of each shard, so an
        # unindexed segment precedes indexed ones in segment-id order.
        for shard in collection.shards:
            collection.delete(shard.segments.sealed_segments[0].ids[:3])
        plan = collection.plan_search(
            SearchRequest(
                queries=queries, top_k=TOP_K,
                filter=AttributeFilter("tag", "lt", 900),
                filter_strategy="post",
            )
        )
        expected = [
            (shard.shard_id, segment.segment_id, segment.segment_id in shard.indexes)
            for shard in collection.shards
            for segment in shard.segments.segments
        ]
        assert [(s.shard_id, s.segment_id, s.indexed) for s in plan.segments] == expected
        assert expected == sorted(expected, key=lambda entry: entry[:2])
        for shard in collection.shards:
            flags = [indexed for shard_id, _, indexed in expected if shard_id == shard.shard_id]
            # invalidated, then indexed ..., then the growing tail
            assert flags[0] is False and flags[-1] is False and any(flags)
        assert all(s.strategy == ("post" if s.indexed else "pre") for s in plan.segments)

    def test_system_config_supplies_strategy_defaults(self):
        vectors, queries, tags = make_corpus()
        collection = make_collection(vectors, tags, filter_strategy="post", overfetch_factor=3.5)
        plan = collection.plan_search(
            SearchRequest(
                queries=queries, top_k=TOP_K, filter=AttributeFilter("tag", "lt", 100)
            )
        )
        assert plan.strategy == "post"
        assert plan.overfetch_factor == pytest.approx(3.5)
        indexed = [s for s in plan.segments if s.indexed]
        assert indexed and all(s.strategy == "post" for s in indexed)

    def test_filter_stats_reflect_executed_work(self):
        vectors, queries, tags = make_corpus()
        collection = make_collection(vectors, tags)
        pre = collection.search(
            SearchRequest(
                queries=queries, top_k=TOP_K,
                filter=AttributeFilter("tag", "lt", 100), filter_strategy="pre",
            )
        )
        post = collection.search(
            SearchRequest(
                queries=queries, top_k=TOP_K,
                filter=AttributeFilter("tag", "lt", 100), filter_strategy="post",
            )
        )
        assert isinstance(pre.plan, SearchPlan) and isinstance(pre.filter_stats, FilterStats)
        # Every live row's predicate is evaluated exactly once per search.
        assert pre.filter_stats.rows_scanned == NUM_VECTORS
        assert pre.filter_stats.candidates_dropped == 0
        assert post.filter_stats.candidates_dropped > 0
        assert pre.filter_stats.selectivity == pytest.approx(
            (tags < 100).mean(), abs=0.01
        )
        # Post-filtering at 10% selectivity does strictly more scoring work.
        assert post.stats.total_work() > pre.stats.total_work()

    def test_unfiltered_search_has_no_plan(self):
        vectors, queries, tags = make_corpus()
        collection = make_collection(vectors, tags)
        result = collection.search(queries, TOP_K)
        assert result.plan is None and result.filter_stats is None
        assert result.stats.filter_rows_scanned == 0
