"""Property tests for the scatter-gather machinery.

The merge is the correctness-critical piece of sharded serving: if merging
per-shard top-k lists is exactly the global top-k, sharding can never change
what is served (for exact search).  Hypothesis drives the merge across
arbitrary shard assignments — including empty shards, shards smaller than
``k`` and ``k`` larger than the whole corpus — and checks it against a
straight argsort oracle, plus invariance to the order shards report in.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vdms import Collection, SystemConfig
from repro.vdms.sharding import (
    RANGE_BLOCK_ROWS,
    ROUTING_POLICIES,
    QueryScheduler,
    merge_topk,
    shard_assignments,
    simulate_makespan,
)


@st.composite
def sharded_candidates(draw):
    """A corpus with unique distances, split across shards arbitrarily."""
    num_queries = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 40))
    top_k = draw(st.integers(1, 15))
    num_shards = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # Unique distances per query row, so the global top-k is unambiguous.
    distances = np.stack([rng.permutation(num_rows).astype(np.float64) for _ in range(num_queries)])
    assignment = np.asarray(
        draw(st.lists(st.integers(0, num_shards - 1), min_size=num_rows, max_size=num_rows)),
        dtype=np.int64,
    )
    return distances, assignment, num_shards, top_k


def shard_lists(distances, assignment, num_shards, top_k):
    """What each shard would report: its own top-k over its own rows."""
    ids_list, distances_list = [], []
    for shard in range(num_shards):
        members = np.flatnonzero(assignment == shard)
        local = distances[:, members]
        keep = min(top_k, members.size)
        order = np.argsort(local, axis=1)[:, :keep]
        ids_list.append(members[order])
        distances_list.append(np.take_along_axis(local, order, axis=1))
    return ids_list, distances_list


def global_topk(distances, top_k):
    order = np.argsort(distances, axis=1)[:, :top_k]
    return order, np.take_along_axis(distances, order, axis=1)


class TestMergeProperties:
    @given(case=sharded_candidates())
    @settings(max_examples=120, deadline=None)
    def test_merge_equals_global_topk(self, case):
        distances, assignment, num_shards, top_k = case
        ids_list, distances_list = shard_lists(distances, assignment, num_shards, top_k)
        merged_ids, merged_distances = merge_topk(ids_list, distances_list, top_k)
        truth_ids, truth_distances = global_topk(distances, top_k)
        width = min(top_k, distances.shape[1])
        assert np.array_equal(merged_ids[:, :width], truth_ids[:, :width])
        assert np.allclose(merged_distances[:, :width], truth_distances[:, :width])
        # Anything beyond the corpus size is explicit padding.
        assert (merged_ids[:, width:] == -1).all()
        assert np.isinf(merged_distances[:, width:]).all()

    @given(case=sharded_candidates(), order_seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_merge_is_invariant_to_shard_order(self, case, order_seed):
        distances, assignment, num_shards, top_k = case
        ids_list, distances_list = shard_lists(distances, assignment, num_shards, top_k)
        baseline = merge_topk(ids_list, distances_list, top_k)
        permutation = np.random.default_rng(order_seed).permutation(num_shards)
        shuffled = merge_topk(
            [ids_list[i] for i in permutation],
            [distances_list[i] for i in permutation],
            top_k,
        )
        assert np.array_equal(baseline[0], shuffled[0])
        assert np.allclose(baseline[1], shuffled[1])

    def test_k_larger_than_every_shard(self):
        # Three shards of width 2 each; k = 5 spans shard boundaries.
        ids_list = [np.array([[0, 1]]), np.array([[2, 3]]), np.array([[4, 5]])]
        distances_list = [
            np.array([[0.1, 0.9]]),
            np.array([[0.2, 0.8]]),
            np.array([[0.3, 0.7]]),
        ]
        merged_ids, merged_distances = merge_topk(ids_list, distances_list, 5)
        assert merged_ids.tolist() == [[0, 2, 4, 5, 3]]
        assert np.allclose(merged_distances, [[0.1, 0.2, 0.3, 0.7, 0.8]])

    def test_empty_shards_are_ignored(self):
        empty_ids = np.empty((2, 0), dtype=np.int64)
        empty_distances = np.empty((2, 0))
        ids_list = [empty_ids, np.array([[3, 9], [9, 3]]), empty_ids]
        distances_list = [empty_distances, np.array([[0.5, 0.6], [0.1, 0.2]]), empty_distances]
        merged_ids, merged_distances = merge_topk(ids_list, distances_list, 2)
        assert np.array_equal(merged_ids, np.array([[3, 9], [9, 3]]))
        assert np.allclose(merged_distances, np.array([[0.5, 0.6], [0.1, 0.2]]))

    def test_k_exceeding_total_candidates_pads(self):
        merged_ids, merged_distances = merge_topk(
            [np.array([[5]])], [np.array([[0.25]])], 4
        )
        assert merged_ids.tolist() == [[5, -1, -1, -1]]
        assert merged_distances[0, 0] == pytest.approx(0.25)
        assert np.isinf(merged_distances[0, 1:]).all()

    def test_padded_invalid_candidates_sort_to_the_tail(self):
        ids_list = [np.array([[2, -1]]), np.array([[7, -1]])]
        distances_list = [np.array([[0.4, np.inf]]), np.array([[0.3, np.inf]])]
        merged_ids, _ = merge_topk(ids_list, distances_list, 3)
        assert merged_ids.tolist() == [[7, 2, -1]]

    def test_all_zero_wide_lists_pad_fully(self):
        # A filter that matched nothing anywhere: the under-full contract
        # applies, -1 ids with infinite distances, never an error.
        merged_ids, merged_distances = merge_topk(
            [np.empty((2, 0), dtype=np.int64)], [np.empty((2, 0))], 3
        )
        assert merged_ids.tolist() == [[-1, -1, -1], [-1, -1, -1]]
        assert np.isinf(merged_distances).all()

    def test_no_lists_at_all_raises(self):
        with pytest.raises(ValueError):
            merge_topk([], [], 3)

    def test_nonpositive_k_raises(self):
        with pytest.raises(ValueError):
            merge_topk([np.array([[1]])], [np.array([[0.5]])], 0)


class TestRoutingProperties:
    @given(
        seed=st.integers(0, 2**16),
        shard_num=st.integers(1, 8),
        policy=st.sampled_from(ROUTING_POLICIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_assignments_are_stable_and_in_range(self, seed, shard_num, policy):
        ids = np.random.default_rng(seed).integers(0, 1_000_000, size=200).astype(np.int64)
        first = shard_assignments(ids, shard_num, policy)
        second = shard_assignments(ids, shard_num, policy)
        assert np.array_equal(first, second)
        assert ((first >= 0) & (first < shard_num)).all()

    def test_single_shard_routes_everything_to_zero(self):
        ids = np.arange(100, dtype=np.int64)
        for policy in ROUTING_POLICIES:
            assert (shard_assignments(ids, 1, policy) == 0).all()

    def test_hash_routing_balances_sequential_ids(self):
        ids = np.arange(10_000, dtype=np.int64)
        counts = np.bincount(shard_assignments(ids, 4, "hash"), minlength=4)
        assert counts.min() > 0.8 * counts.max()

    def test_range_routing_keeps_blocks_contiguous(self):
        ids = np.arange(4 * RANGE_BLOCK_ROWS, dtype=np.int64)
        assignment = shard_assignments(ids, 4, "range")
        for block in range(4):
            block_ids = assignment[block * RANGE_BLOCK_ROWS : (block + 1) * RANGE_BLOCK_ROWS]
            assert len(set(block_ids.tolist())) == 1, "a range block must live on one shard"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            shard_assignments(np.arange(4), 2, "round_robin")


class TestMakespanSimulation:
    @given(
        tasks=st.lists(
            st.lists(st.floats(0.001, 5.0, allow_nan=False), min_size=1, max_size=4),
            min_size=1,
            max_size=12,
        ),
        workers=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_makespan_bounds(self, tasks, workers):
        makespan = simulate_makespan(tasks, workers)
        total = sum(sum(request) for request in tasks)
        longest = max(max(request) for request in tasks)
        assert makespan <= total + 1e-9
        assert makespan >= total / workers - 1e-9
        assert makespan >= longest - 1e-9
        # One worker degenerates to the serial sum.
        assert simulate_makespan(tasks, 1) == pytest.approx(total)

    @given(
        tasks=st.lists(
            st.lists(st.floats(0.001, 5.0, allow_nan=False), min_size=1, max_size=4),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ample_workers_reduce_to_the_longest_task(self, tasks):
        num_tasks = sum(len(request) for request in tasks)
        longest = max(max(request) for request in tasks)
        assert simulate_makespan(tasks, num_tasks) == pytest.approx(longest)


class TestQueryScheduler:
    def test_zero_query_request_keeps_the_search_dtypes(self):
        collection = Collection("empty", 8, metric="l2", system_config=SystemConfig(shard_num=2))
        collection.insert(np.random.default_rng(3).normal(size=(32, 8)).astype(np.float32))
        collection.flush()
        collection.create_index("FLAT")
        empty, trace = QueryScheduler().run(
            collection.search_many, np.empty((0, 8), dtype=np.float32), top_k=3
        )
        direct = collection.search(np.empty((0, 8), dtype=np.float32), 3)
        assert trace.num_requests == 0 and trace.request_shard_stats == []
        assert empty.ids.shape == empty.distances.shape == (0, 3)
        assert empty.ids.dtype == direct.ids.dtype == np.int64
        assert empty.distances.dtype == direct.distances.dtype == np.float32

    def test_requests_run_in_order_on_the_calling_thread(self):
        collection = Collection("serial", 8, metric="l2", system_config=SystemConfig(shard_num=2))
        rng = np.random.default_rng(4)
        collection.insert(rng.normal(size=(64, 8)).astype(np.float32))
        collection.flush()
        collection.create_index("FLAT")
        queries = rng.normal(size=(5, 8)).astype(np.float32)
        served = []

        def search_many(requests):
            served.append((threading.get_ident(), [request.queries.copy() for request in requests]))
            return collection.search_many(requests)

        result, trace = QueryScheduler().run(search_many, queries, top_k=4)
        # One call on the calling thread, handed the five single-query requests in order.
        assert [ident for ident, _ in served] == [threading.get_ident()]
        assert [q.shape for q in served[0][1]] == [(1, 8)] * 5
        np.testing.assert_array_equal(np.concatenate(served[0][1]), queries)
        direct = collection.search(queries, 4)
        assert trace.num_requests == len(trace.request_shard_stats) == 5
        np.testing.assert_array_equal(result.ids, direct.ids)
        np.testing.assert_array_equal(result.distances, direct.distances)
