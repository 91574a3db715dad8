"""``Collection.search_many`` against a loop of single searches.

``search_many(requests)`` looks every request up in the query cache in
order, answers the misses with one scatter-gather and splits the batch back
into per-request results.  The oracle is a twin collection — same rows,
same configuration — served the same requests one ``search`` at a time:

- every result's ids, distance bytes and dtype, ``stats`` (per query),
  ``shard_stats``, ``plan`` and ``filter_stats`` are equal;
- the cache ends in the same state: ``CacheStats``, ``len(cache)`` and the
  evictions of both tiers.

The streams cover a capacity below the distinct count, duplicates within
one call (one of them after its pending entry was evicted), a filtered
stream through the plan tier, a request without queries, and hits left by
an earlier call.  Then the pending entries themselves: never served to
another call, never left behind by a call that raises, and never served
unfilled to racing threads.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.vdms import Collection, SearchRequest, SystemConfig
from repro.vdms.cache import PendingResult
from repro.vdms.index import INDEX_REGISTRY
from repro.vdms.request import AttributeFilter

DIMENSION = 8
ROWS = 240
SMALL_SEGMENTS = {"segment_max_size": 1, "segment_seal_proportion": 0.1, "insert_buf_size": 1}
INDEX_PARAMS = {"nlist": 4, "nprobe": 2, "pq_m": 4, "pq_nbits": 4, "reorder_k": 6}


def make_collection(index_type, capacity, shard_num=2):
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(ROWS, DIMENSION)).astype(np.float32)
    vectors[ROWS // 2 :: 7] = vectors[: len(vectors[ROWS // 2 :: 7])]  # duplicated rows
    config = SystemConfig(
        shard_num=shard_num, cache_policy="lru", cache_capacity=capacity, **SMALL_SEGMENTS
    )
    collection = Collection("oracle", DIMENSION, metric="l2", system_config=config)
    collection.insert(vectors, attributes={"tag": np.arange(ROWS) % 10})
    collection.flush()
    collection.create_index(index_type, INDEX_PARAMS)
    # A growing tail served by its exact FLAT index beside the built ones.
    collection.insert(rng.normal(size=(9, DIMENSION)).astype(np.float32))
    return collection, vectors


def pool(vectors, size=6, seed=5):
    """Distinct single-query arrays: stored rows (ties) and random ones."""
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(size, DIMENSION)).astype(np.float32)
    queries[:2] = vectors[:2]
    return [queries[number : number + 1] for number in range(size)]


def assert_same_results(got, expected):
    assert len(got) == len(expected)
    for position, (result, reference) in enumerate(zip(got, expected)):
        assert result.ids.dtype == reference.ids.dtype, position
        assert np.array_equal(result.ids, reference.ids), position
        assert result.distances.dtype == reference.distances.dtype, position
        assert result.distances.tobytes() == reference.distances.tobytes(), position
        assert result.stats == reference.stats, position
        assert result.shard_stats == reference.shard_stats, position
        assert result.plan == reference.plan, position
        assert result.filter_stats == reference.filter_stats, position


def assert_same_cache(collection, twin):
    cache, reference = collection.query_cache, twin.query_cache
    assert cache.stats == reference.stats
    assert len(cache) == len(reference)
    assert cache._results.evictions == reference._results.evictions
    assert cache._plans.evictions == reference._plans.evictions


def check(index_type, capacity, calls):
    """Each call of ``calls`` (a list of request lists) through ``search_many``
    on one collection and request by request through ``search`` on its twin."""
    collection, _ = make_collection(index_type, capacity)
    twin, _ = make_collection(index_type, capacity)
    for requests in calls:
        got = collection.search_many(requests)
        expected = [twin.search(request) for request in requests]
        assert_same_results(got, expected)
        assert_same_cache(collection, twin)
    return collection


def requests_of(queries, order, **request_options):
    return [SearchRequest(queries[number], 4, **request_options) for number in order]


@pytest.mark.parametrize("index_type", sorted(INDEX_REGISTRY))
def test_a_capacity_below_the_distinct_count_evicts_as_the_loop_does(index_type):
    _, vectors = make_collection("FLAT", 1)
    queries = pool(vectors)
    order = [0, 1, 2, 3, 0, 4, 1, 5, 2, 2, 0]
    collection = check(index_type, 3, [requests_of(queries, order)])
    assert collection.query_cache._results.evictions > 0


@pytest.mark.parametrize("index_type", ("FLAT", "IVF_FLAT", "HNSW"))
def test_duplicates_hit_their_pending_entry_or_miss_once_it_is_evicted(index_type):
    _, vectors = make_collection("FLAT", 1)
    queries = pool(vectors)
    # 0 hits its own pending entry at once; 1's is evicted by 2 and 3 before
    # it repeats (capacity 2), so the repeat misses and searches again.
    order = [0, 0, 1, 2, 3, 1, 1]
    collection = check(index_type, 2, [requests_of(queries, order)])
    stats = collection.query_cache.stats
    assert (stats.result_hits, stats.result_misses) == (2, 5)


@pytest.mark.parametrize("strategy", ("auto", "pre", "post"))
@pytest.mark.parametrize("index_type", ("FLAT", "IVF_FLAT", "IVF_SQ8", "HNSW"))
def test_a_filtered_stream_plans_through_the_plan_tier_as_the_loop_does(index_type, strategy):
    _, vectors = make_collection("FLAT", 1)
    queries = pool(vectors)
    narrow, wide = AttributeFilter("tag", "lt", 2), AttributeFilter("tag", "in", (1, 3, 5, 6, 7, 8))
    middle = AttributeFilter("tag", "range", (2, 6))
    predicates = [narrow, wide, narrow, middle, wide, narrow, narrow, middle, narrow]
    requests = [
        SearchRequest(queries[number], 4, filter=predicate, filter_strategy=strategy)
        for number, predicate in zip([0, 1, 0, 2, 3, 1, 4, 0, 5], predicates)
    ]
    requests.insert(3, SearchRequest(queries[5], 4))  # an unfiltered one between them
    collection = check(index_type, 2, [requests])
    assert collection.query_cache.stats.plan_hits > 0
    assert collection.query_cache._plans.evictions > 0


@pytest.mark.parametrize("index_type", ("FLAT", "IVF_PQ", "AUTOINDEX"))
def test_requests_without_queries_or_with_several(index_type):
    _, vectors = make_collection("FLAT", 1)
    queries = pool(vectors)
    empty = np.empty((0, DIMENSION), dtype=np.float32)
    several = np.concatenate(queries[:3])
    requests = [
        SearchRequest(empty, 4),
        SearchRequest(queries[0], 4),
        SearchRequest(several, 4),
        SearchRequest(empty, 4),
        SearchRequest(several, 4, filter=AttributeFilter("tag", "ge", 5)),
        SearchRequest(empty, 4, filter=AttributeFilter("tag", "ge", 5)),
        SearchRequest(queries[0], 3),
    ]
    check(index_type, 16, [requests])


@pytest.mark.parametrize("index_type", ("FLAT", "SCANN"))
def test_a_later_call_hits_what_an_earlier_call_stored(index_type):
    _, vectors = make_collection("FLAT", 1)
    queries = pool(vectors)
    calls = [requests_of(queries, [0, 1, 2]), requests_of(queries, [2, 1, 3, 0, 3])]
    collection = check(index_type, 8, calls)
    assert collection.query_cache.stats.result_hits == 4


def test_a_pending_entry_is_a_miss_for_every_other_call(monkeypatch):
    collection, vectors = make_collection("FLAT", 8)
    query = pool(vectors)[0]
    reference = collection.search(query, 4, use_cache=False)
    scatter_gather = Collection._scatter_gather
    inner = []

    def interleaved(self, *args):
        # Another call arrives while this call's entry is pending.
        monkeypatch.setattr(Collection, "_scatter_gather", scatter_gather)
        inner.append(self.search(query, 4))
        return scatter_gather(self, *args)

    monkeypatch.setattr(Collection, "_scatter_gather", interleaved)
    outer = collection.search(query, 4)
    stats = collection.query_cache.stats
    assert (stats.result_hits, stats.result_misses) == (0, 2)
    for result in (inner[0], outer):
        assert np.array_equal(result.ids, reference.ids)
        assert result.distances.tobytes() == reference.distances.tobytes()
        assert result.stats == reference.stats
    # Both calls stored the entry; the last one filled stays and serves hits.
    hit = collection.search(query, 4)
    assert hit.stats.cache_hits == 1 and len(collection.query_cache) == 1


def test_a_call_that_raises_leaves_no_pending_entry(monkeypatch):
    collection, vectors = make_collection("FLAT", 8)
    queries = pool(vectors)
    collection.search(queries[0], 4)

    def failing(self, *args):
        raise RuntimeError("scatter failed")

    monkeypatch.setattr(Collection, "_scatter_gather", failing)
    with pytest.raises(RuntimeError):
        collection.search_many(requests_of(queries, [1, 0, 2, 1]))
    monkeypatch.undo()
    assert len(collection.query_cache) == 1
    again = collection.search(queries[1], 4)
    assert again.stats.cache_hits == 0
    assert collection.search(queries[1], 4).stats.cache_hits == 1


def test_racing_calls_share_the_cache_without_serving_an_unfilled_entry():
    """Six threads (more than the cores) issue duplicate-heavy calls against
    a small cache: every answer is the cache-bypassed one, every lookup is
    counted once, and no entry is left unfilled."""
    collection, vectors = make_collection("FLAT", 3)
    queries = pool(vectors)
    references = [collection.search(query, 4, use_cache=False) for query in queries]
    streams = [
        [number % len(queries) for number in range(offset, offset + 9)] + [offset % 6] * 3
        for offset in range(6)
    ]
    rounds = 15
    errors: list[BaseException] = []

    def searcher(stream):
        try:
            for _ in range(rounds):
                for number, result in zip(stream, collection.search_many(requests_of(queries, stream))):
                    assert np.array_equal(result.ids, references[number].ids)
                    assert result.distances.tobytes() == references[number].distances.tobytes()
        except BaseException as error:  # noqa: BLE001 - surfaced after join
            errors.append(error)

    threads = [threading.Thread(target=searcher, args=(stream,)) for stream in streams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    stats = collection.query_cache.stats
    assert stats.result_hits + stats.result_misses == rounds * sum(len(s) for s in streams)
    entries = list(collection.query_cache._results._entries.values())
    assert entries and all(
        not isinstance(entry, PendingResult) or entry.result is not None for entry in entries
    )
