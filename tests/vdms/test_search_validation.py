"""A search the collection rejects is rejected before it touches the cache.

- ``SearchRequest`` takes one query vector or a 2-D batch; a scalar or a
  3-D array raises ``ValueError`` when the request is made, and so do a
  NaN or infinite query, a ``top_k`` above ``MAX_TOP_K`` and an answer of
  more than ``MAX_ANSWER_CELLS`` (an answer is ``queries × top_k`` wide).
- ``Collection.search_many`` checks every request's query dimension before
  any cache lookup, so a rejected call counts no result miss (the serving
  front-end's ``/stats`` after a 400 is pinned in
  ``tests/serving/test_frontend.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vdms import Collection, SearchRequest, SystemConfig
from repro.vdms.request import MAX_ANSWER_CELLS, MAX_TOP_K


@pytest.mark.parametrize(
    "queries",
    (np.float32(1.0), np.zeros((2, 3, 8), dtype=np.float32), np.zeros((1, 1, 1, 8))),
    ids=("scalar", "3-D", "4-D"),
)
def test_a_request_takes_one_vector_or_a_2d_batch(queries):
    with pytest.raises(ValueError, match="one vector or a 2-D array"):
        SearchRequest(queries, 3)


def test_one_vector_is_promoted_and_an_empty_batch_is_kept():
    assert SearchRequest(np.zeros(8), 3).queries.shape == (1, 8)
    assert SearchRequest(np.zeros((0, 8)), 3).queries.shape == (0, 8)


def test_top_k_is_bounded_before_any_work():
    assert SearchRequest(np.zeros(8), MAX_TOP_K).top_k == MAX_TOP_K == 16_384
    collection = cached_collection()
    for top_k in (MAX_TOP_K + 1, 10**6):
        with pytest.raises(ValueError, match="top_k must be at most 16384"):
            collection.search(np.zeros((1, 8)), top_k)
    assert collection.query_cache.stats.result_misses == 0
    # Many queries at a legal top_k are refused too, before any allocation.
    with pytest.raises(ValueError, match=f"queries x top_k must be at most {MAX_ANSWER_CELLS}"):
        collection.search(np.zeros((20_000, 8)), 16_384)
    assert collection.query_cache.stats.result_misses == 0
    assert SearchRequest(np.zeros((MAX_ANSWER_CELLS // MAX_TOP_K, 8)), MAX_TOP_K).top_k == MAX_TOP_K
    # A bound at the limit answers with its rows, padded like any wide search.
    result = collection.search(np.zeros((1, 8)), MAX_TOP_K)
    assert result.ids.shape == (1, MAX_TOP_K) and (result.ids[0, 64:] == -1).all()


def cached_collection():
    collection = Collection(
        "cached", 8, metric="l2", system_config=SystemConfig(cache_policy="lru", cache_capacity=8)
    )
    collection.insert(np.random.default_rng(2).normal(size=(64, 8)).astype(np.float32))
    collection.flush()
    collection.create_index("FLAT")
    return collection


def test_rejected_requests_count_no_cache_miss():
    collection = cached_collection()
    for queries in (np.zeros((1, 5)), np.zeros(9), np.zeros((3, 7))):
        with pytest.raises(ValueError, match="dimension 8"):
            collection.search(queries, 3)
    for bad in (np.nan, np.inf, -np.inf):
        queries = np.zeros((3, 8))
        queries[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            collection.search(queries, 3)
    good = SearchRequest(np.zeros((1, 8)), 3)
    with pytest.raises(ValueError, match="dimension 8"):
        collection.search_many([good, SearchRequest(np.zeros((1, 4)), 3), good])
    stats = collection.query_cache.stats
    assert (stats.result_hits, stats.result_misses) == (0, 0)
    assert len(collection.query_cache) == 0
    collection.search_many([good, good])
    assert (stats.result_hits, stats.result_misses) == (1, 1)
