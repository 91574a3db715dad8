"""Unit and property tests of the tiered query cache (:mod:`repro.vdms.cache`).

Three groups:

* **Canonical keys** — semantically equivalent requests must hash to the
  same key (reordered ``in`` values, degenerate ranges, any array layout of
  the same query values), and any semantic difference must keep keys
  distinct.  Property-tested with hypothesis.
* **LRU backend** — capacity, eviction order, recency refresh, thread
  safety of concurrent puts/gets.
* **Tiered cache + version protocol** — entries stored at version ``v``
  are invisible at ``v + 1``; stats count hits and misses; the two tiers
  never evict each other.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vdms.cache import (
    CACHE_POLICIES,
    CachedResult,
    LRUCacheBackend,
    TieredQueryCache,
    canonical_filter_key,
    queries_digest,
    request_cache_key,
)
from repro.vdms.request import AttributeFilter, SearchRequest
from repro.vdms.system_config import SystemConfig


def make_request(queries=None, top_k=5, **kwargs) -> SearchRequest:
    if queries is None:
        queries = np.arange(12, dtype=np.float32).reshape(3, 4)
    return SearchRequest(queries=queries, top_k=top_k, **kwargs)


class TestCanonicalFilterKey:
    def test_none_stays_none(self):
        assert canonical_filter_key(None) is None

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.integers(0, 50), min_size=2, max_size=8, unique=True))
    def test_in_values_order_never_matters(self, values):
        forward = AttributeFilter("tag", "in", tuple(values))
        backward = AttributeFilter("tag", "in", tuple(reversed(values)))
        assert canonical_filter_key(forward) == canonical_filter_key(backward)

    def test_duplicate_in_values_collapse(self):
        a = AttributeFilter("tag", "in", (3, 1, 3, 1))
        b = AttributeFilter("tag", "in", (1, 3))
        assert canonical_filter_key(a) == canonical_filter_key(b)

    def test_single_value_in_equals_eq(self):
        membership = AttributeFilter("tag", "in", (7,))
        equality = AttributeFilter("tag", "eq", 7)
        assert canonical_filter_key(membership) == canonical_filter_key(equality)

    def test_degenerate_range_equals_eq(self):
        degenerate = AttributeFilter("tag", "range", (7, 7))
        equality = AttributeFilter("tag", "eq", 7)
        assert canonical_filter_key(degenerate) == canonical_filter_key(equality)

    @settings(max_examples=50, deadline=None)
    @given(
        low=st.integers(0, 20),
        span=st.integers(1, 20),
        other_span=st.integers(1, 20),
    )
    def test_distinct_ranges_stay_distinct(self, low, span, other_span):
        first = AttributeFilter("tag", "range", (low, low + span))
        second = AttributeFilter("tag", "range", (low, low + other_span))
        keys_equal = canonical_filter_key(first) == canonical_filter_key(second)
        assert keys_equal == (span == other_span)

    def test_different_fields_and_ops_stay_distinct(self):
        keys = {
            canonical_filter_key(AttributeFilter("tag", "eq", 3)),
            canonical_filter_key(AttributeFilter("color", "eq", 3)),
            canonical_filter_key(AttributeFilter("tag", "ne", 3)),
            canonical_filter_key(AttributeFilter("tag", "le", 3)),
            canonical_filter_key(AttributeFilter("tag", "eq", 4)),
        }
        assert len(keys) == 5


class TestQueriesDigest:
    def test_layout_independent(self):
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        fortran = np.asfortranarray(base)
        promoted = base.astype(np.float64)
        strided = np.arange(48, dtype=np.float32).reshape(4, 12)[:, ::2]
        assert queries_digest(base) == queries_digest(fortran)
        assert queries_digest(base) == queries_digest(promoted)
        assert queries_digest(strided) == queries_digest(np.ascontiguousarray(strided))

    def test_shape_distinguishes_same_bytes(self):
        flat = np.arange(16, dtype=np.float32)
        assert queries_digest(flat.reshape(2, 8)) != queries_digest(flat.reshape(4, 4))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_value_changes_change_the_digest(self, seed):
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(3, 5)).astype(np.float32)
        perturbed = queries.copy()
        perturbed[0, 0] += 1.0
        assert queries_digest(queries) != queries_digest(perturbed)


class TestRequestCacheKey:
    def test_equivalent_filters_share_a_key(self):
        config = SystemConfig()
        a = make_request(filter=AttributeFilter("tag", "in", (4, 2)))
        b = make_request(filter=AttributeFilter("tag", "in", (2, 4, 2)))
        assert request_cache_key(a, config) == request_cache_key(b, config)

    def test_every_semantic_field_matters(self):
        config = SystemConfig()
        base = make_request(filter=AttributeFilter("tag", "eq", 1))
        variants = [
            make_request(top_k=6, filter=AttributeFilter("tag", "eq", 1)),
            make_request(filter=AttributeFilter("tag", "eq", 2)),
            make_request(filter=AttributeFilter("tag", "eq", 1), filter_strategy="post"),
            make_request(filter=AttributeFilter("tag", "eq", 1), overfetch_factor=4.0),
            make_request(
                queries=np.ones((3, 4), dtype=np.float32),
                filter=AttributeFilter("tag", "eq", 1),
            ),
        ]
        base_key = request_cache_key(base, config)
        for variant in variants:
            assert request_cache_key(variant, config) != base_key

    def test_unfiltered_requests_ignore_strategy_knobs(self):
        config = SystemConfig()
        plain = make_request()
        knobbed = make_request(filter_strategy="post", overfetch_factor=4.0)
        assert request_cache_key(plain, config) == request_cache_key(knobbed, config)

    def test_system_config_resolves_unset_knobs(self):
        pre = SystemConfig(filter_strategy="pre")
        post = SystemConfig(filter_strategy="post")
        request = make_request(filter=AttributeFilter("tag", "eq", 1))
        assert request_cache_key(request, pre) != request_cache_key(request, post)


class TestLRUCacheBackend:
    def test_tiers_are_lru_backends(self):
        assert set(CACHE_POLICIES) == {"none", "lru"}
        cache = TieredQueryCache(4)
        tiers = (cache._results, cache._plans)
        assert all(isinstance(tier, LRUCacheBackend) for tier in tiers)
        assert tiers[0] is not tiers[1]
        assert cache.capacity == tiers[0].capacity == tiers[1].capacity == 4
        with pytest.raises(ValueError):
            LRUCacheBackend(0)
        with pytest.raises(ValueError):
            TieredQueryCache(0)

    def test_eviction_order_and_recency_refresh(self):
        backend = LRUCacheBackend(2)
        backend.put("a", 1)
        backend.put("b", 2)
        assert backend.get("a") == 1  # refresh: "b" is now the LRU entry
        backend.put("c", 3)
        assert backend.get("b") is None
        assert backend.get("a") == 1
        assert backend.get("c") == 3
        assert backend.evictions == 1
        assert len(backend) == 2

    def test_discard_drops_only_the_value_it_names(self):
        backend = LRUCacheBackend(2)
        first, second = object(), object()
        backend.put("a", first)
        backend.discard("a", second)  # replaced since: kept
        assert backend.get("a") is first
        backend.discard("a", first)
        backend.discard("gone", first)
        assert backend.get("a") is None and len(backend) == 0 and backend.evictions == 0

    def test_none_is_not_cacheable(self):
        backend = LRUCacheBackend(2)
        with pytest.raises(ValueError):
            backend.put("a", None)

    def test_concurrent_puts_and_gets_never_tear(self):
        backend = LRUCacheBackend(32)
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                for i in range(300):
                    key = (offset + i) % 48
                    backend.put(key, key)
                    value = backend.get(key)
                    assert value is None or value == key
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(backend) <= 32


class TestTieredQueryCache:
    def make_value(self) -> CachedResult:
        return CachedResult(
            ids=np.array([[1, 2]], dtype=np.int64),
            distances=np.array([[0.1, 0.2]], dtype=np.float32),
        )

    def test_version_bump_always_misses(self):
        cache = TieredQueryCache(8)
        key = ("digest", 5, None)
        cache.put_result(0, key, self.make_value())
        assert cache.get_result(0, key) is not None
        assert cache.get_result(1, key) is None
        cache.put_plan(3, ("tag", "eq", 1), ("plan", "masks"))
        assert cache.get_plan(3, ("tag", "eq", 1)) == ("plan", "masks")
        assert cache.get_plan(4, ("tag", "eq", 1)) is None

    def test_stats_count_hits_and_misses(self):
        cache = TieredQueryCache(8)
        key = ("digest", 5, None)
        assert cache.get_result(0, key) is None
        cache.put_result(0, key, self.make_value())
        assert cache.get_result(0, key) is not None
        assert cache.stats.result_misses == 1
        assert cache.stats.result_hits == 1
        assert cache.stats.result_hit_ratio == 0.5

    def test_tiers_do_not_evict_each_other(self):
        cache = TieredQueryCache(2)
        cache.put_plan(0, ("tag", "eq", 1), "plan")
        for i in range(4):
            cache.put_result(0, ("digest", i, None), self.make_value())
        assert cache.get_plan(0, ("tag", "eq", 1)) == "plan"
        assert len(cache) == 3  # two results, one plan
