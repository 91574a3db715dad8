"""Mutation-safe tiered query cache: results, plans and canonical keys.

Real vector-DB traffic is heavily skewed — the same hot queries and the same
hot predicates arrive over and over — yet the serving path recomputes
everything per request.  This module adds the two memoization tiers the
collection consults before doing work:

* the **result tier** memoizes whole :class:`~repro.vdms.collection.SearchResult`
  payloads keyed on a canonical hash of the request (queries digest, ``top_k``,
  canonical filter, resolved strategy knobs);
* the **plan tier** memoizes :meth:`~repro.vdms.collection.Collection.plan_search`'s
  selectivity estimation — the per-segment allow-masks and the resolved
  :class:`~repro.vdms.request.SearchPlan` — keyed on the canonical predicate,
  so repeated predicates plan once instead of re-scanning every attribute
  column.

Staleness is impossible by construction rather than by invalidation
callbacks: every cache key carries the collection's **monotonic version
counter**, which every mutation path (``insert``, ``delete``, ``flush``,
``create_index``, ``drop_index``, ``set_search_params``, ``run_maintenance``)
bumps under the collection's mutation/snapshot lock.  A lookup at version
``v`` can only ever see entries stored at version ``v``; entries stored under
older versions become unreachable garbage that LRU eviction reclaims.  No
entry is ever served across a mutation — the invariant the interleaved
mutation/cache oracle suite (``tests/vdms/test_cache_oracle.py``) pins down.

Each tier is one in-process :class:`LRUCacheBackend`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from repro.vdms.request import AttributeFilter, SearchRequest

__all__ = [
    "CACHE_POLICIES",
    "CacheStats",
    "CachedResult",
    "LRUCacheBackend",
    "PendingResult",
    "TieredQueryCache",
    "canonical_filter_key",
    "request_cache_key",
]

#: Cache policies accepted by ``SystemConfig.cache_policy``: ``"none"``
#: disables both tiers (the seed behaviour), ``"lru"`` serves them from
#: in-process :class:`LRUCacheBackend` instances.
CACHE_POLICIES: tuple[str, ...] = ("none", "lru")


class LRUCacheBackend:
    """In-process least-recently-used backend with a fixed entry capacity.

    A ``get`` refreshes recency; a ``put`` over capacity evicts the least
    recently used entry.  All operations take the backend's own lock, so
    concurrent serving threads never tear the recency list — the collection
    lock is *not* held around cache traffic on the read path.  Values are
    kept by reference (a search stores a :class:`PendingResult` and completes
    it in place); ``get`` returns ``None`` on a miss, so ``None`` is never a
    legal value.
    """

    def __init__(self, capacity: int) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if value is None:
            raise ValueError("None is not a cacheable value")
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def discard(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if self._entries.get(key) is value:
                del self._entries[key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LRUCacheBackend(entries={len(self)}, capacity={self.capacity})"


# -- canonical keys ------------------------------------------------------------------


def canonical_filter_key(request_filter: AttributeFilter | None) -> tuple | None:
    """A hashable canonical form of a filter: semantic equality => key equality.

    Semantically equivalent predicates normalize to the same key:

    * ``in`` values are deduplicated and sorted (order never matters);
    * a one-value ``in`` collapses to ``eq``;
    * a ``range`` with equal bounds collapses to ``eq``.

    Any semantic difference (field, operator family, operand) keeps keys
    distinct.  ``None`` stays ``None`` (unfiltered).
    """
    if request_filter is None:
        return None
    op = request_filter.op
    value = request_filter.value
    if op == "in":
        values = tuple(sorted(set(value)))  # type: ignore[arg-type]
        if len(values) == 1:
            return (request_filter.field, "eq", values[0])
        return (request_filter.field, "in", values)
    if op == "range":
        low, high = value  # type: ignore[misc]
        if low == high:
            return (request_filter.field, "eq", low)
        return (request_filter.field, "range", (low, high))
    return (request_filter.field, op, value)


def queries_digest(queries: np.ndarray) -> str:
    """Content digest of a query batch, independent of the array's layout.

    The batch is normalized to a C-contiguous ``float32`` array first, so
    the same values reach the hash whether the caller passed a Fortran-order
    slice, a view, or a ``float64`` copy (``SearchRequest`` already promotes
    dtype, this guards layout).  The shape is folded in so ``(2, 8)`` and
    ``(4, 4)`` batches of the same bytes stay distinct.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float32)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(queries.shape).encode("ascii"))
    digest.update(queries.tobytes())
    return digest.hexdigest()


def request_cache_key(request: SearchRequest, system_config=None) -> tuple:
    """The canonical (version-free) cache key of one request.

    Covers everything that can change the result payload: the query batch
    (content digest), ``top_k``, the canonical filter and — for filtered
    requests only — the *resolved* strategy knobs (the request's own when
    set, else the system configuration's).  Unfiltered requests exclude the
    strategy knobs: they cannot influence an unfiltered result, so requests
    differing only there share an entry.
    """
    filter_key = canonical_filter_key(request.filter)
    if filter_key is None:
        return (queries_digest(request.queries), int(request.top_k), None)
    strategy = request.filter_strategy
    overfetch = request.overfetch_factor
    if system_config is not None:
        strategy, overfetch = request.filter_knobs(system_config)
    return (
        queries_digest(request.queries),
        int(request.top_k),
        filter_key,
        strategy,
        None if overfetch is None else float(overfetch),
    )


# -- the tiered cache ----------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss counters of one collection's tiered cache."""

    result_hits: int = 0
    result_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0

    @property
    def result_hit_ratio(self) -> float:
        """Fraction of result lookups served from cache (0 when idle)."""
        lookups = self.result_hits + self.result_misses
        return self.result_hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class CachedResult:
    """The immutable payload of one result-tier entry.

    Arrays are stored once and copied out on every hit, so a caller
    mutating its :class:`~repro.vdms.collection.SearchResult` can never
    corrupt the cache (or other callers).
    """

    ids: np.ndarray
    distances: np.ndarray
    plan: Any | None = None


class PendingResult:
    """A result-tier entry whose search is still running.

    A search call stores one the moment its lookup misses — where a loop of
    single searches stores the finished result — so the tier's recency order
    and evictions are that loop's, and fills ``result`` in place once the
    call's batch is answered (an entry evicted meanwhile is filled harmlessly
    and stays gone).  Until then only ``owner``, the storing call, is served
    from it: another call's lookup counts a miss and searches itself, as two
    racing identical requests do.
    """

    __slots__ = ("owner", "result")

    def __init__(self, owner: object) -> None:
        self.owner = owner
        self.result: CachedResult | None = None


class TieredQueryCache:
    """The result tier plus the plan tier of one collection.

    Every key is prefixed with the collection version the entry was computed
    at, so lookups — always issued at the *current* version, read under the
    collection lock — can never observe a pre-mutation entry.  The two tiers
    share the capacity but not storage: result entries (arrays) and plan
    entries (masks) have very different sizes and hit patterns, and one tier
    churning must not evict the other.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._results = LRUCacheBackend(self.capacity)
        self._plans = LRUCacheBackend(self.capacity)
        self._stats_lock = threading.Lock()
        self.stats = CacheStats()

    # -- result tier ---------------------------------------------------------------

    def get_result(
        self, version: int, key: tuple, owner: object = None
    ) -> CachedResult | PendingResult | None:
        """Look up a result entry at ``version``; counts the hit or miss.

        A filled :class:`PendingResult` reads as its result; an unfilled one
        is a hit only for its ``owner`` (which gets the entry itself to read
        once filled) and a miss for everyone else.
        """
        value = self._results.get((int(version),) + key)
        if isinstance(value, PendingResult):
            if value.result is not None:
                value = value.result
            elif value.owner is not owner:
                value = None
        with self._stats_lock:
            if value is None:
                self.stats.result_misses += 1
            else:
                self.stats.result_hits += 1
        return value

    def put_result(self, version: int, key: tuple, value: CachedResult | PendingResult) -> None:
        """Store a result entry computed (or being computed) at ``version``."""
        self._results.put((int(version),) + key, value)

    def discard_result(self, version: int, key: tuple, value: PendingResult) -> None:
        """Drop an entry a failed search stored, unless it was replaced since."""
        self._results.discard((int(version),) + key, value)

    # -- plan tier -----------------------------------------------------------------

    def get_plan(self, version: int, key: tuple) -> Any | None:
        """Look up a plan entry at ``version``; counts the hit or miss."""
        value = self._plans.get((int(version),) + key)
        with self._stats_lock:
            if value is None:
                self.stats.plan_misses += 1
            else:
                self.stats.plan_hits += 1
        return value

    def put_plan(self, version: int, key: tuple, value: Any) -> None:
        """Store a plan entry computed at ``version``."""
        self._plans.put((int(version),) + key, value)

    # -- management ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._results) + len(self._plans)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TieredQueryCache(capacity={self.capacity}, "
            f"results={len(self._results)}, plans={len(self._plans)})"
        )
