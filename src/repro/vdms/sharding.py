"""Sharded storage and concurrent query execution.

This module turns the single-shard, serial-search collection into a
scatter-gather serving engine:

* :class:`Shard` — one horizontal partition of a collection.  Every shard
  owns its own :class:`~repro.vdms.segment.SegmentManager` and its own
  per-sealed-segment indexes, so shards can be loaded, indexed and searched
  independently of each other.
* routing — :func:`shard_assignments` maps external row ids to shards under
  two policies: ``"hash"`` (a splitmix64 scramble of the id, uniform and
  insertion-order independent) and ``"range"`` (contiguous id blocks
  round-robined across shards, preserving locality of sequential ids).
* :func:`merge_topk` — the vectorized heap-merge of the gather phase: per
  shard top-k candidate lists are combined into the global top-k in one
  argpartition/argsort pass, with ``-1``-padded (invalid) entries pushed to
  the tail.  The merge is exact, so sharded search over exact indexes is
  identical to an unsharded scan (the property the oracle suite pins down).
* :class:`QueryScheduler` — the per-request splitter of the serving path:
  the workload's query batch is split into individual single-query requests,
  handed to the (thread-safe) collection's ``search_many`` in one call —
  which answers them, cache hits and misses in submission order, with one
  batched scatter-gather — and the per-request results are reassembled into
  one batch answer.  Timing stays in the simulated domain:
  the scheduler records each request's per-shard counted work and
  :meth:`repro.vdms.cost_model.CostModel.concurrent_qps` replays those shard
  tasks through a deterministic event simulation over the configured worker
  budget — measured concurrency scheduling instead of the cost model's flat
  concurrency multiplier.  Real concurrent traffic comes from the callers'
  own threads (the serving front-end's admission workers, or the stress
  suite's searcher threads), never from a pool inside the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.vdms.index.base import SearchStats, VectorIndex
from repro.vdms.request import FilterStats, SearchRequest
from repro.vdms.segment import SegmentManager, SegmentState
from repro.vdms.system_config import ROUTING_POLICIES, SystemConfig

__all__ = [
    "ROUTING_POLICIES",
    "RANGE_BLOCK_ROWS",
    "shard_assignments",
    "merge_topk",
    "Shard",
    "SegmentView",
    "QueryScheduler",
    "ScheduleTrace",
    "simulate_makespan",
]

#: Contiguous ids per block under the ``"range"`` policy.  Blocks are
#: round-robined across shards, so sequentially assigned ids land together
#: (locality) while the load still balances once the corpus spans many
#: blocks.
RANGE_BLOCK_ROWS = 256


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 arithmetic, wrapping)."""
    z = values.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def shard_assignments(ids: np.ndarray, shard_num: int, policy: str = "hash") -> np.ndarray:
    """Map external row ids to shard indexes under a routing policy.

    Routing depends only on the id and the (shard_num, policy) pair — never
    on insertion order or current shard sizes — so inserts, deletes and
    lookups of the same id always agree on the owning shard.
    """
    if policy not in ROUTING_POLICIES:
        raise ValueError(f"unknown routing policy {policy!r}; expected one of {ROUTING_POLICIES}")
    ids = np.asarray(ids, dtype=np.int64)
    shard_num = int(shard_num)
    if shard_num <= 1:
        return np.zeros(ids.shape, dtype=np.int64)
    if policy == "hash":
        return (_splitmix64(ids) % np.uint64(shard_num)).astype(np.int64)
    return (ids // RANGE_BLOCK_ROWS) % shard_num


def merge_topk(
    ids_list: Sequence[np.ndarray],
    distances_list: Sequence[np.ndarray],
    top_k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard top-k candidate lists into the global top-k.

    Parameters
    ----------
    ids_list:
        Candidate id arrays, one per shard, each of shape ``(q, k_i)``
        (``k_i`` may differ per shard, including 0 for empty shards), padded
        with ``-1`` where a shard returned fewer than ``k_i`` rows.
    distances_list:
        Matching distance arrays (smaller is better).
    top_k:
        Requested result width.  The output is always ``(q, top_k)``, padded
        with ``-1`` ids / ``inf`` distances when fewer than ``top_k`` valid
        candidates exist globally.

    The merge is a single vectorized select over the concatenated candidate
    lists, equivalent to (but cheaper than) a per-query binary heap.  Equal
    distances resolve by ascending external id, so the merge is invariant to
    the order of the per-shard lists even for degenerate duplicate vectors —
    what keeps sharded results bit-identical to the unsharded scan.
    """
    top_k = int(top_k)
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    if len(ids_list) != len(distances_list):
        raise ValueError("ids_list and distances_list must pair up shard by shard")
    if not ids_list:
        raise ValueError("cannot merge zero candidate lists")
    non_empty_ids = [np.asarray(a) for a in ids_list if np.asarray(a).shape[1] > 0]
    non_empty_distances = [np.asarray(a) for a in distances_list if np.asarray(a).shape[1] > 0]
    if not non_empty_ids:
        # Every list is zero-wide — a filter that matched nothing anywhere.
        # The under-full contract applies: full ``-1`` / ``inf`` padding.
        num_queries = int(np.asarray(ids_list[0]).shape[0])
        return (
            np.full((num_queries, top_k), -1, dtype=np.int64),
            np.full((num_queries, top_k), np.inf),
        )
    merged_ids = np.concatenate(non_empty_ids, axis=1)
    # Merge in the input dtype (float32 on the serving path): per-pair
    # distances are already shape-independent by the kernel's determinism
    # contract, so the old widen-to-float64 pass bought nothing except a
    # second full copy of the candidate matrix per merge.
    merged_distances = np.concatenate(non_empty_distances, axis=1)
    if not np.issubdtype(merged_distances.dtype, np.floating):
        merged_distances = merged_distances.astype(np.float64)
    # Invalid (-1 padded) entries carry infinite distance, so a plain top-k
    # select pushes them to the tail automatically.  The inf literal is cast
    # to the merge dtype up front: a raw python-float ``np.inf`` would
    # promote the whole matrix back to float64 under value-based casting.
    merged_distances = np.where(
        merged_ids < 0, merged_distances.dtype.type(np.inf), merged_distances
    )
    # Lexicographic (distance, id) select: distance is the primary key (the
    # last lexsort key is the most significant), ties break by ascending id.
    order = np.lexsort((merged_ids, merged_distances), axis=1)
    positions = order[:, :top_k]
    ordered = np.take_along_axis(merged_distances, positions, axis=1)
    final_ids = np.take_along_axis(merged_ids, positions, axis=1)
    final_ids = np.where(np.isfinite(ordered), final_ids, -1).astype(np.int64)
    if final_ids.shape[1] < top_k:
        pad = top_k - final_ids.shape[1]
        final_ids = np.pad(final_ids, ((0, 0), (0, pad)), constant_values=-1)
        ordered = np.pad(ordered, ((0, 0), (0, pad)), constant_values=np.inf)
    return final_ids, ordered


class SegmentView(NamedTuple):
    """One live segment as a search sees it, captured under the collection lock.

    ``index`` serves the segment: its built per-segment index when it has
    one (``indexed``), otherwise the segment's cached exact
    :class:`~repro.vdms.index.flat.FlatIndex` over its live rows — growing
    segments, sealed segments whose index was invalidated by deletes, and
    segments sealed since the last build.  Either way the search path reaches
    it through its type's ``search_run``.  ``attributes`` are the segment's live
    attribute columns, row-aligned with the index's stored positions (an
    index is always built over the segment's current live rows — deletes
    drop it), which is what lets the query planner evaluate attribute
    filters per segment.

    Deletions *replace* segment arrays (and tombstone bitmaps, and the
    cached live views and exact indexes derived from them) rather than
    mutating them, so capturing the references under the lock gives every
    search a coherent state to compute on, however many mutations land
    while it runs.  The view is zero-copy: an unindexed segment's index
    scans the segment's own storage (sealed arrays are frozen read-only at
    seal time — see :meth:`repro.vdms.segment.Segment.freeze_arrays` — and
    a debug assert in :meth:`Shard.snapshot` enforces it).
    """

    segment_id: int
    index: VectorIndex
    attributes: dict[str, np.ndarray]
    indexed: bool


class Shard:
    """One horizontal partition of a collection.

    A shard owns its rows end to end: the segment manager that stores them,
    the sealing policy applied to them and the per-sealed-segment indexes
    that serve them.  The owning collection routes rows in and merges
    results out; nothing inside a shard is aware of its siblings, which is
    what makes per-shard index builds and searches embarrassingly parallel.
    """

    def __init__(self, shard_id: int, dimension: int, system_config: SystemConfig) -> None:
        self.shard_id = int(shard_id)
        self.segments = SegmentManager(dimension=int(dimension), system_config=system_config)
        self.indexes: dict[int, VectorIndex] = {}

    # -- mutation ---------------------------------------------------------------

    def insert(
        self,
        vectors: np.ndarray,
        ids: np.ndarray,
        attributes: dict[str, np.ndarray] | None = None,
    ) -> int:
        """Buffer rows routed to this shard (scalar attributes included)."""
        if vectors.shape[0] == 0:
            return 0
        return self.segments.insert(vectors, ids, attributes=attributes)

    def flush(self) -> int:
        """Seal full segments; existing sealed segments keep their indexes.

        A flush only repartitions the growing tail of the data: previously
        sealed segments are untouched, so their per-segment indexes remain
        valid and keep serving.  Indexes whose segment vanished (the growing
        segment merged back into the stream never had one, but defensive
        against future layouts) are dropped.  Newly sealed segments start
        unindexed — brute-forced until ``create_index`` or maintenance
        re-indexes them incrementally.
        """
        self.segments.flush()
        live = {segment.segment_id for segment in self.segments.sealed_segments}
        for segment_id in list(self.indexes):
            if segment_id not in live:
                del self.indexes[segment_id]
        return len(self.segments.sealed_segments)

    def delete(self, ids: np.ndarray) -> int:
        """Delete rows by id; drops the indexes of touched sealed segments."""
        deleted, touched_sealed = self.segments.delete(ids)
        for segment_id in touched_sealed:
            self.indexes.pop(segment_id, None)
        return deleted

    # -- reading ----------------------------------------------------------------

    def snapshot(self, metric: str) -> list[SegmentView]:
        """Capture the current per-segment layout for a lock-free search.

        One :class:`SegmentView` per live segment, sealed segments first,
        then growing.  Nothing heavy runs here: a built index is captured by
        reference and an unindexed segment hands out its cached exact index
        (a cheap wrapper over the segment's own arrays, never copies — its
        cast/norm members materialize on first scan, outside the lock).
        Sealed arrays must already be frozen read-only, which the debug
        assert below enforces.
        """
        views: list[SegmentView] = []
        for segment in self.segments.sealed_segments + self.segments.growing_segments:
            index = self.indexes.get(segment.segment_id)
            vectors, _, attributes = segment.live_view()
            assert segment.state is SegmentState.GROWING or not vectors.flags.writeable, (
                f"sealed segment {segment.segment_id} serves a writable array; "
                "zero-copy snapshots require frozen sealed storage"
            )
            indexed = index is not None
            if not indexed:
                index = segment.exact_index(metric)
            views.append(SegmentView(segment.segment_id, index, attributes, indexed))
        return views

    @property
    def num_rows(self) -> int:
        """Rows stored in this shard (excluding unflushed buffers)."""
        return self.segments.num_rows

    def index_bytes(self) -> int:
        """Bytes occupied by this shard's index structures."""
        return sum(index.memory_bytes() for index in self.indexes.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Shard(id={self.shard_id}, rows={self.num_rows}, indexes={len(self.indexes)})"


# -- concurrent query execution ------------------------------------------------------


@dataclass
class ScheduleTrace:
    """What the scheduler observed while driving a workload.

    ``request_shard_stats`` holds, per request in submission order, the
    counted work of each shard task of that request — the raw material the
    cost model's event simulation turns into a measured concurrent QPS.
    """

    num_requests: int
    request_shard_stats: list[list[SearchStats]] = field(default_factory=list)

    def request_stats(self) -> list[SearchStats]:
        """Each request's counted work: its shard tasks merged into one record."""
        merged: list[SearchStats] = []
        for shard_stats in self.request_shard_stats:
            request_total = SearchStats(shard_stats[0].num_queries)
            for stats in shard_stats:
                request_total.merge(stats)
            merged.append(request_total)
        return merged


def simulate_makespan(task_seconds: Sequence[Sequence[float]], workers: int) -> float:
    """Deterministic makespan of shard tasks list-scheduled over ``workers``.

    ``task_seconds[i]`` holds the service times of request *i*'s shard
    tasks.  Requests arrive open-loop (all queued at time zero) and tasks
    are assigned greedily, in submission order, to the least-loaded worker —
    the same discipline a work-stealing pool converges to, minus the
    nondeterminism.  With one worker this degenerates to the serial sum, so
    serial and concurrent replays stay directly comparable.
    """
    workers = max(1, int(workers))
    loads = [0.0] * workers
    for request_tasks in task_seconds:
        for seconds in request_tasks:
            slot = loads.index(min(loads))
            loads[slot] += float(seconds)
    return max(loads)


class QueryScheduler:
    """Drives a query batch as individual requests.

    The scheduler is the serving half of the scatter-gather engine: it
    splits a workload's query batch into per-query requests, hands them to
    the collection's ``search_many`` at once — one batched scatter-gather
    whose per-request results, cache counters and counted work are those of
    serving the requests one after another — and reassembles the results in
    submission order.  It owns no threads: concurrency is the callers' —
    any number of threads may call :meth:`run` on the same collection at
    once, which is the code path the concurrency stress suite hammers.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.vdms import Collection, SystemConfig
    >>> config = SystemConfig(shard_num=2, search_threads=4)
    >>> collection = Collection("docs", 8, metric="l2", system_config=config)
    >>> _ = collection.insert(np.random.default_rng(0).normal(size=(64, 8)))
    >>> _ = collection.flush()
    >>> _ = collection.create_index("FLAT")
    >>> result, trace = QueryScheduler().run(
    ...     collection.search_many, np.zeros((6, 8), dtype=np.float32), top_k=3)
    >>> result.ids.shape, trace.num_requests
    ((6, 3), 6)
    """

    def run(
        self,
        search_many: Callable[[list[SearchRequest]], Sequence[Any]],
        queries,
        top_k: int | None = None,
    ):
        """Execute every query as its own request; returns ``(result, trace)``.

        ``queries`` is either a plain query array (with ``top_k``) or a
        :class:`~repro.vdms.request.SearchRequest`, whose filter and
        strategy knobs are pushed down to every per-query request.  Either
        way ``search_many`` — a collection's
        :meth:`~repro.vdms.collection.Collection.search_many` — is handed
        the single-query request slices in one call and must return one
        :class:`~repro.vdms.collection.SearchResult`-like object per
        request, with ``ids``, ``distances``, ``stats`` and (optionally)
        ``shard_stats``.
        """
        from repro.vdms.collection import SearchResult

        request = SearchRequest.coerce(queries, top_k)
        num_requests = int(request.queries.shape[0])
        trace = ScheduleTrace(num_requests=num_requests)
        if num_requests == 0:
            return (
                SearchResult(
                    ids=np.empty((0, request.top_k), dtype=np.int64),
                    distances=np.empty((0, request.top_k), dtype=np.float32),
                    stats=SearchStats(),
                ),
                trace,
            )

        outcomes = search_many(
            [request.slice(request_id, request_id + 1) for request_id in range(num_requests)]
        )

        total = SearchStats()
        ids_rows: list[np.ndarray] = []
        distance_rows: list[np.ndarray] = []
        for outcome in outcomes:
            ids_rows.append(outcome.ids)
            distance_rows.append(outcome.distances)
            stats = outcome.stats
            total.accumulate(stats)
            shard_stats = getattr(outcome, "shard_stats", None) or [stats]
            trace.request_shard_stats.append(list(shard_stats))

        ids = np.concatenate(ids_rows, axis=0)
        distances = np.concatenate(distance_rows, axis=0)
        # A filtered request: carry the (identical per-request) plan and
        # rebuild the aggregate filter stats from the accumulated counters.
        plan = next(
            (getattr(outcome, "plan", None) for outcome in outcomes
             if getattr(outcome, "plan", None) is not None),
            None,
        )
        filter_stats = None
        if plan is not None:
            filter_stats = FilterStats.from_plan(plan, total)
        return (
            SearchResult(
                ids=ids,
                distances=distances,
                stats=total,
                plan=plan,
                filter_stats=filter_stats,
            ),
            trace,
        )
