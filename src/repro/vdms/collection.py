"""Collections: the unit of storage, indexing and search.

A collection owns one or more :class:`~repro.vdms.sharding.Shard` horizontal
partitions (``SystemConfig.shard_num``), routes inserted rows to shards by id
(``SystemConfig.routing_policy``), builds one index per sealed segment inside
each shard, and answers top-K searches with a scatter-gather plan: the query
batch fans out to every shard (every segment through the index that serves
it — growing or delete-invalidated segments through their own exact FLAT
index) and the per-shard top-k lists are combined by a vectorized heap-merge.
Several requests (:meth:`Collection.search_many`) share one scatter-gather
and are split back into the results each would get alone, query cache
included; a single search is a call of one.  Mutations and search snapshots
are serialized by a collection lock, so concurrent searches keep computing
on a consistent state while inserts, flushes and deletes land.
"""

from __future__ import annotations

import copy
import operator
import threading
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.vdms.cache import (
    CachedResult,
    PendingResult,
    TieredQueryCache,
    canonical_filter_key,
    request_cache_key,
)
from repro.vdms.cost_model import CollectionProfile
from repro.vdms.distance import METRICS
from repro.vdms.durability import (
    CheckpointReport,
    DurabilityManager,
    FileSystem,
    OsFileSystem,
    RecoveryReport,
)
from repro.vdms.errors import DurabilityError, IndexBuildError, IndexNotBuiltError
from repro.vdms.index import INDEX_REGISTRY, create_index
from repro.vdms.index.base import BuildStats, SearchStats, VectorIndex
from repro.vdms.maintenance import MaintenanceReport, MaintenanceWorker
from repro.vdms.request import (
    AUTO_PRE_FILTER_SELECTIVITY,
    AttributeFilter,
    FilterStats,
    SearchPlan,
    SearchRequest,
    SegmentPlan,
)
from repro.vdms.segment import Segment, SegmentState
from repro.vdms.sharding import SegmentView, Shard, merge_topk, shard_assignments
from repro.vdms.system_config import SystemConfig

__all__ = ["MAX_DIMENSION", "Collection", "SearchResult", "checked_spec"]

#: The largest vector dimension a collection accepts, Milvus's own limit.
MAX_DIMENSION = 32_768


def checked_spec(dimension: Any, metric: str) -> int:
    """``dimension`` as an ``int`` once it and ``metric`` are known good.

    The dimension must be integral (``operator.index``: a fractional or
    string dimension is refused, not truncated, and so is a bool) and in
    ``1..MAX_DIMENSION``; the metric must be one of ``METRICS``.  Anything
    else raises ``ValueError``.  A server checks a spec with this before it
    destroys the durable state a new collection replaces.
    """
    if metric not in METRICS:
        raise ValueError(f"unsupported metric {metric!r}")
    try:
        if isinstance(dimension, bool):
            raise TypeError
        value = operator.index(dimension)
    except TypeError:
        raise ValueError(f"dimension must be an integer, got {dimension!r}") from None
    if not 1 <= value <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {value}")
    return value


@dataclass
class SearchResult:
    """Result of a top-K search over a collection.

    Attributes
    ----------
    ids:
        Retrieved external ids, shape ``(q, top_k)``, padded with ``-1``
        (a filter matching fewer than ``top_k`` live rows pads the tail
        with id ``-1`` / distance ``inf``, bit-identically in every
        serving layout).
    distances:
        Corresponding metric values (smaller is better).
    stats:
        Counted work across all shards and segments, one row per query
        (:class:`~repro.vdms.index.base.SearchStats`).
    shard_stats:
        Per-shard counted work of the scatter phase, in shard order (one
        entry per shard, including empty shards, which still cost a
        scatter round-trip).  ``None`` for results assembled outside the
        collection's own planner.
    plan:
        The resolved :class:`~repro.vdms.request.SearchPlan` of a filtered
        request (``None`` for unfiltered searches).
    filter_stats:
        Aggregate :class:`~repro.vdms.request.FilterStats` of a filtered
        request — rows scanned building allow-masks, candidates dropped by
        post-filtering, per-strategy segment counts (``None`` unfiltered).
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: SearchStats
    shard_stats: list[SearchStats] | None = None
    plan: SearchPlan | None = None
    filter_stats: FilterStats | None = None


class Collection:
    """A named, shardable collection of vectors with per-segment indexes."""

    def __init__(
        self,
        name: str,
        dimension: int,
        metric: str = "angular",
        system_config: SystemConfig | None = None,
        *,
        auto_maintenance: bool = True,
        data_dir: str | None = None,
        filesystem: FileSystem | None = None,
    ) -> None:
        self.dimension = checked_spec(dimension, metric)
        self.name = name
        self.metric = metric
        self.system_config = system_config or SystemConfig()
        self.shard_num = max(1, int(self.system_config.shard_num))
        self.routing_policy = self.system_config.routing_policy
        self._shards = [
            Shard(shard_id, self.dimension, self.system_config)
            for shard_id in range(self.shard_num)
        ]
        self._index_type: str | None = None
        self._index_params: dict[str, Any] = {}
        self._next_auto_id = 0
        self._lock = threading.RLock()
        #: Monotonic mutation counter: every mutation path bumps it under
        #: the lock, and every cache key carries it, so a cached entry can
        #: never be served across a mutation (see :mod:`repro.vdms.cache`).
        self._version = 0
        self._query_cache: TieredQueryCache | None = None
        if self.system_config.cache_policy != "none":
            self._query_cache = TieredQueryCache(self.system_config.cache_capacity)
        #: Whether ``maintenance_mode`` triggers maintenance automatically on
        #: mutations.  The workload replayer disables this and invokes one
        #: deterministic pass itself, so replays stay rerun-stable.
        self.auto_maintenance = bool(auto_maintenance)
        self._maintenance_worker: MaintenanceWorker | None = None
        #: Attached durability tier, or ``None`` for an in-memory collection.
        self._durability: DurabilityManager | None = None
        #: What :meth:`recover` found; ``None`` for a freshly created collection.
        self.recovery_report: RecoveryReport | None = None
        if data_dir is not None:
            if self.system_config.durability_mode == "off":
                raise DurabilityError(
                    "a data directory requires durability_mode 'wal' or "
                    "'wal+checkpoint'; it is 'off'"
                )
            self._durability = DurabilityManager.create(
                filesystem or OsFileSystem(),
                data_dir,
                name=name,
                dimension=self.dimension,
                metric=metric,
                system_config=self.system_config,
                sync_policy=self.system_config.wal_sync_policy,
            )
        elif filesystem is not None:
            raise ValueError("filesystem is only meaningful together with data_dir")

    # -- ingestion ---------------------------------------------------------------

    def insert(
        self,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        attributes: Mapping[str, np.ndarray] | None = None,
    ) -> int:
        """Insert vectors, routing each row to its shard; returns rows accepted.

        ``attributes`` optionally carries scalar payload columns (one int
        value per row, categoricals as integer codes); they are routed,
        sealed, tombstoned and compacted together with their rows and are
        what :class:`~repro.vdms.request.AttributeFilter` predicates read.
        Every value must be finite: a NaN or infinite row is stored but no
        search can return it.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if not np.isfinite(vectors).all():
            raise ValueError("vectors must hold finite numbers")
        return self._insert_rows(vectors, ids, attributes)

    def _insert_rows(
        self,
        vectors: np.ndarray,
        ids: np.ndarray | None,
        attributes: Mapping[str, np.ndarray] | None,
    ) -> int:
        """:meth:`insert` without its finiteness check: recovery replays a
        logged batch through this, so a log written before the check still
        recovers."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.ndim != 2 or vectors.shape[1] != self.dimension:
            raise ValueError(f"expected vectors of dimension {self.dimension}")
        columns: dict[str, np.ndarray] = {}
        for name, column in (attributes or {}).items():
            column = np.asarray(column, dtype=np.int64)
            if column.shape != (vectors.shape[0],):
                raise ValueError(
                    f"attribute column {name!r} must hold one value per inserted row"
                )
            columns[str(name)] = column
        with self._lock:
            if ids is None:
                ids = np.arange(self._next_auto_id, self._next_auto_id + vectors.shape[0], dtype=np.int64)
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape[0] != vectors.shape[0]:
                raise ValueError("ids must match the number of vectors")
            self._next_auto_id = int(max(self._next_auto_id, ids.max() + 1)) if ids.size else self._next_auto_id
            if self._durability is not None:
                # WAL-before-apply: the fully validated batch (resolved ids,
                # float32 vectors, normalized columns) is logged, then applied
                # in memory — which cannot fail — then acknowledged, so a
                # logged record and an acknowledged insert imply each other.
                self._durability.log_insert(ids, vectors, columns)
            assignments = shard_assignments(ids, self.shard_num, self.routing_policy)
            accepted = 0
            for shard in self._shards:
                mask = assignments == shard.shard_id
                accepted += shard.insert(
                    vectors[mask],
                    ids[mask],
                    attributes={name: column[mask] for name, column in columns.items()},
                )
            self._version += 1
        return accepted

    def flush(self) -> int:
        """Seal full segments in every shard; returns the total sealed count.

        Previously sealed segments are untouched and keep their per-segment
        indexes; only the growing tail is repartitioned.  Newly sealed
        segments start unindexed (brute-forced) until ``create_index`` or
        maintenance re-indexes them incrementally.
        """
        with self._lock:
            if self._durability is not None:
                self._durability.log_flush()
            sealed = sum(shard.flush() for shard in self._shards)
            # Conservative bump even when nothing sealed: a flush may
            # repartition the growing tail (rewriting segments without
            # changing the live multiset), and a cached entry must never
            # survive any segment rewrite.
            self._version += 1
        self._maintenance_hook()
        return sealed

    def delete(self, ids: np.ndarray) -> int:
        """Delete rows by id; returns the number of rows removed.

        Deletes are broadcast to every shard (routing tells us the owner,
        but broadcasting keeps the operation correct even for ids inserted
        under a different routing policy).  Deleting from a sealed segment
        tombstones the rows and invalidates that segment's index (the index
        still references the removed rows): the stale index is dropped and
        the segment's live rows are searched by brute force until the
        maintenance subsystem compacts or incrementally re-indexes it
        (``maintenance_mode`` in {"inline", "background"}, or an explicit
        :meth:`run_maintenance`) — with maintenance off, deletions degrade
        latency until ``create_index`` is called again, exactly the churn
        effect online tuning has to react to.
        """
        with self._lock:
            ids = np.asarray(ids, dtype=np.int64)
            if self._durability is not None:
                self._durability.log_delete(ids)
            deleted = sum(shard.delete(ids) for shard in self._shards)
            self._version += 1
        self._maintenance_hook()
        return deleted

    # -- maintenance --------------------------------------------------------------

    def _maintenance_hook(self) -> None:
        """Trigger automatic maintenance after a mutation, per the configured mode."""
        if not self.auto_maintenance:
            return
        mode = self.system_config.maintenance_mode
        if mode == "inline":
            self.run_maintenance()
        elif mode == "background":
            # Check-then-create under the lock: concurrent mutations must
            # never spawn duplicate (and then orphaned) worker threads.
            with self._lock:
                if self._maintenance_worker is None or not self._maintenance_worker.is_alive:
                    self._maintenance_worker = MaintenanceWorker(self)
                worker = self._maintenance_worker
            worker.notify()

    @property
    def maintenance_worker(self) -> MaintenanceWorker | None:
        """The background maintenance worker, if one has been started."""
        return self._maintenance_worker

    def stop_maintenance(self) -> None:
        """Stop the background maintenance worker (if running)."""
        with self._lock:
            worker = self._maintenance_worker
            self._maintenance_worker = None
        if worker is not None:
            worker.stop()

    def run_maintenance(self) -> MaintenanceReport:
        """Run one compaction + incremental re-indexing pass over every shard.

        Two per-segment steps, both under the mutation/snapshot lock so
        in-flight searches keep serving the coherent snapshot they captured:

        1. every shard's :meth:`~repro.vdms.segment.SegmentManager.compact`
           physically drops tombstoned rows and merges undersized survivors
           into right-sized sealed segments (per ``segment_max_size`` and
           ``compaction_trigger_ratio``), dropping the indexes of the
           segments it replaced;
        2. if an index is built, every sealed segment *without* an index —
           freshly compacted segments, delete-invalidated segments below the
           compaction trigger, and segments sealed by a flush since the last
           build — gets its per-segment index rebuilt over its live rows.

        A full-collection rebuild never happens: untouched segments keep
        their indexes.  Returns a
        :class:`~repro.vdms.maintenance.MaintenanceReport` the cost model
        can charge (:meth:`repro.vdms.cost_model.CostModel.maintenance_seconds`).
        """
        report = MaintenanceReport()
        with self._lock:
            index_type = self._index_type
            params = dict(self._index_params)
            for shard in self._shards:
                result = shard.segments.compact()
                for segment_id in result.dropped_segment_ids:
                    shard.indexes.pop(segment_id, None)
                report.segments_compacted += len(result.dropped_segment_ids)
                report.segments_created += len(result.new_segments)
                report.rows_dropped += result.rows_dropped
                report.rows_rewritten += result.rows_rewritten
                if index_type is None:
                    continue
                for segment in shard.segments.sealed_segments:
                    if segment.segment_id in shard.indexes:
                        continue
                    index = self._build_segment_index(segment, index_type, params)
                    shard.indexes[segment.segment_id] = index
                    segment.state = SegmentState.SEALED
                    report.segments_reindexed += 1
                    report.build_stats.append(index.build_stats)
            # Conservative bump even for a no-op pass: compaction rewrites
            # segments without changing the live multiset, and risking a
            # stale hit across any rewrite is not worth the saved misses.
            self._version += 1
            # Compaction itself is never WAL-logged (it is content-invariant
            # and recovery re-derives the layout), but under
            # "wal+checkpoint" every maintenance pass also persists the
            # rewritten segments and truncates the log.
            if (
                self._durability is not None
                and self.system_config.durability_mode == "wal+checkpoint"
            ):
                report.checkpoint = self._checkpoint_locked()
        return report

    # -- durability ---------------------------------------------------------------

    @property
    def durability(self) -> DurabilityManager | None:
        """The attached durability tier, or ``None`` for an in-memory collection."""
        return self._durability

    def _attach_durability(self, manager: DurabilityManager) -> None:
        """Adopt a durability manager (used by :func:`recover_collection`)."""
        with self._lock:
            self._durability = manager

    def _checkpoint_locked(self) -> CheckpointReport:
        """Checkpoint under the already-held collection lock.

        Pending (unflushed) rows are sealed through the normal logged
        flush first, so the persisted segment population covers every
        acknowledged mutation before the WAL is truncated.
        """
        if self._durability is None:
            raise DurabilityError(
                f"collection {self.name!r} has no durability tier attached"
            )
        if any(shard.segments.pending_rows for shard in self._shards):
            self._durability.log_flush()
            for shard in self._shards:
                shard.flush()
            self._version += 1
        return self._durability.checkpoint(self)

    def checkpoint(self) -> CheckpointReport:
        """Seal + persist every segment and truncate the WAL.

        Valid in any durability mode with a data directory attached (the
        ``"wal+checkpoint"`` mode merely runs this automatically during
        maintenance).  Returns what the checkpoint did.
        """
        with self._lock:
            return self._checkpoint_locked()

    def close(self) -> None:
        """Stop background work and release the durability tier's handles.

        The data directory stays on disk and remains recoverable; a closed
        collection must not be mutated further.
        """
        self.stop_maintenance()
        with self._lock:
            if self._durability is not None:
                self._durability.close()

    @classmethod
    def recover(
        cls,
        data_dir: str,
        *,
        filesystem: FileSystem | None = None,
        auto_maintenance: bool = True,
        mmap_vectors: bool = False,
    ) -> "Collection":
        """Recover a collection from its data directory.

        Loads the newest checkpoint manifest (persisted segments are
        served read-only, through ``np.memmap`` when ``mmap_vectors``),
        replays the WAL tail, truncates any torn tail and rebuilds the
        last logged index.  What was found is recorded on the returned
        collection's ``recovery_report``.  Raises
        :class:`~repro.vdms.errors.RecoveryError` when the directory
        holds nothing recoverable.
        """
        from repro.vdms.durability import recover_collection

        collection, report = recover_collection(
            data_dir,
            filesystem=filesystem,
            auto_maintenance=auto_maintenance,
            mmap_vectors=mmap_vectors,
        )
        collection.recovery_report = report
        return collection

    # -- indexing -----------------------------------------------------------------

    @property
    def index_type(self) -> str | None:
        """Currently built index type, or ``None``."""
        return self._index_type

    @property
    def has_index(self) -> bool:
        """Whether an index is currently built over the sealed segments."""
        return self._index_type is not None

    @property
    def shards(self) -> list[Shard]:
        """The shards of this collection, in shard-id order."""
        return list(self._shards)

    @property
    def version(self) -> int:
        """The monotonic mutation counter (read under the lock)."""
        with self._lock:
            return self._version

    @property
    def query_cache(self) -> TieredQueryCache | None:
        """The tiered query cache, or ``None`` when ``cache_policy`` is ``"none"``."""
        return self._query_cache

    def drop_index(self) -> None:
        """Drop the current index (the collection remains searchable by brute force only)."""
        with self._lock:
            for shard in self._shards:
                shard.indexes.clear()
            if self._durability is not None and self._index_type is not None:
                self._durability.log_drop_index()
            self._index_type = None
            self._index_params = {}
            self._version += 1

    @staticmethod
    def _with_search_params(index: VectorIndex, params: Mapping[str, Any]) -> VectorIndex:
        """A copy of ``index`` with search-time parameters applied.

        An index object is shared by the in-flight search snapshots that
        captured it, so search-time parameters are never mutated in place: a
        shallow copy shares the (read-only) index structures while keeping
        the scalar search knobs private, which is what lets
        :meth:`set_search_params` reconfigure serving without tearing
        searches that still hold the old object.
        """
        configured = copy.copy(index)
        configured.params = dict(index.params)
        configured.set_search_params(**params)
        return configured

    def _build_segment_index(
        self, segment: Segment, index_type: str, params: dict[str, Any]
    ) -> VectorIndex:
        vectors, ids = segment.live_arrays()
        index = create_index(index_type, metric=self.metric, **params)
        index.build(vectors, ids)
        return index

    def create_index(
        self,
        index_type: str,
        params: Mapping[str, Any] | None = None,
    ) -> list[BuildStats]:
        """Build (or rebuild) the index over every sealed segment of every shard.

        Parameters
        ----------
        index_type:
            One of the registered index types.
        params:
            The holistic parameter mapping; only the parameters relevant to
            ``index_type`` are used.

        Returns
        -------
        list of BuildStats
            One entry per sealed segment, in (shard, segment) order: the
            stats of the builds this call made.
        """
        if index_type not in INDEX_REGISTRY:
            raise IndexBuildError(f"unknown index type {index_type!r}")
        params = dict(params or {})

        stats: list[BuildStats] = []
        with self._lock:
            for shard in self._shards:
                shard.indexes.clear()
                for segment in shard.segments.sealed_segments:
                    index = self._build_segment_index(segment, index_type, params)
                    shard.indexes[segment.segment_id] = index
                    segment.state = SegmentState.SEALED
                    stats.append(index.build_stats)
            # Logged after the build succeeds (still under the lock): the
            # WAL must only carry index builds that can be replayed, and a
            # failed build leaves neither state nor record behind.
            if self._durability is not None:
                self._durability.log_create_index(index_type, params)
            self._index_type = index_type
            self._index_params = params
            self._version += 1
        return stats

    def set_search_params(self, **params: Any) -> None:
        """Update search-time parameters on every per-segment index.

        Indexes are replaced by reconfigured copies rather than mutated, so
        searches holding a snapshot keep serving under the parameters they
        started with.  An out-of-range value raises ``ValueError`` before any
        index is replaced, so a rejected call changes nothing.
        """
        VectorIndex.checked_search_params(**params)
        with self._lock:
            for shard in self._shards:
                for segment_id, index in list(shard.indexes.items()):
                    shard.indexes[segment_id] = self._with_search_params(index, params)
            self._index_params.update(params)
            # Search-time parameters change results, so cached entries
            # computed under the old parameters must become unreachable.
            self._version += 1

    # -- search --------------------------------------------------------------------

    @staticmethod
    def _allow_mask(
        request_filter: AttributeFilter, attributes: Mapping[str, np.ndarray], rows: int
    ) -> np.ndarray:
        """Evaluate the filter over one segment's live attribute columns."""
        if request_filter.field in attributes:
            return request_filter.mask(attributes)
        # A segment without the column serves no matching rows.
        return np.zeros(rows, dtype=bool)

    def _plan_segment(
        self, request_filter: AttributeFilter, view: SegmentView, strategy: str, shard_id: int
    ) -> tuple[np.ndarray, SegmentPlan]:
        """Resolve one segment's allow-mask and filter-execution strategy.

        The selectivity estimate is the evaluated mask's match fraction
        (exact for the scalar columns stored here; a real system would
        sample or keep column statistics).  Unindexed segments always
        pre-filter: a masked scan strictly dominates scanning every row and
        dropping.  ``"auto"`` resolves per segment via
        :data:`~repro.vdms.request.AUTO_PRE_FILTER_SELECTIVITY`.

        How a pre-filter masked exact scan applies the mask is the scan's own
        decision (:func:`~repro.vdms.distance.masked_topk`); the plan does
        not record it.
        """
        rows = view.index.size
        mask = self._allow_mask(request_filter, view.attributes, rows)
        allowed = int(mask.sum())
        selectivity = allowed / rows if rows else 0.0
        if not view.indexed:
            resolved = "pre"
        elif strategy == "auto":
            resolved = "pre" if selectivity <= AUTO_PRE_FILTER_SELECTIVITY else "post"
        else:
            resolved = strategy
        return mask, SegmentPlan(
            shard_id=shard_id,
            segment_id=view.segment_id,
            strategy=resolved,
            selectivity=selectivity,
            allowed_rows=allowed,
            live_rows=rows,
            indexed=view.indexed,
        )

    def _plan_snapshots(
        self, request: SearchRequest, snapshots: list[list[SegmentView]]
    ) -> tuple[SearchPlan, list[list[tuple[np.ndarray, SegmentPlan]]]]:
        """Build the :class:`SearchPlan` of a filtered request.

        Returns the plan plus, per shard, the ``(allow_mask, segment_plan)``
        pairs aligned with the snapshot's views, which the scatter phase
        executes.
        """
        strategy, overfetch = request.filter_knobs(self.system_config)
        shard_plans = [
            [self._plan_segment(request.filter, view, strategy, shard_id) for view in views]
            for shard_id, views in enumerate(snapshots)
        ]
        plan = SearchPlan(
            strategy=strategy,
            overfetch_factor=overfetch,
            segments=tuple(
                segment_plan for planned in shard_plans for _, segment_plan in planned
            ),
        )
        return plan, shard_plans

    def _planned(
        self,
        request: SearchRequest,
        snapshots: list[list[SegmentView]],
        version: int,
        cache: TieredQueryCache | None,
    ) -> tuple[SearchPlan, list[list[tuple[np.ndarray, SegmentPlan]]], bool]:
        """The plan and allow-masks of a filtered request, via the plan tier.

        Returns ``(plan, shard_plans, evaluated)``.  ``evaluated`` is
        ``False`` on a plan-tier hit: the masks were computed from the same
        version's snapshots (deterministic), so they align segment by
        segment, and the predicate was not re-evaluated for this request.
        """
        if cache is None:
            return (*self._plan_snapshots(request, snapshots), True)
        plan_key = (
            canonical_filter_key(request.filter),
            *request.filter_knobs(self.system_config),
        )
        cached = cache.get_plan(version, plan_key)
        if cached is not None:
            return (*cached, False)
        planned = self._plan_snapshots(request, snapshots)
        cache.put_plan(version, plan_key, planned)
        return (*planned, True)

    def plan_search(self, request: SearchRequest) -> SearchPlan:
        """Plan (without executing) a filtered request against the live state.

        With the tiered query cache enabled, the selectivity estimation —
        one predicate evaluation per live row per segment — runs once per
        (canonical predicate, collection version) and is served from the
        plan tier afterwards.
        """
        if request.filter is None:
            strategy, overfetch = request.filter_knobs(self.system_config)
            return SearchPlan(strategy=strategy, overfetch_factor=overfetch)
        with self._lock:
            version = self._version
            snapshots = [shard.snapshot(self.metric) for shard in self._shards]
        return self._planned(request, snapshots, version, self._query_cache)[0]

    def _search_snapshot(
        self,
        views: list[SegmentView],
        queries: np.ndarray,
        top_k: int,
        plan: SearchPlan | None,
        planned: list[tuple[np.ndarray, SegmentPlan]] | None,
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Top-K over one shard snapshot: one ``search_run`` per index type.

        For a filtered batch ``plan`` is its resolved plan and ``planned``
        the shard's ``(allow_mask, segment_plan)`` pairs, aligned with
        ``views``; both are ``None`` unfiltered.

        The views are grouped by the concrete type of their index, in order
        of first appearance, and each group is answered by its type's
        :meth:`~repro.vdms.index.base.VectorIndex.search_run` — each member's
        search and a merge, or the type's fused form, with the same ids,
        distances and counted work.  A filtered member carries its own
        allow-mask and planned strategy.  The groups' lists are merged once.
        The stats hold each query's scanning work; the mask-building scan is
        a request's, charged by :meth:`search_many`.
        """
        stats = SearchStats(queries.shape[0])
        groups: dict[type, tuple[list[VectorIndex], list[dict[str, Any]]]] = {}
        for position, view in enumerate(views):
            run, options = groups.setdefault(type(view.index), ([], []))
            run.append(view.index)
            if planned is not None:
                mask, segment_plan = planned[position]
                options.append(
                    {
                        "allow_mask": mask,
                        "strategy": segment_plan.strategy,
                        "overfetch_factor": plan.overfetch_factor,
                    }
                )
        if not groups:
            empty_shape = (queries.shape[0], 0)
            return np.empty(empty_shape, dtype=np.int64), np.empty(empty_shape), stats
        results = [
            index_type.search_run(run, queries, top_k, None if planned is None else options)
            for index_type, (run, options) in groups.items()
        ]
        found_ids, found_distances, run_stats = zip(*results)
        for part in run_stats:
            stats.merge(part)
        return (*merge_topk(found_ids, found_distances, top_k), stats)

    def search(self, queries, top_k: int | None = None, *, use_cache: bool = True) -> SearchResult:
        """Scatter-gather top-K search across every shard.

        ``queries`` is either a plain query array paired with ``top_k``
        or a full :class:`~repro.vdms.request.SearchRequest` (everything
        below this entry point sees the request form only).  This is
        ``search_many([request])[0]``: see :meth:`search_many` for the
        cache, the plan and the scatter-gather.
        """
        request = SearchRequest.coerce(queries, top_k)
        return self.search_many([request], use_cache=use_cache)[0]

    def search_many(
        self, requests: Sequence[SearchRequest], *, use_cache: bool = True
    ) -> list[SearchResult]:
        """One result per request, each exactly what searching it alone returns.

        Every request's query dimension is checked first, so a rejected call
        counts no cache lookup.  Then one version and one snapshot serve the
        whole call.  An attribute-filtered request is planned per segment
        from the estimated selectivity (pre-filter vs post-filter, see
        :meth:`plan_search`).

        With ``cache_policy`` enabled, the tiered query cache is looked up in
        request order, under the collection lock (so a hit can never straddle
        a mutation).  A result-tier hit returns the memoized payload (copied,
        and bit-identical to a fresh search at the same version) and charges
        only ``cache_hits`` work.  A miss stores a
        :class:`~repro.vdms.cache.PendingResult` at once, where a loop of
        single searches would store its result: a later duplicate in the call
        hits it, and one evicted meanwhile misses again and re-pays — every
        counter, eviction and hit is the loop's.  The misses' plan-tier
        lookups follow in the same order; a plan-tier hit reuses the
        predicate's allow-masks, and only the request that evaluated them
        pays the mask-building scan (``filter_rows_scanned``, on its first
        query).  ``use_cache=False`` bypasses both tiers (the oracle suite and
        the serving front-end's ``use_cache`` request field use it).

        The misses are answered by one scatter-gather per distinct
        (``top_k``, filter) — one for a replayed workload: their rows fan out
        to every shard (every segment through its index, which for a growing
        or delete-invalidated segment is the segment's own exact FLAT index),
        the per-shard top-k lists are heap-merged, and the rows, per-query
        stats and ``shard_stats`` are split back per request before the
        pending entries are filled.  A filter matching fewer than ``top_k``
        live rows pads the tail with id ``-1`` / distance ``inf``.  A call
        that raises leaves no pending entry behind.
        """
        requests = list(requests)
        for request in requests:
            if request.queries.ndim != 2 or request.queries.shape[1] != self.dimension:
                raise ValueError(f"expected queries of dimension {self.dimension}")
        cache = self._query_cache if use_cache else None
        results: list[SearchResult | None] = [None] * len(requests)
        call = object()
        stored: list[tuple[int, tuple, PendingResult]] = []
        waiting: list[tuple[int, PendingResult]] = []
        with self._lock:
            version = self._version
            if cache is None:
                misses = list(range(len(requests)))
            else:
                misses = []
                for position, request in enumerate(requests):
                    key = request_cache_key(request, self.system_config)
                    hit = cache.get_result(version, key, owner=call)
                    if isinstance(hit, PendingResult):
                        waiting.append((position, hit))
                    elif hit is not None:
                        results[position] = self._result_from_cache(request, hit)
                    else:
                        entry = PendingResult(call)
                        cache.put_result(version, key, entry)
                        stored.append((position, key, entry))
                        misses.append(position)
            if misses:
                snapshots = [shard.snapshot(self.metric) for shard in self._shards]
                unbuilt = not self.has_index and self.num_sealed_segments > 0
        try:
            if misses:
                if not any(snapshots):
                    raise IndexNotBuiltError(
                        "collection is empty; insert and flush before searching"
                    )
                if unbuilt:
                    raise IndexNotBuiltError("no index built; call create_index first")
                self._scatter_gather(requests, misses, snapshots, version, cache, results)
        except BaseException:
            for _, key, entry in stored:
                cache.discard_result(version, key, entry)
            raise
        for position, _, entry in stored:
            result = results[position]
            entry.result = CachedResult(
                ids=result.ids.copy(), distances=result.distances.copy(), plan=result.plan
            )
        for position, entry in waiting:
            results[position] = self._result_from_cache(requests[position], entry.result)
        return results

    def _scatter_gather(
        self,
        requests: list[SearchRequest],
        misses: list[int],
        snapshots: list[list[SegmentView]],
        version: int,
        cache: TieredQueryCache | None,
        results: list[SearchResult | None],
    ) -> None:
        """Answer ``requests[misses]`` into ``results``: planned in request
        order, then one scatter-gather per distinct (``top_k``, filter).

        A request without queries is answered apart from the others: the
        dtypes of an empty answer are the ones its own search gives.  It has
        no query to charge its mask-building scan to, so it records none.
        """
        plans: dict[int, tuple[SearchPlan, list, bool]] = {}
        batches: dict[tuple, list[int]] = {}
        for position in misses:
            request = requests[position]
            filter_key = None
            if request.filter is not None:
                plans[position] = self._planned(request, snapshots, version, cache)
                filter_key = (
                    canonical_filter_key(request.filter),
                    *request.filter_knobs(self.system_config),
                )
            empty = request.queries.shape[0] == 0
            batches.setdefault((request.top_k, filter_key, empty), []).append(position)
        # The rows a request's mask-building scan evaluates, per shard.
        scan_rows = [sum(view.index.size for view in views) for views in snapshots] if plans else []
        for (top_k, _, _), members in batches.items():
            # Equal predicates plan equal masks, so the first member's serve all.
            plan, shard_plans, _ = plans.get(members[0], (None, [None] * len(snapshots), False))
            queries = requests[members[0]].queries
            if len(members) > 1:
                queries = np.concatenate([requests[position].queries for position in members])
            shard_ids, shard_distances, shard_stats = zip(
                *(
                    self._search_snapshot(views, queries, top_k, plan, planned)
                    for views, planned in zip(snapshots, shard_plans)
                )
            )
            merged_ids, merged_distances = merge_topk(shard_ids, shard_distances, top_k)
            stop = 0
            for position in members:
                start, stop = stop, stop + requests[position].queries.shape[0]
                request_plan, _, evaluated = plans.get(position, (None, None, False))
                request_shard_stats = [stats.slice(start, stop) for stats in shard_stats]
                if evaluated and stop > start:
                    for stats, rows in zip(request_shard_stats, scan_rows):
                        stats.add("filter_rows_scanned", rows, 0)
                total = SearchStats(stop - start)
                for stats in request_shard_stats:
                    total.merge(stats)
                results[position] = SearchResult(
                    ids=merged_ids[start:stop],
                    distances=merged_distances[start:stop],
                    stats=total,
                    shard_stats=request_shard_stats,
                    plan=request_plan,
                    filter_stats=(
                        FilterStats.from_plan(request_plan, total) if request_plan is not None else None
                    ),
                )

    def _result_from_cache(self, request: SearchRequest, hit: CachedResult) -> SearchResult:
        """Materialize a result-tier hit: copied arrays, cache-hit-only work."""
        num_queries = int(request.queries.shape[0])
        stats = SearchStats(num_queries, cache_hits=1)
        filter_stats = None
        if hit.plan is not None:
            # The plan describes the memoized execution; no filter work was
            # performed for *this* request, so the counters report zero.
            filter_stats = FilterStats.from_plan(hit.plan, stats)
        return SearchResult(
            ids=hit.ids.copy(),
            distances=hit.distances.copy(),
            stats=stats,
            shard_stats=None,
            plan=hit.plan,
            filter_stats=filter_stats,
        )

    # -- inspection ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Total rows stored (excluding unflushed buffers)."""
        return sum(shard.num_rows for shard in self._shards)

    @property
    def num_sealed_segments(self) -> int:
        """Number of sealed segments across all shards."""
        return sum(len(shard.segments.sealed_segments) for shard in self._shards)

    @property
    def num_growing_rows(self) -> int:
        """Rows currently in growing segments across all shards."""
        return sum(
            segment.num_rows
            for shard in self._shards
            for segment in shard.segments.growing_segments
        )

    def index_bytes(self) -> int:
        """Bytes occupied by the index structures of all sealed segments."""
        return sum(shard.index_bytes() for shard in self._shards)

    def profile(self) -> CollectionProfile:
        """Snapshot of the facts the cost model needs."""
        return CollectionProfile(
            dimension=self.dimension,
            total_rows=self.num_rows,
            sealed_segments=self.num_sealed_segments,
            growing_rows=self.num_growing_rows,
            raw_bytes=sum(shard.segments.raw_bytes() for shard in self._shards),
            index_bytes=self.index_bytes(),
            tombstone_rows=sum(
                shard.segments.tombstone_rows for shard in self._shards
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Collection(name={self.name!r}, rows={self.num_rows}, shards={self.shard_num}, "
            f"sealed_segments={self.num_sealed_segments}, index={self._index_type!r})"
        )
