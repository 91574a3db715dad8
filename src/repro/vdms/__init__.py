"""A self-contained, Milvus-like vector data management system (VDMS).

This package is the substrate the tuner optimizes.  It provides:

* real approximate-nearest-neighbour index implementations (FLAT, IVF_FLAT,
  IVF_SQ8, IVF_PQ, HNSW, SCANN, AUTOINDEX) built on NumPy, so recall is
  measured rather than modelled;
* a segment-based storage layer (growing/sealed/invalidated segments,
  insert buffer, tombstoned deletes) whose behaviour is governed by the
  shared system parameters of the tuning space;
* a background maintenance subsystem (:mod:`repro.vdms.maintenance`):
  compaction physically reclaims tombstoned rows and right-sizes sealed
  segments, and incremental per-segment re-indexing heals delete-invalidated
  segments without a full rebuild — scheduled off/inline/background via
  ``SystemConfig.maintenance_mode``;
* a deterministic cost model that converts the *counted work* of a search
  (distance evaluations, graph hops, segments touched) plus the system
  configuration into search speed (QPS), latency and memory usage;
* a sharded serving engine (:mod:`repro.vdms.sharding`): hash- or
  range-partitioned shards inside every collection, a scatter-gather query
  planner with a vectorized top-k heap-merge, and a per-request
  :class:`QueryScheduler` — its requests answered by one batched
  ``Collection.search_many`` — whose shard-task trace feeds the measured
  concurrent QPS;
* a hybrid filtered-search layer (:mod:`repro.vdms.request`): scalar
  attribute columns stored alongside the vectors, a
  :class:`SearchRequest`/:class:`SearchPlan` query-plan abstraction, and
  tunable pre-filter vs post-filter execution planned per segment from the
  estimated selectivity (``filter_strategy``, ``overfetch_factor``);
* a mutation-safe tiered query cache (:mod:`repro.vdms.cache`): a result
  tier memoizing whole search answers and a plan tier memoizing the
  planner's selectivity estimation, keyed on canonical request hashes plus
  a per-collection monotonic version counter every mutation bumps —
  staleness is impossible by construction — each tier one in-process
  :class:`LRUCacheBackend` (``cache_policy``, ``cache_capacity``);
* a :class:`VectorDBServer` facade exposing a Milvus-like client API
  (``create_collection``, ``insert``, ``flush``, ``create_index``,
  ``search``, ``drop_index``, ``apply_system_config``);
* a durability tier (:mod:`repro.vdms.durability`): a CRC-framed
  write-ahead log, atomic (write-temp → fsync → rename) persistence of
  sealed segments as numpy files with optional ``np.memmap`` serving,
  checkpointing during maintenance and :meth:`Collection.recover` — all
  behind an injectable filesystem whose :class:`CrashPointFS`
  implementation drives the crash-point fault-injection oracle suite
  (``durability_mode``, ``wal_sync_policy``).
"""

from repro.vdms.cache import (
    CACHE_POLICIES,
    CachedResult,
    CacheStats,
    LRUCacheBackend,
    TieredQueryCache,
    canonical_filter_key,
    request_cache_key,
)
from repro.vdms.collection import Collection, SearchResult
from repro.vdms.cost_model import CostModel, PerformanceReport
from repro.vdms.distance import normalize_rows, pairwise_distances, top_k_select
from repro.vdms.durability import (
    CheckpointReport,
    CrashPointFS,
    DurabilityManager,
    FileSystem,
    OsFileSystem,
    RecoveryReport,
    SegmentStore,
    SimulatedCrash,
    WALRecord,
    WriteAheadLog,
    recover_collection,
)
from repro.vdms.errors import (
    CollectionNotFoundError,
    DurabilityError,
    IndexBuildError,
    IndexNotBuiltError,
    InvalidConfigurationError,
    RecoveryError,
    VDMSError,
)
from repro.vdms.index import (
    INDEX_REGISTRY,
    BuildStats,
    SearchStats,
    VectorIndex,
    create_index,
)
from repro.vdms.maintenance import MaintenanceReport, MaintenanceWorker
from repro.vdms.request import (
    AttributeFilter,
    FilterStats,
    SearchPlan,
    SearchRequest,
    SegmentPlan,
)
from repro.vdms.segment import CompactionResult, Segment, SegmentManager, SegmentState
from repro.vdms.server import VectorDBServer
from repro.vdms.sharding import (
    ROUTING_POLICIES,
    QueryScheduler,
    ScheduleTrace,
    Shard,
    merge_topk,
    shard_assignments,
    simulate_makespan,
)
from repro.vdms.system_config import (
    DURABILITY_MODES,
    FILTER_STRATEGIES,
    MAINTENANCE_MODES,
    WAL_SYNC_POLICIES,
    SystemConfig,
)

__all__ = [
    "AttributeFilter",
    "BuildStats",
    "CACHE_POLICIES",
    "CacheStats",
    "CachedResult",
    "Collection",
    "FILTER_STRATEGIES",
    "FilterStats",
    "CheckpointReport",
    "CollectionNotFoundError",
    "CompactionResult",
    "CostModel",
    "CrashPointFS",
    "DURABILITY_MODES",
    "DurabilityError",
    "DurabilityManager",
    "FileSystem",
    "INDEX_REGISTRY",
    "IndexBuildError",
    "IndexNotBuiltError",
    "InvalidConfigurationError",
    "LRUCacheBackend",
    "MAINTENANCE_MODES",
    "MaintenanceReport",
    "MaintenanceWorker",
    "OsFileSystem",
    "PerformanceReport",
    "QueryScheduler",
    "ROUTING_POLICIES",
    "RecoveryError",
    "RecoveryReport",
    "ScheduleTrace",
    "SearchPlan",
    "SearchRequest",
    "SearchResult",
    "SearchStats",
    "Segment",
    "SegmentPlan",
    "SegmentManager",
    "SegmentState",
    "SegmentStore",
    "Shard",
    "SimulatedCrash",
    "SystemConfig",
    "TieredQueryCache",
    "VDMSError",
    "VectorDBServer",
    "VectorIndex",
    "WAL_SYNC_POLICIES",
    "WALRecord",
    "WriteAheadLog",
    "canonical_filter_key",
    "create_index",
    "merge_topk",
    "normalize_rows",
    "pairwise_distances",
    "recover_collection",
    "request_cache_key",
    "shard_assignments",
    "simulate_makespan",
    "top_k_select",
]
