"""System-level configuration of the simulated VDMS.

These are the tunable system parameters shared by every index type — the
seven from the paper plus the serving topology (``shard_num``,
``routing_policy``, ``search_threads``) the sharded engine adds
(see :mod:`repro.config.milvus_space`).  The dataclass validates ranges and
provides the derived quantities the storage layer and the cost model need,
most importantly the *row capacity* implied by segment sizes.

Scaling note: the synthetic datasets are hundreds of times smaller than the
paper's, so a megabyte of simulated segment space is interpreted as holding
far fewer rows than a real megabyte would (see :meth:`rows_per_megabyte`).
This keeps segment counts — and therefore the interdependence between
``segment_max_size`` and ``segment_seal_proportion`` shown in Figure 1 — in a
realistic range without gigabyte-scale data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.vdms.cache import CACHE_POLICIES
from repro.vdms.errors import InvalidConfigurationError
from repro.vdms.request import FILTER_STRATEGIES

__all__ = [
    "SystemConfig",
    "ROUTING_POLICIES",
    "MAINTENANCE_MODES",
    "FILTER_STRATEGIES",
    "CACHE_POLICIES",
    "DURABILITY_MODES",
    "WAL_SYNC_POLICIES",
]

#: Simulated rows per (megabyte * dimension); chosen so the default segment
#: size yields a handful of segments on the bundled datasets.
_ROW_DENSITY = 256.0

#: CPU cores of the simulated query node.  Intra-query threads and concurrent
#: requests compete for this budget, which is what makes ``query_node_threads``
#: a genuine trade-off (more threads shorten one query but admit fewer
#: queries in flight) instead of a free throughput multiplier.
SIMULATED_CORES = 16


#: Routing policies accepted by ``routing_policy`` (see
#: :mod:`repro.vdms.sharding`).
ROUTING_POLICIES: tuple[str, ...] = ("hash", "range")

#: Maintenance scheduling modes accepted by ``maintenance_mode`` (see
#: :mod:`repro.vdms.maintenance`): ``"off"`` leaves delete-invalidated
#: segments brute-forced until an explicit ``run_maintenance``/``create_index``
#: call, ``"inline"`` runs maintenance synchronously inside the mutating
#: call, and ``"background"`` delegates it to a background worker thread
#: (modelled as an overlapped, duty-cycled cost by the replayer).
MAINTENANCE_MODES: tuple[str, ...] = ("off", "inline", "background")

# ``FILTER_STRATEGIES`` (auto/pre/post, accepted by ``filter_strategy``) is
# re-exported from :mod:`repro.vdms.request`, the single source of truth.

# ``CACHE_POLICIES`` (none/lru, accepted by ``cache_policy``) is re-exported
# from :mod:`repro.vdms.cache` the same way.

#: Durability modes accepted by ``durability_mode`` (see
#: :mod:`repro.vdms.durability`): ``"off"`` keeps everything in memory (the
#: seed behaviour), ``"wal"`` logs every mutation to the write-ahead log
#: and recovers by full replay, ``"wal+checkpoint"`` additionally persists
#: sealed segments during maintenance and truncates the log, bounding
#: recovery time by the WAL tail instead of the collection's history.
DURABILITY_MODES: tuple[str, ...] = ("off", "wal", "wal+checkpoint")

#: WAL sync policies accepted by ``wal_sync_policy``: ``"always"`` fsyncs
#: every record before acknowledging (no acknowledged write is ever lost),
#: ``"batch"`` fsyncs only commit records (flush, index changes), trading a
#: crash window of recent row traffic for mutation throughput.
WAL_SYNC_POLICIES: tuple[str, ...] = ("always", "batch")


@dataclass(frozen=True)
class SystemConfig:
    """The shared system parameters (seven from the paper plus the serving
    topology: ``shard_num``, ``routing_policy`` and ``search_threads``).

    Attributes
    ----------
    segment_max_size:
        Maximum segment size in MB.  Together with ``segment_seal_proportion``
        it determines how many rows a sealed segment holds.
    segment_seal_proportion:
        Growing segments are sealed once they reach this fraction of
        ``segment_max_size``.
    graceful_time:
        Bounded-consistency tolerance in milliseconds.  Small values force
        queries to wait for recent inserts to become visible, blocking
        requests (the behaviour called out in Section IV-A of the paper).
    insert_buf_size:
        Insert buffer size in MB; it caps how many rows can remain in the
        growing (unindexed) state and can force early sealing.
    chunk_rows:
        Rows per chunk inside a sealed segment; affects per-segment scan
        overhead (too small: many chunk boundaries, too large: poor cache
        locality).
    query_node_threads:
        Intra-query thread parallelism of a query node.
    replica_number:
        Number of in-memory replicas of the collection; adds throughput
        headroom at a proportional memory cost.
    shard_num:
        Number of horizontal partitions of a collection.  Each shard owns
        its own segments and indexes; queries scatter to every shard and the
        per-shard top-k lists are heap-merged.  Sharding pays a per-shard
        overhead at ``search_threads == 1`` and wins once shard tasks can
        actually overlap, making the topology itself a tunable trade-off.
    routing_policy:
        How rows are assigned to shards: ``"hash"`` (uniform splitmix64
        scramble of the id) or ``"range"`` (contiguous id blocks
        round-robined across shards).
    search_threads:
        Size of the query execution pool that serves concurrent requests
        and overlapping shard tasks.  Execution threads compete with
        ``query_node_threads`` for the simulated cores (see
        :meth:`effective_search_workers`).
    compaction_trigger_ratio:
        Tombstone fraction at which a sealed segment becomes a compaction
        candidate: lower values reclaim deleted rows (and heal brute-forced
        segments) aggressively at a higher rewrite cost, higher values let
        garbage accumulate.
    maintenance_mode:
        When background maintenance (compaction + incremental re-indexing)
        runs: ``"off"`` (never automatically — the seed behaviour),
        ``"inline"`` (synchronously inside deletes and flushes) or
        ``"background"`` (a maintenance worker thread).
    filter_strategy:
        How attribute-filtered (hybrid) searches execute: ``"pre"``
        (filter before candidate scoring), ``"post"`` (over-fetch then
        drop rejected candidates) or ``"auto"`` (the query planner picks
        per segment from the estimated selectivity).
    overfetch_factor:
        Post-filter over-fetch multiplier: each segment initially fetches
        ``ceil(top_k * overfetch_factor)`` unfiltered candidates before
        dropping and refilling.  Larger values trade extra scoring work
        for fewer refill passes at low selectivity.
    cache_policy:
        Tiered query-cache policy (see :mod:`repro.vdms.cache`):
        ``"none"`` disables both the result and the plan tier (the seed
        behaviour), ``"lru"`` memoizes search results and query plans in
        in-process LRU backends invalidated by the collection version
        counter — worth its memory under skewed (hot-query) traffic,
        dead weight under uniform traffic, which is what makes the
        policy itself tunable.
    cache_capacity:
        Entry capacity of each cache tier (results and plans count
        separately).  Larger capacities hold more of the hot set at a
        proportional memory cost; ignored when ``cache_policy`` is
        ``"none"``.
    durability_mode:
        Crash durability of mutations (see :mod:`repro.vdms.durability`):
        ``"off"`` (in-memory only, the seed behaviour), ``"wal"``
        (write-ahead logging, recovery replays the full log) or
        ``"wal+checkpoint"`` (logging plus segment persistence during
        maintenance, recovery bounded by the WAL tail).  Takes effect
        only on collections opened with a data directory.
    wal_sync_policy:
        When WAL appends reach stable storage: ``"always"`` (fsync per
        record — no acknowledged write is ever lost) or ``"batch"``
        (fsync only on commit records — faster mutations, a crash may
        lose the most recent acknowledged row traffic).  Ignored when
        ``durability_mode`` is ``"off"``.
    """

    segment_max_size: int = 512
    segment_seal_proportion: float = 0.25
    graceful_time: int = 5_000
    insert_buf_size: int = 512
    chunk_rows: int = 8_192
    query_node_threads: int = 4
    replica_number: int = 1
    shard_num: int = 1
    routing_policy: str = "hash"
    search_threads: int = 1
    compaction_trigger_ratio: float = 0.2
    maintenance_mode: str = "off"
    filter_strategy: str = "auto"
    overfetch_factor: float = 2.0
    cache_policy: str = "none"
    cache_capacity: int = 1024
    durability_mode: str = "off"
    wal_sync_policy: str = "always"

    def __post_init__(self) -> None:
        if not 1 <= self.segment_max_size <= 1_000_000:
            raise InvalidConfigurationError("segment_max_size out of range")
        if not 0.01 <= self.segment_seal_proportion <= 1.0:
            raise InvalidConfigurationError("segment_seal_proportion out of range")
        if not 0 <= self.graceful_time <= 3_600_000:
            raise InvalidConfigurationError("graceful_time out of range")
        if not 1 <= self.insert_buf_size <= 1_000_000:
            raise InvalidConfigurationError("insert_buf_size out of range")
        if not 1 <= self.chunk_rows <= 10_000_000:
            raise InvalidConfigurationError("chunk_rows out of range")
        if not 1 <= self.query_node_threads <= 256:
            raise InvalidConfigurationError("query_node_threads out of range")
        if not 1 <= self.replica_number <= 64:
            raise InvalidConfigurationError("replica_number out of range")
        if not 1 <= self.shard_num <= 64:
            raise InvalidConfigurationError("shard_num out of range")
        if self.routing_policy not in ROUTING_POLICIES:
            raise InvalidConfigurationError(
                f"routing_policy must be one of {ROUTING_POLICIES}"
            )
        if not 1 <= self.search_threads <= 256:
            raise InvalidConfigurationError("search_threads out of range")
        if not 0.01 <= self.compaction_trigger_ratio <= 1.0:
            raise InvalidConfigurationError("compaction_trigger_ratio out of range")
        if self.maintenance_mode not in MAINTENANCE_MODES:
            raise InvalidConfigurationError(
                f"maintenance_mode must be one of {MAINTENANCE_MODES}"
            )
        if self.filter_strategy not in FILTER_STRATEGIES:
            raise InvalidConfigurationError(
                f"filter_strategy must be one of {FILTER_STRATEGIES}"
            )
        if not 1.0 <= self.overfetch_factor <= 64.0:
            raise InvalidConfigurationError("overfetch_factor out of range")
        if self.cache_policy not in CACHE_POLICIES:
            raise InvalidConfigurationError(
                f"cache_policy must be one of {CACHE_POLICIES}"
            )
        if not 1 <= self.cache_capacity <= 1_000_000:
            raise InvalidConfigurationError("cache_capacity out of range")
        if self.durability_mode not in DURABILITY_MODES:
            raise InvalidConfigurationError(
                f"durability_mode must be one of {DURABILITY_MODES}"
            )
        if self.wal_sync_policy not in WAL_SYNC_POLICIES:
            raise InvalidConfigurationError(
                f"wal_sync_policy must be one of {WAL_SYNC_POLICIES}"
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_mapping(cls, values: Mapping[str, Any]) -> "SystemConfig":
        """Build a system configuration from any mapping (extra keys ignored)."""
        # Every field is an int, float or str knob with a default of its own
        # type, so the default's type is the coercion.
        kwargs = {
            field.name: type(field.default)(values[field.name])
            for field in fields(cls)
            if field.name in values
        }
        return cls(**kwargs)

    # -- derived quantities ------------------------------------------------------

    @staticmethod
    def rows_per_megabyte(dimension: int) -> float:
        """Simulated rows one megabyte of segment space can hold."""
        return _ROW_DENSITY / max(1, dimension)

    def sealed_segment_rows(self, dimension: int) -> int:
        """Row capacity at which a growing segment is sealed.

        This is the interaction the paper's Figure 1 studies: the capacity is
        ``segment_max_size * segment_seal_proportion`` converted to rows, but
        the insert buffer can force earlier sealing when it is smaller than
        the nominal seal threshold.
        """
        nominal = self.segment_max_size * self.segment_seal_proportion
        effective_mb = min(nominal, float(self.insert_buf_size))
        return max(8, int(effective_mb * self.rows_per_megabyte(dimension)))

    def growing_buffer_rows(self, dimension: int) -> int:
        """Maximum rows the growing (unindexed) buffer may hold."""
        return max(4, int(self.insert_buf_size * self.rows_per_megabyte(dimension) * 0.5))

    def effective_concurrency(self, requested_concurrency: int) -> int:
        """Number of requests the system can actually serve in parallel.

        The simulated query node has :data:`SIMULATED_CORES` cores; each
        in-flight request pins ``query_node_threads`` of them, so raising the
        intra-query parallelism reduces how many of the client's concurrent
        requests can run at once.  Replicas add memory, not cores (they model
        in-memory copies on the same machine), so they do not enter here.
        """
        capacity = max(1, SIMULATED_CORES // max(1, self.query_node_threads))
        return max(1, min(int(requested_concurrency), capacity))

    def effective_search_workers(self) -> int:
        """Execution-pool slots the query scheduler can actually keep busy.

        Each worker serves one request (or one shard task) at a time and
        pins ``query_node_threads`` cores while doing so, so the pool is
        capped by the same core budget that limits client concurrency:
        raising intra-query threading shrinks the number of shard tasks that
        can overlap.
        """
        return self.effective_concurrency(self.search_threads)
