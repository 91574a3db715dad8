"""Deterministic cost model: counted work + system configuration → performance.

The model converts a :class:`~repro.vdms.index.base.SearchStats` record (the
work a search actually performed) into latency, throughput (QPS) and memory,
taking the system configuration into account.  Nothing is timed, so repeated
evaluations of the same configuration are bit-identical and independent of
the host machine, while the *relative* costs — full-precision scoring versus
quantized scoring, per-segment overheads, consistency blocking, thread and
replica scaling — reproduce the qualitative behaviour the paper relies on.

Calibration: the constants are chosen so the default configuration of the
bundled ``glove-small`` dataset lands in the high hundreds of QPS and a few
GiB of memory, the same order of magnitude as the paper's Milvus testbed,
because the synthetic datasets stand in for corpora that are two to three
orders of magnitude larger (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vdms.index.base import BuildStats, SearchStats
from repro.vdms.system_config import SystemConfig

__all__ = ["CostModel", "PerformanceReport", "CollectionProfile"]


@dataclass(frozen=True)
class CollectionProfile:
    """The facts about a collection the cost model needs.

    Attributes
    ----------
    dimension:
        Vector dimensionality.
    total_rows:
        Rows stored across all segments.
    sealed_segments:
        Number of sealed (indexed) segments.
    growing_rows:
        Rows currently in growing (unindexed) segments.
    raw_bytes:
        Raw vector storage bytes (tombstoned rows included — compaction is
        what reclaims them).
    index_bytes:
        Bytes of index structures across all sealed segments.
    tombstone_rows:
        Deleted rows still physically stored, awaiting compaction.
    """

    dimension: int
    total_rows: int
    sealed_segments: int
    growing_rows: int
    raw_bytes: int
    index_bytes: int
    tombstone_rows: int = 0


@dataclass
class PerformanceReport:
    """Performance of one configuration under one workload.

    Attributes
    ----------
    qps:
        Search throughput in requests per second.
    recall:
        Measured recall@k of the replayed workload.
    latency_ms:
        Mean per-request latency in milliseconds.
    memory_gib:
        Simulated resident memory in GiB.
    build_seconds:
        Simulated index build (and data load) time in seconds.
    replay_seconds:
        Simulated total replay time in seconds (build + query phase).
    failed:
        Whether the evaluation is considered failed (replay exceeded the
        timeout, mirroring the paper's 15-minute replay limit).
    breakdown:
        Free-form cost breakdown for analysis and attribution.
    """

    qps: float
    recall: float
    latency_ms: float
    memory_gib: float
    build_seconds: float
    replay_seconds: float
    failed: bool = False
    breakdown: dict[str, float] = field(default_factory=dict)


class CostModel:
    """Converts counted work into simulated time and memory."""

    #: Microseconds per full-precision distance evaluation, per dimension.
    FULL_EVAL_US_PER_DIM = 0.15
    #: Microseconds per quantized-code evaluation, per dimension.
    CODE_EVAL_US_PER_DIM = 0.035
    #: Microseconds per coarse (centroid / upper-layer) evaluation, per dimension.
    COARSE_EVAL_US_PER_DIM = 0.15
    #: Microseconds per graph-node expansion (heap and visited-set upkeep).
    GRAPH_HOP_US = 1.5
    #: Fixed microseconds per request (parsing, scheduling, result assembly).
    REQUEST_OVERHEAD_US = 250.0
    #: Microseconds per request answered from the tiered query cache: key
    #: hashing plus a dictionary probe plus copying the memoized arrays out —
    #: an order of magnitude below the full request overhead, and the source
    #: of the hit-ratio-dependent throughput the tuner optimizes.
    CACHE_HIT_US = 25.0
    #: Microseconds per (segment, query) pair visited.
    SEGMENT_OVERHEAD_US = 120.0
    #: Microseconds per row whose attribute predicate is evaluated while
    #: building a filtered request's allow-masks (an integer comparison per
    #: row — far cheaper than a distance evaluation, but linear in the
    #: segment population, which is what makes pre-filtering's mask cost
    #: visible at scale).
    FILTER_EVAL_US_PER_ROW = 0.004
    #: Microseconds per candidate an index scored but the filter dropped
    #: (post-filter over-fetch waste: heap traffic and result assembly on
    #: rows that are then thrown away, on top of their scoring work, which
    #: is already counted by the index).
    FILTER_DROP_US = 0.05
    #: Microseconds per chunk boundary crossed while scanning a segment.
    CHUNK_OVERHEAD_US = 6.0
    #: Extra microseconds per row when chunks are so large they thrash caches.
    LARGE_CHUNK_PENALTY_US = 0.0004
    #: Consistency blocking: microseconds of wait per millisecond of graceful-time deficit.
    BLOCKING_US_PER_MS = 2.5
    #: Baseline staleness (ms) a query must tolerate before blocking starts.
    BASE_STALENESS_MS = 800.0
    #: Additional staleness per growing row (ms).
    STALENESS_MS_PER_GROWING_ROW = 6.0
    #: Diminishing-returns coefficient for intra-query threading.
    THREAD_SCALING = 0.30
    #: Diminishing-returns coefficient for shard fan-out parallelism.
    SHARD_SCALING = 0.85
    #: Memory inflation: simulated bytes stand for this many real bytes.
    MEMORY_SCALE = 2_000.0
    #: Simulated seconds per unit of build work (distance evaluations x dimension).
    BUILD_SECONDS_PER_WORK = 4.0e-7
    #: Fixed simulated seconds per index build (data load, serialization).
    BUILD_FIXED_SECONDS = 20.0
    #: Fixed simulated seconds per maintenance pass that did work (scan the
    #: segment population, schedule compactions) — far below the full-build
    #: fixed cost because only touched segments are rewritten/re-indexed.
    MAINTENANCE_FIXED_SECONDS = 2.0
    #: Simulated seconds per (row x dimension) copied or reclaimed while
    #: compacting (sequential rewrite, much cheaper than index build work).
    MAINTENANCE_SECONDS_PER_ROW_DIM = 2.0e-8
    #: Fraction of background maintenance that steals foreground capacity:
    #: inline maintenance blocks the serving path for its full duration,
    #: background maintenance overlaps serving at this duty cycle.
    MAINTENANCE_BACKGROUND_DUTY = 0.25
    #: Simulated seconds per WAL record appended (framing, CRC, buffered
    #: write) — the fixed cost every logged mutation pays even when small.
    WAL_APPEND_SECONDS = 2.0e-5
    #: Simulated seconds per (row x dimension) serialized into a WAL record
    #: payload (a sequential memory copy — cheaper than compaction's
    #: rewrite, which also rebuilds tombstone bookkeeping).
    WAL_SECONDS_PER_ROW_DIM = 4.0e-9
    #: Simulated seconds per fsync of the WAL file.  This is the dominant
    #: durability cost and what ``wal_sync_policy`` amortizes: "always"
    #: pays it on every record, "batch" only on commit records.
    WAL_FSYNC_SECONDS = 2.0e-3
    #: Fixed simulated seconds per checkpoint (manifest write, WAL swap,
    #: garbage collection of the previous generation).
    CHECKPOINT_FIXED_SECONDS = 1.0
    #: Simulated seconds per (row x dimension) persisted at checkpoint
    #: (atomic write-temp → fsync → rename of sealed segment files, the
    #: same sequential-rewrite rate as compaction).
    CHECKPOINT_SECONDS_PER_ROW_DIM = 2.0e-8
    #: Simulated replayed requests per workload (the paper replays large batches).
    SIMULATED_REQUESTS = 10_000
    #: Simulated replay timeout in seconds (the paper uses 15 minutes).
    REPLAY_TIMEOUT_SECONDS = 900.0

    def __init__(self, system_config: SystemConfig) -> None:
        self.system_config = system_config

    # -- per-query latency -------------------------------------------------------

    def query_work_microseconds(self, stats: SearchStats, profile: CollectionProfile) -> dict[str, float]:
        """Break one *average query's* work into microsecond components."""
        queries = max(1, stats.num_queries)
        dimension = profile.dimension
        per_query = {
            "full_scoring": stats.distance_evaluations / queries * self.FULL_EVAL_US_PER_DIM * dimension,
            "code_scoring": stats.code_evaluations / queries * self.CODE_EVAL_US_PER_DIM * dimension,
            "coarse_scoring": stats.coarse_evaluations / queries * self.COARSE_EVAL_US_PER_DIM * dimension,
            "reorder_scoring": stats.reorder_evaluations / queries * self.FULL_EVAL_US_PER_DIM * dimension,
            "graph_traversal": stats.graph_hops / queries * self.GRAPH_HOP_US,
        }

        # Per-segment and per-chunk overheads.
        segments_per_query = stats.segments_searched / queries
        rows_per_segment = profile.total_rows / max(1, profile.sealed_segments + (1 if profile.growing_rows else 0))
        chunks_per_segment = max(1.0, rows_per_segment / self.system_config.chunk_rows)
        per_query["segment_overhead"] = segments_per_query * self.SEGMENT_OVERHEAD_US
        per_query["chunk_overhead"] = segments_per_query * chunks_per_segment * self.CHUNK_OVERHEAD_US
        per_query["large_chunk_penalty"] = (
            segments_per_query * self.system_config.chunk_rows * self.LARGE_CHUNK_PENALTY_US
        )

        # Hybrid (attribute-filtered) search: mask evaluation scales with
        # the rows scanned, over-fetch waste with the candidates dropped.
        # The scoring work of both strategies is already in the evaluation
        # counters above, so these charge only the filtering machinery.
        per_query["filter_overhead"] = (
            stats.filter_rows_scanned / queries * self.FILTER_EVAL_US_PER_ROW
            + stats.filter_candidates_dropped / queries * self.FILTER_DROP_US
        )

        # Cached queries skip parsing/scatter/assembly: they pay the (much
        # smaller) cache probe instead of the full request overhead.  Their
        # scanning counters are zero, so every other component above already
        # averages them in correctly.
        hit_fraction = min(stats.cache_hits, queries) / queries
        per_query["request_overhead"] = (
            (1.0 - hit_fraction) * self.REQUEST_OVERHEAD_US
            + hit_fraction * self.CACHE_HIT_US
        )

        # Consistency blocking caused by a too-small graceful time.  A cached
        # query never consults segments — its entry is keyed to the current
        # collection version, so it is consistent by construction and does
        # not wait on the consistency timestamp either.
        staleness = self.BASE_STALENESS_MS + self.STALENESS_MS_PER_GROWING_ROW * profile.growing_rows
        deficit = max(0.0, staleness - self.system_config.graceful_time)
        per_query["consistency_blocking"] = (
            (1.0 - hit_fraction) * deficit * self.BLOCKING_US_PER_MS
        )
        return per_query

    def query_latency_microseconds(
        self,
        stats: SearchStats,
        profile: CollectionProfile,
        *,
        include_shard_fanout: bool = True,
    ) -> tuple[float, dict[str, float]]:
        """Mean per-request latency in microseconds and its breakdown.

        ``include_shard_fanout`` controls whether the scatter-gather overlap
        of shard tasks is folded into the latency (the analytic fallback).
        The event-driven concurrency simulation sets it to ``False`` because
        there the overlap is *scheduled* explicitly — each shard task is
        placed on a worker — and folding the speedup in as well would count
        the parallelism twice.
        """
        breakdown = self.query_work_microseconds(stats, profile)
        parallelizable = sum(
            breakdown[key]
            for key in (
                "full_scoring",
                "code_scoring",
                "coarse_scoring",
                "reorder_scoring",
                "graph_traversal",
                "chunk_overhead",
                "large_chunk_penalty",
                "filter_overhead",
            )
        )
        serial = (
            breakdown["segment_overhead"]
            + breakdown["consistency_blocking"]
            + breakdown["request_overhead"]
        )
        threads = self.system_config.query_node_threads
        speedup = 1.0 + self.THREAD_SCALING * (threads - 1) ** 0.85 if threads > 1 else 1.0
        shard_speedup = 1.0
        if include_shard_fanout:
            # Shard tasks of one request overlap on the execution pool, but
            # only as far as there are both shards to split the work and
            # threads to run them on.
            fanout = max(1, min(self.system_config.shard_num, self.system_config.search_threads))
            if fanout > 1:
                shard_speedup = 1.0 + self.SHARD_SCALING * (fanout - 1) ** 0.9
        latency = serial + parallelizable / (speedup * shard_speedup)
        breakdown["effective_thread_speedup"] = speedup
        breakdown["effective_shard_speedup"] = shard_speedup
        return latency, breakdown

    # -- throughput and memory ----------------------------------------------------

    def throughput_qps(self, latency_us: float, concurrency: int) -> float:
        """Requests per second at the effective concurrency level."""
        effective = self.system_config.effective_concurrency(concurrency)
        if latency_us <= 0:
            return float("inf")
        return effective / (latency_us * 1e-6)

    def shard_task_service_microseconds(
        self, shard_stats: list[SearchStats], profile: CollectionProfile
    ) -> list[float]:
        """Service time of each shard task of one request.

        Every task carries its own request overhead (the scatter RPC to that
        shard) and its own share of the counted work; intra-query threading
        still applies inside a task, but shard fan-out does not — overlap
        between tasks is what the event simulation schedules explicitly.
        Consistency blocking is a per-request wait (the request blocks once
        for recent inserts to become visible, *before* scattering), so it is
        charged to the first task only instead of once per shard.
        """
        services: list[float] = []
        for position, stats in enumerate(shard_stats):
            latency, breakdown = self.query_latency_microseconds(
                stats, profile, include_shard_fanout=False
            )
            if position > 0:
                latency -= breakdown["consistency_blocking"]
            services.append(latency)
        return services

    def concurrent_qps(
        self,
        request_shard_stats: list[list[SearchStats]],
        profile: CollectionProfile,
        *,
        workers: int,
    ) -> tuple[float, float]:
        """Measured concurrent throughput of a scheduled workload.

        Replays the shard tasks the :class:`~repro.vdms.sharding.QueryScheduler`
        recorded through a deterministic list-scheduling simulation over
        ``workers`` execution slots (see
        :func:`repro.vdms.sharding.simulate_makespan`) and returns
        ``(qps, makespan_seconds)``.  This replaces the flat
        effective-concurrency multiplier with an actual schedule: requests
        pipeline across workers, shard tasks of one request overlap, and the
        throughput is requests divided by the simulated makespan.
        """
        from repro.vdms.sharding import simulate_makespan

        if not request_shard_stats:
            return 0.0, 0.0
        task_seconds = [
            [us * 1e-6 for us in self.shard_task_service_microseconds(shard_stats, profile)]
            for shard_stats in request_shard_stats
        ]
        makespan = simulate_makespan(task_seconds, workers)
        if makespan <= 0.0:
            return float("inf"), 0.0
        return len(request_shard_stats) / makespan, makespan

    def memory_gib(self, profile: CollectionProfile) -> float:
        """Simulated resident memory in GiB."""
        replicas = self.system_config.replica_number
        data_bytes = (profile.raw_bytes + profile.index_bytes) * self.MEMORY_SCALE * replicas
        buffer_bytes = self.system_config.insert_buf_size * 1024.0 * 1024.0
        segment_overhead_bytes = (profile.sealed_segments + 1) * 16.0 * 1024.0 * 1024.0
        total = data_bytes + buffer_bytes + segment_overhead_bytes
        return float(total / (1024.0 ** 3))

    def build_seconds(self, build_stats: list[BuildStats], profile: CollectionProfile) -> float:
        """Simulated index build (plus data load) time."""
        work = sum(stats.distance_evaluations for stats in build_stats) * profile.dimension
        return self.BUILD_FIXED_SECONDS + work * self.BUILD_SECONDS_PER_WORK

    def maintenance_seconds(self, report, profile: CollectionProfile) -> float:
        """Simulated cost of one maintenance pass (compaction + re-indexing).

        ``report`` is a :class:`~repro.vdms.maintenance.MaintenanceReport`
        (or ``None``).  Compaction is charged per row moved or reclaimed,
        incremental index rebuilds at the same rate as regular builds but
        without the full-build fixed cost — only the touched segments pay.
        Under ``maintenance_mode == "background"`` the pass overlaps
        serving, so only :data:`MAINTENANCE_BACKGROUND_DUTY` of its duration
        is charged to the foreground clock.
        """
        if report is None or not report.did_work:
            return 0.0
        copy_work = (report.rows_rewritten + report.rows_dropped) * profile.dimension
        rebuild_work = (
            sum(stats.distance_evaluations for stats in report.build_stats)
            * profile.dimension
        )
        seconds = (
            self.MAINTENANCE_FIXED_SECONDS
            + copy_work * self.MAINTENANCE_SECONDS_PER_ROW_DIM
            + rebuild_work * self.BUILD_SECONDS_PER_WORK
        )
        if self.system_config.maintenance_mode == "background":
            seconds *= self.MAINTENANCE_BACKGROUND_DUTY
        return float(seconds)

    def durability_seconds(
        self,
        records: int,
        rows_logged: int,
        fsyncs: int,
        profile: CollectionProfile,
        *,
        checkpoints: int = 0,
    ) -> float:
        """Simulated cost of the durability tier over one replayed workload.

        ``records``, ``rows_logged`` and ``fsyncs`` count the WAL traffic
        the mutation phase generated (the replayer derives them from its
        mutation plan; a live :class:`~repro.vdms.durability.DurabilityManager`
        exposes the same counters on its ``stats``).  Each record pays a
        fixed append cost plus a per-row serialization cost; each fsync
        pays :data:`WAL_FSYNC_SECONDS` — the knob ``wal_sync_policy``
        amortizes.  Each checkpoint additionally rewrites the sealed
        population (``profile.total_rows``) at the sequential persist rate
        plus a fixed manifest/GC cost.  ``durability_mode == "off"``
        charges nothing regardless of the counters.
        """
        if self.system_config.durability_mode == "off":
            return 0.0
        dimension = profile.dimension
        seconds = (
            records * self.WAL_APPEND_SECONDS
            + rows_logged * dimension * self.WAL_SECONDS_PER_ROW_DIM
            + fsyncs * self.WAL_FSYNC_SECONDS
        )
        if checkpoints > 0:
            seconds += checkpoints * (
                self.CHECKPOINT_FIXED_SECONDS
                + profile.total_rows * dimension * self.CHECKPOINT_SECONDS_PER_ROW_DIM
            )
        return float(seconds)

    # -- the headline entry point ---------------------------------------------------

    def evaluate(
        self,
        stats: SearchStats,
        profile: CollectionProfile,
        build_stats: list[BuildStats],
        recall: float,
        concurrency: int = 10,
    ) -> PerformanceReport:
        """Produce the full performance report for one replayed workload."""
        latency_us, breakdown = self.query_latency_microseconds(stats, profile)
        qps = self.throughput_qps(latency_us, concurrency)
        memory = self.memory_gib(profile)
        build = self.build_seconds(build_stats, profile)
        replay = build + self.SIMULATED_REQUESTS / max(qps, 1e-9)
        failed = replay > self.REPLAY_TIMEOUT_SECONDS
        return PerformanceReport(
            qps=float(qps),
            recall=float(recall),
            latency_ms=float(latency_us / 1000.0),
            memory_gib=float(memory),
            build_seconds=float(build),
            replay_seconds=float(replay),
            failed=bool(failed),
            breakdown={key: float(value) for key, value in breakdown.items()},
        )
