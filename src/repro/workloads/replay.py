"""Workload replay: run one configuration end to end and measure it.

The replayer performs the same steps the paper's harness performs for every
sampled configuration: apply the system parameters, reload the (sharded)
collection, build the requested index, replay the search workload, and report
search speed, recall and memory.  All times are simulated by the cost model,
so the result is deterministic.

Concurrent serving: when the configuration asks for an execution pool
(``search_threads > 1``), the workload is driven through a
:class:`~repro.vdms.sharding.QueryScheduler` — one request per query, all
handed to the collection's ``search_many`` in one call on the calling
thread — and the reported QPS is the *measured*
concurrent throughput of that schedule (shard tasks event-simulated over the
configured worker budget, see
:meth:`repro.vdms.cost_model.CostModel.concurrent_qps`).  With
``search_threads == 1`` the replayer falls back to the plain cost-model
concurrency multiplier, so serial configurations behave exactly as before.
The replayer itself starts no threads: index builds and replays both run on
the calling thread, whatever ``search_threads`` the configuration asks for.

Cached replay: a configuration with ``cache_policy != "none"`` takes the same
per-request path whatever its ``search_threads``, with the collection's own
:class:`~repro.vdms.cache.TieredQueryCache` on — hits, evicted entries that
re-miss and re-pay, and the plan tier charging a predicate's mask-building
scan once are whatever :meth:`repro.vdms.collection.Collection.search_many`
does, so the tuner optimises the cache the server runs.  The replay is one
batched scatter-gather: ``search_many`` looks the requests up in stream
order, storing a pending entry at each miss, answers the misses in one
batch and splits every request's result, counted work and shard stats back
out, so each is what serving the requests one at a time in stream order
gives.  Which of two identical requests computes and which hits is racy
only between threads, and a replay is one call on one thread, so the hit
pattern — and with it every measured quantity — is a function of the
stream alone.  The hit/miss counts in the
breakdown are the fresh replay collection's own cache counters.

Hybrid filtered replay: a workload carrying an
:class:`~repro.vdms.request.AttributeFilter` replays *end to end* — the
dataset's attribute columns are inserted with the vectors, every search is a
:class:`~repro.vdms.request.SearchRequest` the collection's query planner
executes (pre- vs post-filter per the evaluated configuration's
``filter_strategy``/``overfetch_factor``), recall is measured against the
masked ground truth, and the result surfaces per-query latency samples
(p50/p99 in the breakdown) plus filter stats (rows scanned, candidates
dropped, per-strategy segment counts).

Churn replay: with a :class:`MutationPlan`, the replayer measures a *live
mutating* collection instead of a freshly rebuilt one — it loads the
pre-churn corpus, builds the index, applies the plan's deletes and inserts
(invalidating the per-segment indexes the deletes touch), runs one
deterministic maintenance pass when ``maintenance_mode`` is not ``"off"``,
and only then replays the queries.  Configurations with maintenance off
therefore *measure* the post-delete brute-force cliff, and configurations
with maintenance on pay the (mode-dependent) compaction/re-index cost to
avoid it — which is exactly what makes the maintenance knobs tunable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.datasets.dataset import Dataset
from repro.datasets.ground_truth import recall_at_k
from repro.vdms.request import SearchRequest
from repro.vdms.server import VectorDBServer
from repro.vdms.sharding import QueryScheduler
from repro.vdms.system_config import SystemConfig
from repro.workloads.workload import SearchWorkload

__all__ = ["EvaluationResult", "MutationPlan", "WorkloadReplayer"]


@dataclass(frozen=True)
class MutationPlan:
    """Deletes and inserts replayed against a live collection.

    A plan captures churn as *operations on external ids* rather than as a
    new corpus, so a replay can reproduce what a deployed collection goes
    through: load the pre-churn base, then delete and insert.

    Attributes
    ----------
    base_vectors:
        The pre-churn corpus, shape ``(n, d)``.
    base_ids:
        External ids of the pre-churn rows, shape ``(n,)``.
    delete_ids:
        External ids deleted by the churn.
    insert_vectors:
        Rows inserted by the churn, shape ``(m, d)``.
    insert_ids:
        External ids of the inserted rows, shape ``(m,)``.
    base_attributes / insert_attributes:
        Optional scalar attribute columns of the pre-churn corpus and the
        inserted rows (hybrid filtered workloads replay their predicates
        against the live-mutated collection too).
    """

    base_vectors: np.ndarray
    base_ids: np.ndarray
    delete_ids: np.ndarray
    insert_vectors: np.ndarray
    insert_ids: np.ndarray
    base_attributes: dict[str, np.ndarray] | None = None
    insert_attributes: dict[str, np.ndarray] | None = None


@dataclass(frozen=True)
class EvaluationResult:
    """Performance of one configuration under one workload.

    Attributes
    ----------
    qps:
        Search speed in requests per second (the paper's "search speed").
    recall:
        Measured recall@k.
    memory_gib:
        Simulated resident memory in GiB.
    latency_ms:
        Mean per-request latency in milliseconds.
    build_seconds:
        Simulated index build plus data load time.
    replay_seconds:
        Simulated total replay time (build + query phase); this is the value
        the tuning-time accounting in Table VI aggregates.
    failed:
        Whether the evaluation failed (replay exceeded the timeout or the
        configuration was rejected by the system).
    configuration:
        The raw configuration values that were evaluated.
    breakdown:
        Cost-model breakdown, used by the attribution analysis.

    Examples
    --------
    >>> from repro import VDMSTuningEnvironment
    >>> environment = VDMSTuningEnvironment("glove-small")
    >>> result = environment.evaluate(environment.default_configuration())
    >>> result.qps > 0 and 0.0 <= result.recall <= 1.0
    True
    >>> result.objective_values("qps") == (result.qps, result.recall)
    True
    """

    qps: float
    recall: float
    memory_gib: float
    latency_ms: float
    build_seconds: float
    replay_seconds: float
    failed: bool = False
    configuration: dict[str, Any] = field(default_factory=dict)
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def cost_effectiveness(self) -> float:
        """Queries per dollar (Eq. 8 of the paper with eta = 1 $ per second*GiB)."""
        if self.memory_gib <= 0:
            return 0.0
        return self.qps / self.memory_gib

    def objective_values(self, speed_metric: str = "qps") -> tuple[float, float]:
        """Return ``(speed-like objective, recall)`` for the tuners.

        ``speed_metric`` selects between plain search speed (``"qps"``) and
        cost effectiveness (``"qp$"``) per Section V-E of the paper.
        """
        if speed_metric == "qps":
            return self.qps, self.recall
        if speed_metric in ("qp$", "cost_effectiveness"):
            return self.cost_effectiveness, self.recall
        raise ValueError(f"unknown speed metric {speed_metric!r}")


class WorkloadReplayer:
    """Replays a workload against a server for one configuration at a time.

    ``use_query_scheduler`` enables the concurrent serving path for
    configurations with ``search_threads > 1`` (the default); disabling it
    forces every replay through the serial batch search plus the analytic
    concurrency multiplier.

    ``mutations`` switches the replay to the live-churn path (see the module
    docstring); ``row_ids`` then maps the dataset's row positions (which the
    ground truth is expressed in) to the external ids the mutated collection
    serves, so recall stays exact.
    """

    def __init__(
        self,
        dataset: Dataset,
        workload: SearchWorkload | None = None,
        *,
        use_query_scheduler: bool = True,
        mutations: MutationPlan | None = None,
        row_ids: np.ndarray | None = None,
    ) -> None:
        self.dataset = dataset
        self.workload = workload or SearchWorkload.from_dataset(dataset)
        self.use_query_scheduler = bool(use_query_scheduler)
        self.mutations = mutations
        self.row_ids = None if row_ids is None else np.asarray(row_ids, dtype=np.int64)
        if self.mutations is not None and self.row_ids is None:
            raise ValueError("a mutation plan requires row_ids to translate ground truth")
        self.server = VectorDBServer()
        self._scheduler = QueryScheduler()

    def _ground_truth_ids(self) -> np.ndarray:
        """Ground truth expressed in the ids the collection actually serves."""
        truth = self.workload.ground_truth
        if self.row_ids is None:
            return truth
        # Guard the -1 padding of masked (filtered) ground truth: padding
        # entries stay -1 instead of indexing the id map from the tail.
        return np.where(truth >= 0, self.row_ids[np.clip(truth, 0, None)], -1)

    def _search_request(self, indices: np.ndarray | None = None) -> SearchRequest:
        """The workload as a :class:`SearchRequest` (filter pushed down).

        ``indices`` optionally resamples the query pool into the replayed
        request stream (Zipfian popularity, see
        :meth:`repro.workloads.workload.SearchWorkload.popularity_indices`).
        """
        queries = self.workload.queries
        if indices is not None:
            queries = queries[indices]
        return SearchRequest(
            queries=queries,
            top_k=self.workload.top_k,
            filter=self.workload.filter,
        )

    def _latency_samples_ms(
        self, cost_model, profile, trace, fallback_latency_us: float, num_queries: int
    ) -> np.ndarray:
        """Per-query simulated latency samples in milliseconds.

        On the scheduled path every request carries its own counted work,
        so each query gets its own cost-model latency; the serial batch
        path measures one aggregate, so every query reports the mean.
        """
        if trace is not None and trace.request_shard_stats:
            samples = [
                cost_model.query_latency_microseconds(request_stats, profile)[0] / 1000.0
                for request_stats in trace.request_stats()
            ]
            return np.asarray(samples, dtype=np.float64)
        return np.full(max(1, num_queries), fallback_latency_us / 1000.0)

    def replay(self, configuration: Mapping[str, Any]) -> EvaluationResult:
        """Apply ``configuration`` end to end and measure the workload."""
        system_config = SystemConfig.from_mapping(configuration)
        self.server.apply_system_config(system_config)
        # Automatic maintenance is disabled on the replay collection: the
        # replayer invokes exactly one deterministic pass itself (below), so
        # replays are rerun-stable even for "background" mode.
        collection = self.server.create_collection(
            "tuning",
            self.dataset.dimension,
            metric=self.dataset.metric,
            auto_maintenance=False,
        )
        plan = self.mutations
        if plan is None:
            collection.insert(self.dataset.vectors, attributes=self.dataset.attributes)
        else:
            collection.insert(
                plan.base_vectors, ids=plan.base_ids, attributes=plan.base_attributes
            )
        collection.flush()

        index_type = str(configuration.get("index_type", "AUTOINDEX")).rstrip("_")
        params = {k: v for k, v in configuration.items() if k != "index_type"}
        # Built serially, like the per-request replays below: builds are
        # identical for any worker count and their time is simulated from
        # the build stats, so a per-evaluation thread pool bought nothing
        # and made the wall clock depend on where its threads landed.
        build_stats = collection.create_index(index_type, params)

        maintenance_report = None
        if plan is not None:
            collection.delete(plan.delete_ids)
            if plan.insert_vectors.shape[0]:
                collection.insert(
                    plan.insert_vectors,
                    ids=plan.insert_ids,
                    attributes=plan.insert_attributes,
                )
                collection.flush()
            if system_config.maintenance_mode != "off":
                maintenance_report = collection.run_maintenance()

        indices = None
        if self.workload.popularity_skew > 0.0:
            indices = self.workload.popularity_indices(self.workload.popularity_requests)
        request = self._search_request(indices)
        truth = self._ground_truth_ids()
        if indices is not None:
            truth = truth[indices]
        cache_on = system_config.cache_policy != "none"
        scheduled = self.use_query_scheduler and system_config.search_threads > 1
        trace = None
        if cache_on or scheduled:
            # A cache-enabled replay takes the per-request path even for
            # serial configurations: hits are per request, so per-request
            # accounting is what makes the measured QPS reflect them.
            result, trace = self._scheduler.run(collection.search_many, request)
        else:
            result = collection.search(request)
        recall = recall_at_k(result.ids, truth, self.workload.top_k)

        cost_model = self.server.cost_model()
        profile = collection.profile()
        report = cost_model.evaluate(
            result.stats,
            profile,
            build_stats,
            recall,
            concurrency=self.workload.concurrency,
        )
        breakdown = dict(report.breakdown)
        qps = report.qps
        replay_seconds = report.replay_seconds
        failed = report.failed
        if trace is not None and trace.num_requests:
            # Serial cache-enabled configurations still replay per request;
            # their worker budget is the plain client-concurrency one, so
            # cache-off serial behaviour is matched exactly at hit ratio 0.
            if system_config.search_threads > 1:
                workers = system_config.effective_search_workers()
            else:
                workers = system_config.effective_concurrency(self.workload.concurrency)
            measured_qps, makespan = cost_model.concurrent_qps(
                trace.request_shard_stats, profile, workers=workers
            )
            qps = measured_qps
            replay_seconds = report.build_seconds + cost_model.SIMULATED_REQUESTS / max(qps, 1e-9)
            failed = replay_seconds > cost_model.REPLAY_TIMEOUT_SECONDS
            breakdown["measured_concurrent_qps"] = float(measured_qps)
            breakdown["scheduler_workers"] = float(workers)
            breakdown["scheduled_requests"] = float(trace.num_requests)
            breakdown["schedule_makespan_seconds"] = float(makespan)
        if cache_on:
            # The replay collection is created per replay, so its cache's
            # counters start at zero and cover exactly this request stream.
            cache_stats = collection.query_cache.stats
            breakdown["cache_hits"] = float(cache_stats.result_hits)
            breakdown["cache_misses"] = float(cache_stats.result_misses)
            breakdown["cache_hit_ratio"] = cache_stats.result_hit_ratio

        # Per-query latency samples: the replayer surfaces p50/p99 alongside
        # the mean, so tail behaviour (one slow filtered segment, one
        # overfetch-refilling query) is visible to the tuner's consumers.
        latency_us, _ = cost_model.query_latency_microseconds(result.stats, profile)
        samples_ms = self._latency_samples_ms(
            cost_model, profile, trace, latency_us, self.workload.num_queries
        )
        breakdown["latency_p50_ms"] = float(np.percentile(samples_ms, 50))
        breakdown["latency_p99_ms"] = float(np.percentile(samples_ms, 99))

        if result.filter_stats is not None:
            stats = result.filter_stats
            breakdown["filter_rows_scanned"] = float(stats.rows_scanned)
            breakdown["filter_candidates_dropped"] = float(stats.candidates_dropped)
            breakdown["filter_selectivity"] = float(stats.selectivity)
            breakdown["filter_pre_segments"] = float(stats.pre_segments)
            breakdown["filter_post_segments"] = float(stats.post_segments)
        if plan is not None:
            maintenance_seconds = cost_model.maintenance_seconds(maintenance_report, profile)
            replay_seconds += maintenance_seconds
            failed = failed or replay_seconds > cost_model.REPLAY_TIMEOUT_SECONDS
            breakdown["maintenance_seconds"] = float(maintenance_seconds)
            breakdown["tombstone_rows"] = float(profile.tombstone_rows)
            if maintenance_report is not None:
                breakdown["segments_compacted"] = float(maintenance_report.segments_compacted)
                breakdown["segments_reindexed"] = float(maintenance_report.segments_reindexed)
                breakdown["maintenance_rows_dropped"] = float(maintenance_report.rows_dropped)
        if system_config.durability_mode != "off":
            # Analytic WAL traffic of the mutation phase above.  The replay
            # collection itself is in-memory (the replayer's server has no
            # data directory), so the charge is derived from the plan the
            # same way the maintenance charge is derived from its report:
            # one record per logged operation, rows for insert/delete
            # payloads, commit records (create/flush/create_index) always
            # fsync while "always" additionally fsyncs every record.
            if plan is not None:
                base_rows = int(plan.base_vectors.shape[0])
            else:
                base_rows = int(self.dataset.vectors.shape[0])
            wal_records = 4  # create + insert + flush + create_index
            commit_records = 3  # create + flush + create_index
            rows_logged = base_rows
            if plan is not None:
                wal_records += 1  # delete
                rows_logged += int(plan.delete_ids.shape[0])
                if plan.insert_vectors.shape[0]:
                    wal_records += 2  # insert + flush
                    commit_records += 1
                    rows_logged += int(plan.insert_vectors.shape[0])
            if system_config.wal_sync_policy == "always":
                wal_fsyncs = wal_records
            else:
                wal_fsyncs = commit_records
            checkpoints = int(
                system_config.durability_mode == "wal+checkpoint"
                and maintenance_report is not None
            )
            durability_seconds = cost_model.durability_seconds(
                wal_records,
                rows_logged,
                wal_fsyncs,
                profile,
                checkpoints=checkpoints,
            )
            replay_seconds += durability_seconds
            failed = failed or replay_seconds > cost_model.REPLAY_TIMEOUT_SECONDS
            breakdown["durability_seconds"] = float(durability_seconds)
            breakdown["wal_records"] = float(wal_records)
            breakdown["wal_rows_logged"] = float(rows_logged)
            breakdown["wal_fsyncs"] = float(wal_fsyncs)
            breakdown["checkpoints"] = float(checkpoints)
        return EvaluationResult(
            qps=float(qps),
            recall=report.recall,
            memory_gib=report.memory_gib,
            latency_ms=report.latency_ms,
            build_seconds=report.build_seconds,
            replay_seconds=float(replay_seconds),
            failed=bool(failed),
            configuration=dict(configuration),
            breakdown=breakdown,
        )
