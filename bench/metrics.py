"""The metric catalogue: every name the benchmark prints, with unit and direction.

``END_TO_END`` is what a user of the system sees and what ``BENCHMARK.json``
gates; every workload reports every one of them.  ``WORKLOAD_END_TO_END`` are
user-visible too but exist on some workloads only or carry no bound (the
``e2e.raw_*`` ones), so the driver's schema (every end-to-end metric on every
workload, never zero, each with a bound) keeps them out of ``BENCHMARK.json``'s
gated list; they are printed under an ``e2e.`` prefix and ``bench/compare.py``
applies the bounds they have.  ``PER_LAYER`` metrics have no
bound; ``moves`` names the end-to-end metric and workload each should move.

Times are mean milliseconds per operation of the workload (one HTTP search,
one embedded call, one tuning iteration) unless the note says otherwise, so a
workload's ``*.self_ms``/``*_ms`` leaves add up to its mean operation latency.
Unit ``1/op`` is a call count per operation, ``count`` an absolute count over
the timed region.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "DEMOTED",
    "END_TO_END",
    "WORKLOAD_END_TO_END",
    "PER_LAYER",
    "WORKLOADS",
    "Metric",
    "RUN_SECONDS",
    "all_metrics",
    "benchmark_json",
]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Relative regression bound (share of the baseline median); ``None`` = not gated.
    bound: float | None = None
    #: Absolute regression bound, for metrics pinned to an exact value.
    absolute: float | None = None
    #: Which end-to-end metric this should move, on which workload.
    moves: str = ""


#: name -> why the workload exists (one line; also written to BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "serve_scan": (
        "cache-off HTTP searches over 93 FLAT segments: every request pays "
        "admission, fan-out, kernel, merge and JSON; the cache does nothing"
    ),
    "serve_hot": (
        "same corpus and requests, all result-cache hits: only HTTP, admission, "
        "facade and the cache hit path run; a scan change must show no change"
    ),
    "embed_mixed_rw": (
        "embedded writes beside filtered IVF reads on a WAL-durable 2-shard "
        "collection: invalidation, sealing, inline maintenance and fsync cost"
    ),
    "tune_loop": (
        "the paper's sequential VDTuner loop on glove-small: index builds, "
        "replays, GP fit and EHVI, and none of the serving layers"
    ),
}

#: The gated times are rescaled to a reference host speed (bench/hostspeed.py),
#: because this VM's own speed moves by 30-45 % between two runs; what is left
#: after that is the spread bench/README.md records, and the bounds sit above it.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.15, absolute=0.25),  # compare.py: 15 % or 0.25 s, whichever is larger
    Metric("ops_per_s", "1/s", "higher", 0.15),
    Metric("latency_p50_ms", "ms", "lower", 0.15),
    Metric("latency_p90_ms", "ms", "lower", 0.15),
    Metric("rss_peak_mib", "MiB", "lower", 0.10),
)

WORKLOAD_END_TO_END: tuple[Metric, ...] = (
    Metric("e2e.write_rows_per_s", "rows/s", "higher", 0.15, moves="embed_mixed_rw only"),
    Metric("e2e.fail_share", "ratio", "lower", absolute=0.0, moves="all workloads; must be 0"),
    Metric("e2e.recall_at_10", "ratio", "higher", absolute=0.0,
           moves="serve_scan, serve_hot (must be 1.0), embed_mixed_rw (final state)"),
    Metric("e2e.tune_hv", "qps.recall", "higher", 1e-6, moves="tune_loop only"),
    Metric("e2e.tune_best_qps_r90", "qps", "higher", 1e-6, moves="tune_loop only"),
    # The whole timed region exactly as the callers saw it, host noise and all:
    # no bound, but an intermittent stall of the program shows here first.
    Metric("e2e.raw_setup_s", "s", "lower", moves="setup_s before the host-speed factor"),
    Metric("e2e.raw_ops_per_s", "1/s", "higher", moves="completed operations / wall seconds of the timed region"),
    Metric("e2e.raw_latency_p50_ms", "ms", "lower", moves="caller-observed, every read of the timed region"),
    Metric("e2e.raw_latency_p90_ms", "ms", "lower", moves="caller-observed, every read of the timed region"),
    Metric("e2e.raw_write_rows_per_s", "rows/s", "higher", moves="embed_mixed_rw only"),
)

#: (workload, end-to-end metric) pairs the whole-set result files under per-layer
#: and ``bench/compare.py`` does not judge.  The issue defines no latency for
#: tune_loop; the driver wants every metric on every workload, so a run reports
#: the iteration latency there, but the median of 32 iterations that last 10 ms
#: to 6 s reads 11 % apart between runs and three runs cannot resolve a bound.
DEMOTED: frozenset[tuple[str, str]] = frozenset(
    {("tune_loop", "latency_p50_ms"), ("tune_loop", "latency_p90_ms")}
)

_HOT = "latency_p50_ms, ops_per_s @ serve_hot"
_SCAN = "latency_p50_ms, ops_per_s @ serve_scan"
_EMBED_W = "e2e.write_rows_per_s @ embed_mixed_rw"
_EMBED_R = "latency_p50_ms @ embed_mixed_rw"
_TUNE = "ops_per_s @ tune_loop"


def _layer(prefix: str, moves: str, *specs: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{name}", unit, better, moves=moves) for name, unit, better in specs)


PER_LAYER: tuple[Metric, ...] = (
    *_layer(
        "serving.server", f"{_HOT} (nearly all of it); the fixed part @ serve_scan",
        ("self_ms", "ms", "lower"),  # client round trip minus the ServingFrontend.execute span
        ("req_bytes", "B", "lower"),
        ("resp_bytes", "B", "lower"),
        ("p99_ms", "ms", "lower"),  # of the client round trip, not a mean
    ),
    *_layer(
        "serving.admission", "latency_p90_ms @ serve_scan (wait ~ one service time); ~0 @ serve_hot",
        ("queue_wait_ms", "ms", "lower"),
        ("self_ms", "ms", "lower"),
        ("admitted", "count", "higher"),
        ("served", "count", "higher"),
        ("shed", "count", "lower"),
        ("expired", "count", "lower"),
        ("failed", "count", "lower"),
        ("queue_depth_max", "count", "lower"),
    ),
    *_layer("vdms.server", _HOT, ("search_self_ms", "ms", "lower")),
    *_layer(
        "vdms.cache", f"{_HOT}; {_EMBED_R} through the hit ratio; 0 calls @ serve_scan",
        ("key_ms", "ms", "lower"),
        ("lookup_ms", "ms", "lower"),
        ("store_ms", "ms", "lower"),
        ("lookup_calls", "1/op", "lower"),
        ("result_hit_ratio", "ratio", "higher"),
        ("plan_hit_ratio", "ratio", "higher"),
        ("entries", "count", "lower"),
    ),
    *_layer(
        "vdms.collection", f"{_SCAN} (largest share); {_EMBED_R}; {_TUNE} via replay",
        ("search_ms", "ms", "lower"),
        ("search_self_ms", "ms", "lower"),
        ("segments_per_query", "count", "lower"),
        ("insert_ms", "ms", "lower"),
        ("flush_ms", "ms", "lower"),
        ("delete_ms", "ms", "lower"),
        ("create_index_ms", "ms", "lower"),
    ),
    *_layer(
        "vdms.request", f"{_EMBED_R} only",
        ("mask_ms", "ms", "lower"),
        ("mask_calls", "1/op", "lower"),
        ("rows_scanned", "count", "lower"),
        ("pre_segments", "count", "lower"),
        ("post_segments", "count", "lower"),
    ),
    *_layer(
        "vdms.sharding", f"{_SCAN}; {_EMBED_R}; {_TUNE}",
        ("snapshot_ms", "ms", "lower"),
        ("merge_ms", "ms", "lower"),
        ("merge_calls", "1/op", "lower"),
        ("scheduler_run_ms", "ms", "lower"),
    ),
    *_layer(
        "vdms.index", f"{_SCAN}; {_TUNE} (build is its largest share); {_EMBED_W} (re-index on seal)",
        ("search_ms", "ms", "lower"),
        ("search_self_ms", "ms", "lower"),
        ("search_calls", "1/op", "lower"),
        ("build_ms", "ms", "lower"),
        ("build_calls", "1/op", "lower"),
    ),
    *_layer(
        "vdms.distance", f"{_SCAN}; vdms.collection.search_ms / floor_ms is ROADMAP item 2's ratio",
        ("scan_ms", "ms", "lower"),
        ("scan_calls", "1/op", "lower"),
        ("topk_ms", "ms", "lower"),
        ("prepare_ms", "ms", "lower"),
        ("distance_evals", "1/op", "lower"),
        ("floor_ms", "ms", "lower"),  # bench-side: one operand, one blocked scan, one top-k
    ),
    *_layer(
        "vdms.segment", _EMBED_W,
        ("insert_ms", "ms", "lower"),
        ("flush_ms", "ms", "lower"),
        ("delete_ms", "ms", "lower"),
        ("compact_ms", "ms", "lower"),
        ("sealed_segments", "count", "lower"),
        ("rows_rewritten", "count", "lower"),
    ),
    *_layer(
        "vdms.maintenance", f"{_EMBED_W}; latency_p90_ms @ embed_mixed_rw",
        ("run_ms", "ms", "lower"),
        ("runs", "count", "lower"),
        ("segments_compacted", "count", "lower"),
        ("segments_reindexed", "count", "lower"),
        ("stall_max_ms", "ms", "lower"),  # longest mutation call containing a pass
    ),
    *_layer(
        "vdms.durability", f"{_EMBED_W}; recover_ms is recorded, not gated",
        ("log_ms", "ms", "lower"),
        ("records", "count", "lower"),
        ("fsyncs", "count", "lower"),
        ("wal_bytes", "B", "lower"),
        ("bytes_per_user_byte", "ratio", "lower"),
        ("recover_ms", "ms", "lower"),  # one recovery after the timed region
        ("recover_records", "count", "lower"),
    ),
    *_layer(
        "vdms.cost_model", f"{_TUNE} (expected ~0)",
        ("evaluate_ms", "ms", "lower"),
        ("concurrent_qps_ms", "ms", "lower"),
    ),
    *_layer(
        "workloads.environment", _TUNE,
        ("evaluate_ms", "ms", "lower"),
        ("evaluations", "count", "higher"),
    ),
    *_layer(
        "workloads.replay", f"{_TUNE} (~80 %)",
        ("replay_ms", "ms", "lower"),
        ("load_ms", "ms", "lower"),  # Collection.insert + flush under a replay
        ("build_ms", "ms", "lower"),  # Collection.create_index under a replay
        ("search_ms", "ms", "lower"),  # Collection.search under a replay (thread time)
    ),
    *_layer(
        "core.tuner", f"{_TUNE} (~20 %)",
        ("suggest_ms", "ms", "lower"),  # p50 per iteration, not a mean
        ("suggest_share", "ratio", "lower"),
    ),
    *_layer("core.surrogate", _TUNE, ("fit_ms", "ms", "lower"), ("predict_ms", "ms", "lower")),
    *_layer(
        "bo.gp", f"{_TUNE} (the hyperparameter fit is most of suggest_ms)",
        ("fit_ms", "ms", "lower"),
        ("fit_calls", "1/op", "lower"),
        ("predict_ms", "ms", "lower"),
    ),
    *_layer(
        "core.acquisition", _TUNE,
        ("recommend_ms", "ms", "lower"),
        ("candidates_ms", "ms", "lower"),
    ),
    *_layer("bo.ehvi", _TUNE, ("ehvi_ms", "ms", "lower"), ("ehvi_calls", "1/op", "lower")),
    *_layer(
        "core.scoring", _TUNE,
        ("update_ms", "ms", "lower"),
        ("abandoned", "count", "higher"),
    ),
    *_layer(
        "bench", "validity of the instrument, no end-to-end metric",
        ("client_self_ms", "ms", "lower"),  # harness time per operation outside the timed call
        ("span_coverage", "ratio", "higher"),  # sum of all self times / summed caller latency
        ("host_speed", "ratio", "higher"),  # median over the timed region, 1.0 = the reference host
        ("trace_missing", "count", "lower"),  # targets of bench/trace.py that no longer exist
    ),
    *(metric._replace(bound=None, absolute=None) for metric in WORKLOAD_END_TO_END),
)


def all_metrics() -> dict[str, Metric]:
    """Every metric by name (the ``e2e.`` ones with their bounds)."""
    catalogue = {metric.name: metric for metric in PER_LAYER}
    catalogue.update((metric.name, metric) for metric in (*END_TO_END, *WORKLOAD_END_TO_END))
    return catalogue


#: Length of one timed region, seconds: BENCHMARK.json's ``run_seconds`` and run.py's default.
RUN_SECONDS = 15


def benchmark_json() -> dict:
    """The content of the repo-root ``BENCHMARK.json`` (the driver's schema, nothing more)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":  # python3 bench/metrics.py > BENCHMARK.json
    import json

    print(json.dumps(benchmark_json(), indent=1))
