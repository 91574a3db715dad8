"""Command-line interface.

Nine subcommands cover the workflows a downstream user needs most often::

    python -m repro.cli evaluate    --dataset glove-small --index-type HNSW
    python -m repro.cli tune        --dataset glove-small --iterations 50 --recall-floor 0.9
    python -m repro.cli compare     --dataset glove-small --iterations 30 --tuners vdtuner random qehvi
    python -m repro.cli tune-online --dataset glove-small --drift shift --seed 0
    python -m repro.cli scenario-matrix --output matrix.json
    python -m repro.cli serve       --preload glove-small --port 8421 --data-dir /var/lib/vdms
    python -m repro.cli tune-tenants --tenant-config tenants.json --budget 40
    python -m repro.cli recover     --data-dir /var/lib/vdms
    python -m repro.cli loadgen     --url http://127.0.0.1:8421 --qps 50 --duration 5

``evaluate`` replays the workload once for a single configuration, ``tune``
runs VDTuner and prints the recommended configuration, and ``compare`` runs
several tuners with the same budget and prints a Figure 6-style table.

``tune-online`` runs the continuous tune/serve loop on a drifting workload
(:mod:`repro.workloads.dynamic`): it tunes, deploys the incumbent, detects
the drift via CUSUM on the served metrics and re-tunes warm-started
(``--cold-restart`` disables the warm start).  ``scenario-matrix`` sweeps
{drift x severity x tuner} and persists per-phase Pareto metrics to JSON.

``evaluate --set NAME=VALUE`` overrides any parameter of the default
configuration; ``--set shard_num=S --set search_threads=T`` serves the
replay through the sharded scatter-gather engine and the per-request query
scheduler, whose shard tasks are event-simulated over T workers (measured
concurrent QPS), e.g.::

    python -m repro.cli evaluate --dataset glove-small --index-type IVF_FLAT \
        --set shard_num=4 --set search_threads=4 --set segment_max_size=125

``tune``, ``compare`` and ``tune-online`` accept ``--batch-size Q`` to switch
the tuners to joint q-EHVI suggestion batches, each replayed in-process and
charged its longest replay on the tuning clock, e.g.::

    python -m repro.cli tune --dataset glove-small --iterations 48 --batch-size 4

``serve`` exposes a VDMS instance over JSON/HTTP with admission control
(bounded queue, deadlines, load shedding, graceful drain on SIGTERM) and
``loadgen`` drives it with an open-loop Poisson arrival stream, reporting
achieved QPS, latency quantiles and the shed rate (see :mod:`repro.serving`).
``serve --data-dir DIR`` makes the server durable (write-ahead log +
checkpoints under ``DIR``; existing collections are recovered before the
socket binds) and ``recover`` performs the same recovery offline, reporting
what each collection's WAL and checkpoint rebuilt.

``serve --tenant-config FILE`` makes the server multi-tenant: each tenant
(= collection) gets its own bounded queue drained by weighted-fair (stride)
scheduling, its own SLO and optionally its own ``SystemConfig`` override.
``tune-tenants`` runs one SLO-constrained online tuner per tenant under a
shared evaluation budget — each recall floor drives constrained
acquisition, a declared cost budget switches that tenant to the QP$
objective — and exits non-zero if any tenant misses its floor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace as dataclass_replace
from typing import Sequence

from repro.analysis.reporting import format_table
from repro.analysis.tradeoff import DEFAULT_SACRIFICES, speed_vs_sacrifice_curve, tradeoff_ability
from repro.baselines import TUNER_REGISTRY, make_tuner
from repro.config import build_milvus_space, default_configuration
from repro.config.milvus_space import INDEX_TYPES
from repro.core import ObjectiveSpec, VDTuner, VDTunerSettings
from repro.datasets import DATASET_NAMES
from repro.vdms.errors import DurabilityError, InvalidConfigurationError
from repro.vdms.system_config import SystemConfig
from repro.workloads import VDMSTuningEnvironment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="VDTuner reproduction: evaluate, tune and compare VDMS configurations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    tuner_names = ["vdtuner", *sorted(TUNER_REGISTRY)]

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dataset", default="glove-small", choices=sorted(DATASET_NAMES))
        sub.add_argument("--seed", type=int, default=0, help="random seed")

    def add_batch_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--batch-size",
            type=int,
            default=1,
            metavar="Q",
            help="suggest and evaluate Q configurations per tuning iteration using "
            "joint q-EHVI batches (default 1: the paper's sequential loop); the "
            "total evaluation budget is unchanged",
        )

    evaluate = subparsers.add_parser("evaluate", help="replay the workload for one configuration")
    add_common(evaluate)
    evaluate.add_argument("--index-type", default="AUTOINDEX", choices=list(INDEX_TYPES))
    evaluate.add_argument(
        "--filter-selectivity",
        type=float,
        default=None,
        metavar="S",
        help="attach an attribute filter matching a fraction S in (0, 1] of "
        "the corpus to every query (hybrid filtered search); combine with "
        "--set filter_strategy=pre|post|auto and --set overfetch_factor=F "
        "to pin the execution strategy",
    )
    evaluate.add_argument(
        "--popularity-skew",
        type=float,
        default=None,
        metavar="S",
        help="replay a Zipf(s=S) popularity-skewed request stream instead of "
        "one pass over the query pool (hot queries repeat; pair with "
        "--set cache_policy=lru to see the cache pay off)",
    )
    evaluate.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a parameter of the default configuration (repeatable)",
    )

    tune = subparsers.add_parser("tune", help="run VDTuner and print the best configuration")
    add_common(tune)
    tune.add_argument("--iterations", type=int, default=50)
    tune.add_argument("--recall-floor", type=float, default=0.0,
                      help="report the best configuration with recall at or above this value")
    tune.add_argument("--recall-constraint", type=float, default=None,
                      help="optimize with a user recall-rate preference (constraint model)")
    tune.add_argument("--cost-aware", action="store_true",
                      help="optimize queries-per-dollar (QP$) instead of QPS")
    tune.add_argument("--json", action="store_true", help="print the best configuration as JSON")
    add_batch_options(tune)

    compare = subparsers.add_parser("compare", help="run several tuners with the same budget")
    add_common(compare)
    compare.add_argument("--iterations", type=int, default=30)
    add_batch_options(compare)
    compare.add_argument(
        "--tuners",
        nargs="+",
        default=["vdtuner", "random", "opentuner", "ottertune", "qehvi"],
        choices=tuner_names,
        help="tuner registry names",
    )

    def add_drift_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--steps", type=int, default=36,
                         help="total online evaluation budget (tuning + serving)")
        sub.add_argument("--retune-budget", type=int, default=8,
                         help="evaluations per (re-)tuning episode")
        sub.add_argument("--severity", type=float, default=0.7,
                         help="drift severity in (0, 1]")
        sub.add_argument("--cold-restart", action="store_true",
                         help="re-tune from scratch instead of warm-starting "
                         "from the decayed knowledge base")

    tune_online = subparsers.add_parser(
        "tune-online",
        help="run the continuous tune/serve loop on a drifting workload",
    )
    add_common(tune_online)
    tune_online.add_argument(
        "--drift",
        default="shift",
        help="drift scenario: query_shift/shift, data_churn/churn, "
        "qps_burst/burst, filter_shift/filter, or none",
    )
    tune_online.add_argument("--drift-step", type=int, default=None,
                             help="evaluation step the drift fires at, before the last one "
                                  "(default: 60%% of --steps, after the first re-tune)")
    tune_online.add_argument("--tuner", default="vdtuner", choices=tuner_names,
                             help="tuner registry name")
    tune_online.add_argument("--json", action="store_true",
                             help="print the full online report summary as JSON")
    add_drift_options(tune_online)
    add_batch_options(tune_online)

    matrix = subparsers.add_parser(
        "scenario-matrix",
        help="sweep {drift x severity x tuner} and persist per-phase Pareto metrics",
    )
    add_common(matrix)
    matrix.add_argument("--drifts", nargs="+",
                        default=["query_shift", "data_churn", "qps_burst", "filter_shift"],
                        help="drift scenarios to sweep")
    matrix.add_argument("--severities", nargs="+", type=float, default=[0.35, 0.7],
                        help="severities to sweep")
    matrix.add_argument("--tuners", nargs="+", default=["vdtuner", "random"],
                        choices=tuner_names, help="tuners to sweep")
    matrix.add_argument("--steps", type=int, default=None,
                        help="total online evaluation budget per cell")
    matrix.add_argument("--retune-budget", type=int, default=None,
                        help="evaluations per (re-)tuning episode")
    matrix.add_argument("--output", default=None, metavar="PATH",
                        help="write the matrix to this JSON file")

    serve = subparsers.add_parser(
        "serve",
        help="run the JSON/HTTP serving front-end (admission control, graceful drain)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument("--port", type=int, default=8421,
                       help="listen port (0 binds an ephemeral port)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="bounded admission queue; a full queue sheds with HTTP 429")
    serve.add_argument("--serve-workers", type=int, default=2, metavar="N",
                       help="execution threads draining the admission queue")
    serve.add_argument("--default-deadline-ms", type=float, default=None, metavar="MS",
                       help="deadline applied to requests that carry none; expired "
                       "requests are answered 504 without touching the backend")
    serve.add_argument("--drain-timeout", type=float, default=30.0, metavar="S",
                       help="seconds the graceful drain waits for admitted requests")
    serve.add_argument("--preload", default=None, metavar="DATASET",
                       choices=sorted(DATASET_NAMES),
                       help="build a ready-to-search collection from this dataset "
                       "before accepting traffic")
    serve.add_argument("--index-type", default="FLAT", choices=list(INDEX_TYPES),
                       help="index built over the preloaded collection")
    serve.add_argument("--collection-name", default="bench",
                       help="name of the preloaded collection")
    serve.add_argument("--data-dir", default=None, metavar="DIR",
                       help="persist collections under this directory (write-ahead "
                       "log + checkpoints); existing collections are recovered "
                       "before the socket binds")
    serve.add_argument("--durability-mode", default=None,
                       choices=["off", "wal", "wal+checkpoint"],
                       help="durability tier used with --data-dir (default: "
                       "wal+checkpoint when --data-dir is given)")
    serve.add_argument("--tenant-config", default=None, metavar="FILE",
                       help="JSON tenant-config file: per-tenant fair-scheduling "
                       "weight, queue depth, SLO (recall floor / p99 target / cost "
                       "budget) and SystemConfig override; tenants are registered "
                       "before the socket binds")
    serve.add_argument("--seed", type=int, default=0, help="random seed")

    tune_tenants = subparsers.add_parser(
        "tune-tenants",
        help="run SLO-constrained online tuners for several tenants under one "
        "shared evaluation budget",
    )
    tune_tenants.add_argument("--tenant-config", required=True, metavar="FILE",
                              help="JSON tenant-config file; each tenant's SLO "
                              "(recall floor / cost budget) becomes its constrained "
                              "tuning objective, its weight its share of the budget")
    tune_tenants.add_argument("--dataset", default="glove-small",
                              choices=sorted(DATASET_NAMES),
                              help="dataset every tenant's environment replays")
    tune_tenants.add_argument("--steps", type=int, default=12, metavar="N",
                              help="per-tenant online steps (tune + serve)")
    tune_tenants.add_argument("--retune-budget", type=int, default=6, metavar="N",
                              help="evaluations per tenant's tuning episode")
    tune_tenants.add_argument("--budget", type=int, default=None, metavar="N",
                              help="shared evaluation budget across all tenants "
                              "(default: the sum of per-tenant steps, i.e. no "
                              "contention)")
    tune_tenants.add_argument("--tuner", default="vdtuner", choices=tuner_names,
                              help="tuner registry name used for every tenant")
    tune_tenants.add_argument("--attained-penalty", type=float, default=4.0,
                              metavar="F",
                              help="how much faster an SLO-attained tenant's "
                              "scheduling pass advances (>= 1; higher steers the "
                              "remaining budget toward out-of-contract tenants)")
    tune_tenants.add_argument("--seed", type=int, default=0, help="random seed")
    tune_tenants.add_argument("--json", action="store_true",
                              help="print the per-tenant summary as JSON")

    recover = subparsers.add_parser(
        "recover",
        help="recover durable collections from a serve --data-dir directory",
    )
    recover.add_argument("--data-dir", required=True, metavar="DIR",
                         help="the directory a durable `serve --data-dir` wrote")
    recover.add_argument("--collection", default=None, metavar="NAME",
                         help="recover only this collection (default: every "
                         "collection found under the data directory)")
    recover.add_argument("--json", action="store_true",
                         help="print the recovery reports as JSON")

    loadgen = subparsers.add_parser(
        "loadgen",
        help="open-loop (Poisson-arrival) load generator against a running server",
    )
    loadgen.add_argument("--url", default="http://127.0.0.1:8421",
                         help="base URL of a running `repro.cli serve` instance")
    loadgen.add_argument("--collection", default="bench", help="collection to search")
    loadgen.add_argument("--qps", type=float, default=50.0,
                         help="target offered arrival rate (open-loop: requests are "
                         "dispatched on schedule regardless of outstanding work)")
    loadgen.add_argument("--duration", type=float, default=5.0, metavar="S",
                         help="length of the arrival schedule in seconds")
    loadgen.add_argument("--top-k", type=int, default=10, help="neighbours per query")
    loadgen.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                         help="per-request deadline forwarded in each search body")
    loadgen.add_argument("--no-cache", action="store_true",
                         help="send use_cache=false so every request costs real "
                         "scatter-gather work")
    loadgen.add_argument("--seed", type=int, default=0, help="random seed")
    loadgen.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of a table")
    return parser


def _fail(message: str) -> "SystemExit":
    """Abort with an actionable error message (printed to stderr, exit status 1)."""
    raise SystemExit(f"error: {message}")


#: Settings fields whose flag is not ``--`` plus the field name in dashes.
_FLAG_OF_FIELD = {
    "workers": "--serve-workers",
    "drain_timeout_seconds": "--drain-timeout",
    "total_steps": "--steps",
    "at_step": "--drift-step",
    "num_iterations": "--iterations",
    "duration_seconds": "--duration",
    "selectivity": "--filter-selectivity",
}


def _built(factory, *args, **kwargs):
    """Call ``factory``; its ``ValueError`` becomes an ``error:`` naming the flag.

    The settings a command builds check their own fields, and each message
    they raise starts with the offending field's name.
    """
    try:
        return factory(*args, **kwargs)
    except ValueError as error:
        field = str(error).split(" ", 1)[0]
        _fail(f"{_FLAG_OF_FIELD.get(field, '--' + field.replace('_', '-'))}: {error}")


def _validate_batch_options(args: argparse.Namespace) -> None:
    """Reject a batch size below one before any work starts."""
    if args.batch_size < 1:
        _fail(
            f"--batch-size must be >= 1 (got {args.batch_size}); "
            "use 1 for the paper's sequential loop"
        )


def _note_inert_settings(args: argparse.Namespace, overrides: dict, configuration) -> None:
    """Point out settings the configuration that runs never consults."""
    notes = []
    if args.filter_selectivity is None and "filter_strategy" in overrides:
        notes.append(
            "--set filter_strategy has no effect without --filter-selectivity; "
            "unfiltered searches never consult the filter planner"
        )
    if "routing_policy" in overrides and configuration["shard_num"] == 1:
        notes.append(
            "--set routing_policy has no effect with a single shard; "
            "add --set shard_num=S with S > 1 to partition the collection"
        )
    if "cache_capacity" in overrides and configuration["cache_policy"] == "none":
        notes.append(
            "--set cache_capacity has no effect without --set cache_policy=lru; "
            "the cache is disabled by default"
        )
    if args.popularity_skew and configuration["cache_policy"] == "none":
        notes.append(
            "--popularity-skew replays a skewed stream but nothing memoizes it; "
            "add --set cache_policy=lru to serve repeats from cache"
        )
    for note in notes:
        print(f"note: {note}", file=sys.stderr)


def _check_retune_budget(args: argparse.Namespace) -> None:
    """Reject a tuning episode longer than the whole online run."""
    if args.retune_budget > args.steps:
        _fail(
            f"--retune-budget {args.retune_budget} exceeds --steps {args.steps}; "
            "the first tuning episode could never finish — lower the budget or "
            "raise the step count"
        )


def _parse_overrides(pairs: Sequence[str], space) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            _fail(f"--set {pair!r} is not an override; expected NAME=VALUE")
        name, raw_value = pair.split("=", 1)
        if name not in space:
            _fail(f"--set {pair!r} names unknown parameter {name!r}")
        parameter = space[name]
        try:
            value = type(parameter.default)(raw_value) if not isinstance(parameter.default, str) else raw_value
        except ValueError as error:
            _fail(f"--set {pair!r}: cannot parse the value for {name!r}: {error}")
        overrides[name] = value
    return overrides


def _command_evaluate(args: argparse.Namespace) -> int:
    space = build_milvus_space()
    environment = VDMSTuningEnvironment(args.dataset, space=space, seed=args.seed)
    overrides = _parse_overrides(args.overrides, space)
    if args.filter_selectivity is not None:
        import numpy as np

        from repro.workloads.dynamic import make_filtered_workload

        drifted, filtered = _built(
            make_filtered_workload,
            environment.dataset,
            environment.workload,
            args.filter_selectivity,
            np.random.default_rng(args.seed),
            suffix="cli_filter",
        )
        environment.set_workload(filtered, dataset=drifted)
    if args.popularity_skew is not None:
        environment.set_workload(
            _built(dataclass_replace, environment.workload, popularity_skew=args.popularity_skew)
        )
    try:
        configuration = default_configuration(
            space, index_type=args.index_type, overrides=overrides
        )
        SystemConfig.from_mapping(dict(configuration))
    except (ValueError, InvalidConfigurationError) as error:
        _fail(
            f"the configuration is invalid: {error}; "
            "check --set overrides against the documented parameter ranges"
        )
    _note_inert_settings(args, overrides, configuration)
    result = environment.evaluate(configuration)
    rows = [
        ["index type", args.index_type],
        ["shards", configuration["shard_num"]],
        ["search threads", configuration["search_threads"]],
        ["QPS", round(result.qps, 1)],
        ["recall", round(result.recall, 4)],
        ["latency (ms)", round(result.latency_ms, 2)],
        ["latency p50 (ms)", round(result.breakdown.get("latency_p50_ms", result.latency_ms), 2)],
        ["latency p99 (ms)", round(result.breakdown.get("latency_p99_ms", result.latency_ms), 2)],
        ["memory (GiB)", round(result.memory_gib, 2)],
        ["simulated replay (s)", round(result.replay_seconds, 1)],
        ["failed", result.failed],
    ]
    if configuration["cache_policy"] != "none":
        rows.extend(
            [
                ["cache policy", configuration["cache_policy"]],
                ["cache capacity", configuration["cache_capacity"]],
                ["cache hit ratio", round(result.breakdown.get("cache_hit_ratio", 0.0), 4)],
                ["cache hits / misses",
                 f"{int(result.breakdown.get('cache_hits', 0))} / "
                 f"{int(result.breakdown.get('cache_misses', 0))}"],
            ]
        )
    if args.filter_selectivity is not None:
        rows.extend(
            [
                ["filter selectivity", round(result.breakdown.get("filter_selectivity", 0.0), 4)],
                ["filter strategy", configuration["filter_strategy"]],
                ["filter rows scanned", int(result.breakdown.get("filter_rows_scanned", 0))],
                ["filter candidates dropped", int(result.breakdown.get("filter_candidates_dropped", 0))],
                ["pre / post segments",
                 f"{int(result.breakdown.get('filter_pre_segments', 0))} / "
                 f"{int(result.breakdown.get('filter_post_segments', 0))}"],
            ]
        )
    print(format_table(["metric", "value"], rows, title=f"evaluate on {args.dataset}"))
    return 0


def _command_tune(args: argparse.Namespace) -> int:
    settings = _built(VDTunerSettings, num_iterations=args.iterations, seed=args.seed)
    objective = _built(
        ObjectiveSpec,
        speed_metric="qp$" if args.cost_aware else "qps",
        recall_constraint=args.recall_constraint,
    )
    # Read only once the loop is over: checked before it starts.
    if not 0.0 <= args.recall_floor <= 1.0:
        _fail(f"--recall-floor: recall_floor must lie in [0, 1] (got {args.recall_floor})")
    _validate_batch_options(args)
    environment = VDMSTuningEnvironment(args.dataset, seed=args.seed)
    tuner = VDTuner(environment, settings=settings, objective=objective)
    report = tuner.run(batch_size=args.batch_size)
    best = report.best_observation(recall_floor=args.recall_floor)
    if best is None:
        print("no configuration satisfied the requested recall floor", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(best.configuration, indent=2, default=str))
        return 0
    rows = [["best index type", best.index_type],
            ["speed objective", round(best.speed, 1)],
            ["recall", round(best.recall, 4)],
            ["iterations", len(report.history)],
            ["abandoned index types", ", ".join(report.abandoned) or "none"]]
    print(format_table(["metric", "value"], rows, title=f"VDTuner on {args.dataset}"))
    print()
    config_rows = [[name, value] for name, value in sorted(best.configuration.items())]
    print(format_table(["parameter", "value"], config_rows, title="recommended configuration"))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    settings = _built(VDTunerSettings, num_iterations=args.iterations, seed=args.seed)
    _validate_batch_options(args)
    curves = {}
    abilities = {}
    for name in args.tuners:
        environment = VDMSTuningEnvironment(args.dataset, seed=args.seed)
        tuner = make_tuner(name, environment, seed=args.seed, settings=settings)
        report = tuner.run(args.iterations, batch_size=args.batch_size)
        curves[name] = speed_vs_sacrifice_curve(report.history)
        abilities[name] = tradeoff_ability(report.history)
    rows = [
        [name]
        + [round(curves[name][s], 1) for s in DEFAULT_SACRIFICES]
        + [round(abilities[name], 1)]
        for name in args.tuners
    ]
    print(
        format_table(
            ["tuner"] + [f"sacrifice {s}" for s in DEFAULT_SACRIFICES] + ["tradeoff std"],
            rows,
            title=f"best QPS per recall sacrifice on {args.dataset} ({args.iterations} iterations)",
        )
    )
    return 0


def _command_tune_online(args: argparse.Namespace) -> int:
    from repro.core.online import OnlineTuner, OnlineTunerSettings
    from repro.workloads.dynamic import (
        DynamicTuningEnvironment,
        DynamicWorkload,
        make_drift_event,
    )
    from repro.datasets.registry import load_dataset
    from repro.experiments.scenario_matrix import drift_step_of

    settings = _built(
        OnlineTunerSettings,
        total_steps=args.steps,
        retune_budget=args.retune_budget,
        warm_start=not args.cold_restart,
        detector_threshold=4.0,
        detector_warmup=2,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    _check_retune_budget(args)
    _validate_batch_options(args)
    events = []
    if args.drift.lower() not in ("none", "static"):
        try:
            kind = make_drift_event(args.drift, at_step=1).name
        except KeyError as error:
            _fail(f"--drift: {error.args[0]}")
        try:
            drift_step = drift_step_of(settings, args.drift_step)
        except ValueError as error:
            _fail(f"{'--steps' if args.drift_step is None else '--drift-step'}: {error}")
        events.append(_built(make_drift_event, kind, at_step=drift_step, severity=args.severity))
    dynamic = DynamicWorkload(load_dataset(args.dataset), events, seed=args.seed)
    environment = DynamicTuningEnvironment(dynamic, seed=args.seed)
    report = OnlineTuner(environment, tuner=args.tuner, settings=settings).run()
    summary = report.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    rows = []
    for phase in summary["phases"]:
        rows.append(
            [
                phase["phase"],
                phase["start_step"],
                phase["evaluations"],
                round(phase["hypervolume"], 1),
                phase["best_index_type"] or "-",
                round(phase["best_score"], 1) if phase["best_score"] else "-",
                phase["time_to_recover"] if phase["time_to_recover"] is not None else "-",
                phase["detection_delay"] if phase["detection_delay"] is not None else "-",
            ]
        )
    drift = f"{args.drift} severity {args.severity} at step {drift_step}" if events else args.drift
    title = (
        f"online tuning on {args.dataset} "
        f"({drift}, {'warm' if settings.warm_start else 'cold'} re-tuning)"
    )
    print(
        format_table(
            ["phase", "start", "evals", "pareto HV", "best index", "best score",
             "recover (evals)", "detect (evals)"],
            rows,
            title=title,
        )
    )
    if summary["detections"]:
        print(f"\ndrift detected at step(s): {', '.join(map(str, summary['detections']))}")
    else:
        print("\nno drift detected (workload static or shift below the detector threshold)")
    return 0


def _command_scenario_matrix(args: argparse.Namespace) -> int:
    from repro.experiments.scenario_matrix import matrix_drift_step, run_scenario_matrix, save_matrix
    from repro.workloads.dynamic import make_drift_event

    # The sweep runs for minutes: build what it would build from each flag
    # (its settings and their drift step) before the first cell starts.
    _built(matrix_drift_step, total_steps=args.steps, retune_budget=args.retune_budget)
    try:
        for drift in args.drifts:
            for severity in args.severities:
                make_drift_event(drift, at_step=1, severity=severity)
    except KeyError as error:
        _fail(f"--drifts: {error.args[0]}")
    except ValueError as error:
        _fail(f"--severities: {error}")
    matrix = run_scenario_matrix(
        args.dataset,
        drifts=args.drifts,
        severities=args.severities,
        tuners=args.tuners,
        total_steps=args.steps,
        retune_budget=args.retune_budget,
        seed=args.seed,
    )
    rows = []
    for cell in matrix["cells"]:
        recoveries = [p["time_to_recover"] for p in cell["phases"][1:]]
        recovery = next((r for r in recoveries if r is not None), None)
        rows.append(
            [
                cell["drift"],
                cell["severity"],
                cell["tuner"],
                len(cell["phases"]),
                round(cell["phases"][-1]["hypervolume"], 1),
                recovery if recovery is not None else "-",
                "yes" if cell["detections"] else "no",
            ]
        )
    print(
        format_table(
            ["drift", "severity", "tuner", "phases", "final HV", "recover (evals)", "detected"],
            rows,
            title=f"scenario matrix on {args.dataset} (seed {args.seed})",
        )
    )
    if args.output:
        path = save_matrix(matrix, args.output)
        print(f"\nmatrix written to {path}")
    return 0


def _validate_serve_args(args: argparse.Namespace) -> None:
    """Reject a ``--data-dir`` / ``--durability-mode`` pair before binding the socket."""
    if args.data_dir is not None:
        if os.path.isfile(args.data_dir):
            _fail(
                f"--data-dir {args.data_dir!r} is a file, not a directory; "
                "point it at a directory (it is created if missing)"
            )
        if args.durability_mode == "off":
            _fail(
                f"--durability-mode off contradicts --data-dir {args.data_dir!r}: "
                "a data directory requires the WAL; drop --data-dir for an "
                "in-memory server, or use --durability-mode wal|wal+checkpoint"
            )
    elif args.durability_mode in ("wal", "wal+checkpoint"):
        _fail(
            f"--durability-mode {args.durability_mode} requires --data-dir: "
            "the write-ahead log needs a directory to live in"
        )


def _load_tenant_specs(path: str):
    """Parse a ``--tenant-config`` file, mapping errors onto actionable exits."""
    from repro.serving import load_tenant_config

    if not os.path.isfile(path):
        _fail(
            f"--tenant-config {path!r} does not exist; "
            "point it at a JSON file mapping tenant names to specs"
        )
    try:
        return load_tenant_config(path)
    except (OSError, ValueError) as error:
        _fail(f"--tenant-config {path!r}: {error}")


def _command_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serving import ServingConfig, ServingFrontend

    _validate_serve_args(args)
    tenants = ()
    if args.tenant_config is not None:
        tenants = tuple(_load_tenant_specs(args.tenant_config).values())
    config = _built(
        ServingConfig,
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        workers=args.serve_workers,
        default_deadline_ms=args.default_deadline_ms,
        drain_timeout_seconds=args.drain_timeout,
        data_dir=args.data_dir,
        tenants=tenants,
    )
    backend = None
    if args.data_dir is not None:
        from repro.vdms.server import VectorDBServer

        durability_mode = args.durability_mode or "wal+checkpoint"
        try:
            backend = VectorDBServer(
                SystemConfig(durability_mode=durability_mode), data_dir=args.data_dir
            )
        except OSError as error:
            _fail(f"--data-dir {args.data_dir!r} cannot be created: {error}")
    try:
        # With the settings built, only registering the tenants can fail here.
        frontend = ServingFrontend(backend=backend, config=config)
    except (ValueError, DurabilityError) as error:
        _fail(f"--tenant-config {args.tenant_config!r}: {error}")
    for spec in tenants:
        print(
            f"tenant {spec.name!r}: weight={spec.weight:g} "
            f"queue_depth={spec.queue_depth if spec.queue_depth is not None else args.queue_depth} "
            f"slo={spec.slo.to_dict()} "
            f"system_config={'override' if spec.system_config is not None else 'default'}",
            flush=True,
        )
    if args.preload is not None:
        from repro.datasets import load_dataset

        dataset = load_dataset(args.preload)
        configuration = default_configuration(index_type=args.index_type)
        params = {k: v for k, v in configuration.to_dict().items() if k != "index_type"}
        collection = frontend.backend.create_collection(
            args.collection_name, dataset.dimension, metric=dataset.metric
        )
        collection.insert(dataset.vectors)
        collection.flush()
        collection.create_index(args.index_type, params)
        print(
            f"preloaded collection {args.collection_name!r}: "
            f"{dataset.vectors.shape[0]} x {dataset.dimension} "
            f"({args.preload}, {args.index_type})",
            flush=True,
        )

    # Signal handlers only set an event; the drain itself runs outside signal
    # context below.  Handlers can only be installed from the main thread —
    # embedded callers (tests) drive request_drain() directly instead.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda *_: frontend.request_drain())
        signal.signal(signal.SIGINT, lambda *_: frontend.request_drain())

    try:
        frontend.start()
    except DurabilityError as error:
        # Close the collections recovered before the one that failed.
        frontend.drain()
        _fail(f"--data-dir {args.data_dir!r}: cannot recover its collections: {error}")
    for name in frontend.recovered_collections:
        collection = frontend.backend.get_collection(name)
        report = collection.recovery_report
        generation = "-" if report.generation is None else report.generation
        print(
            f"recovered collection {name!r}: {collection.num_rows} rows "
            f"(generation {generation}, "
            f"{report.wal_records_replayed} WAL records replayed)",
            flush=True,
        )
    print(
        f"serving on {frontend.url} "
        f"(queue_depth={args.queue_depth}, workers={args.serve_workers}); "
        "SIGTERM/SIGINT drains gracefully",
        flush=True,
    )
    frontend.drain_requested.wait()
    print("drain requested; finishing admitted requests...", flush=True)
    drained = frontend.drain()
    stats = frontend.admission.stats()
    print(
        f"drained (complete={drained}): served={stats.served} shed={stats.shed} "
        f"expired={stats.expired} rejected={stats.rejected} failed={stats.failed}",
        flush=True,
    )
    return 0 if drained else 1


def _command_tune_tenants(args: argparse.Namespace) -> int:
    from repro.core.multi_tenant import MultiTenantTuner, TenantTunerSpec
    from repro.core.online import OnlineTunerSettings
    from repro.datasets import load_dataset

    tenant_specs = _load_tenant_specs(args.tenant_config)
    settings = _built(
        OnlineTunerSettings, total_steps=args.steps, retune_budget=args.retune_budget
    )
    _check_retune_budget(args)
    dataset = load_dataset(args.dataset)
    specs = [
        TenantTunerSpec(
            tenant=spec,
            environment=VDMSTuningEnvironment(dataset, seed=args.seed + index),
            settings=dataclass_replace(settings, seed=args.seed + index),
            tuner=args.tuner,
        )
        for index, spec in enumerate(tenant_specs.values())
    ]
    tuner = _built(
        MultiTenantTuner, specs, budget=args.budget, attained_penalty=args.attained_penalty
    )
    report = tuner.run()
    attained_all = all(report.attained.values())
    if args.json:
        print(json.dumps(report.summary(), indent=2, sort_keys=True))
        return 0 if attained_all else 1
    summary = report.summary()
    rows = []
    for name in sorted(summary["tenants"]):
        entry = summary["tenants"][name]
        slo = tenant_specs[name].slo
        incumbent = entry["incumbent"] or {}
        rows.append(
            [
                name,
                f"{slo.recall_floor:.2f}" if slo.recall_floor > 0 else "-",
                "QP$" if slo.cost_budget is not None else "QPS",
                f"{tenant_specs[name].weight:g}",
                entry["evaluations"],
                "yes" if entry["attained"] else "NO",
                incumbent.get("index_type", "-"),
                f"{entry['final_recall']:.4f}" if entry["final_recall"] is not None else "-",
                f"{entry['final_speed']:.1f}" if entry["final_speed"] is not None else "-",
            ]
        )
    print(
        format_table(
            ["tenant", "recall floor", "objective", "weight", "evals", "attained",
             "incumbent index", "final recall", "final speed"],
            rows,
            title=(
                f"SLO-constrained multi-tenant tuning on {args.dataset} "
                f"(budget {summary['budget']['used']}/{summary['budget']['total']}, "
                f"tuner {args.tuner})"
            ),
        )
    )
    if not attained_all:
        missed = sorted(name for name, ok in report.attained.items() if not ok)
        print(
            f"warning: {', '.join(missed)} did not attain their SLO within the "
            "budget; raise --budget or --steps, or relax the floor",
            file=sys.stderr,
        )
    return 0 if attained_all else 1


def _command_recover(args: argparse.Namespace) -> int:
    from repro.vdms.collection import Collection
    from repro.vdms.durability import DurabilityManager, OsFileSystem

    if not os.path.isdir(args.data_dir):
        problem = "is a file, not a directory" if os.path.isfile(args.data_dir) else "does not exist"
        _fail(
            f"--data-dir {args.data_dir!r} {problem}; "
            "pass the directory a durable `serve --data-dir` wrote"
        )
    fs = OsFileSystem()
    if args.collection is not None:
        names = [args.collection]
        if not DurabilityManager.has_state(fs, fs.join(args.data_dir, args.collection)):
            _fail(
                f"collection {args.collection!r} has no durable state under "
                f"{args.data_dir!r} (no MANIFEST-* or wal-* files); "
                "run `recover` without --collection to list what is there"
            )
    else:
        names = sorted(
            name
            for name in fs.listdir(args.data_dir)
            if DurabilityManager.has_state(fs, fs.join(args.data_dir, name))
        )
        if not names:
            _fail(
                f"--data-dir {args.data_dir!r} holds no durable collection state "
                "(no subdirectory with MANIFEST-* or wal-* files); pass the "
                "directory given to `serve --data-dir`"
            )
    reports = []
    for name in names:
        # A failure leaves nothing open: each earlier collection was closed after its report.
        directory = fs.join(args.data_dir, name)
        try:
            collection = Collection.recover(directory, auto_maintenance=False)
        except DurabilityError as error:
            _fail(f"--data-dir {args.data_dir!r}: cannot recover {directory!r}: {error}")
        report = collection.recovery_report
        reports.append(
            {
                "collection": collection.name,
                "rows": int(collection.num_rows),
                "dimension": int(collection.dimension),
                "index_type": collection.index_type,
                "generation": (
                    None if report.generation is None else int(report.generation)
                ),
                "segments_loaded": int(report.segments_loaded),
                "rows_recovered": int(report.rows_recovered),
                "wal_records_replayed": int(report.wal_records_replayed),
                "wal_bytes_truncated": int(report.wal_bytes_truncated),
            }
        )
        collection.close()
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
        return 0
    rows = [
        [
            entry["collection"],
            entry["rows"],
            entry["index_type"] or "-",
            entry["generation"] if entry["generation"] is not None else "-",
            entry["segments_loaded"],
            entry["wal_records_replayed"],
            entry["wal_bytes_truncated"],
        ]
        for entry in reports
    ]
    print(
        format_table(
            ["collection", "rows", "index", "generation", "segments",
             "WAL replayed", "WAL truncated (bytes)"],
            rows,
            title=f"recovered from {args.data_dir}",
        )
    )
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.serving import LoadGenerator

    generator = _built(
        LoadGenerator,
        args.url,
        args.collection,
        qps=args.qps,
        duration_seconds=args.duration,
        top_k=args.top_k,
        deadline_ms=args.deadline_ms,
        use_cache=not args.no_cache,
        seed=args.seed,
    )
    try:
        report = generator.run()
    except ValueError as error:
        _fail(f"--url {args.url!r}: {error}")
    except (ConnectionError, OSError, RuntimeError) as error:
        _fail(
            f"cannot drive {args.url}: {error}; "
            "is `python -m repro.cli serve` running there?"
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    rows = [
        ["offered QPS", f"{report.offered_qps:.1f}"],
        ["achieved QPS", f"{report.achieved_qps:.1f}"],
        ["sent", report.sent],
        ["served (200)", report.served],
        ["shed (429)", report.shed],
        ["expired (504)", report.expired],
        ["rejected (503)", report.rejected],
        ["errors", report.errors],
        ["shed rate", f"{report.shed_rate:.3f}"],
        ["latency p50 (ms)", f"{report.latency_p50_ms:.2f}"],
        ["latency p99 (ms)", f"{report.latency_p99_ms:.2f}"],
        ["latency p99.9 (ms)", f"{report.latency_p999_ms:.2f}"],
        ["dispatch lag p99 (ms)", f"{report.dispatch_lag_p99_ms:.2f}"],
        ["queue depth mean/max", f"{report.queue_depth_mean:.1f} / {report.queue_depth_max}"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"open-loop load: {args.collection} @ {args.url}",
        )
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "evaluate": _command_evaluate,
        "tune": _command_tune,
        "compare": _command_compare,
        "tune-online": _command_tune_online,
        "scenario-matrix": _command_scenario_matrix,
        "serve": _command_serve,
        "tune-tenants": _command_tune_tenants,
        "recover": _command_recover,
        "loadgen": _command_loadgen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    raise SystemExit(main())
