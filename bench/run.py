"""Command line of the repo benchmark.

One run of one workload (what the driver calls; the result is the last line
of standard output, one JSON object)::

    python3 bench/run.py --workload serve_scan --seed 0 --seconds 15 --trace 0

The whole set — every workload, ``--runs`` untraced runs and two traced ones,
each in a fresh subprocess, interleaved A B C D A B C D so drift hits all
workloads alike — with every metric printed by name and unit, every
correctness gate run, the exact-repeat counts compared between runs, and the
result written to ``--out``::

    python3 bench/run.py [--workload NAME] [--runs 3] [--seed 0] [--seconds 15]
                         [--smoke] [--out FILE]

Exit code: 1 when a correctness gate fails (one run prints its result first,
with ``correct`` false) or, for the set, when an exact count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: BLAS pools pinned to one thread: segment GEMMs are 512 rows, and spinning
#: BLAS threads on a shared 2-core box were the largest noise source measured.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Traced runs per workload in the whole set.  Two, not one: the counts only a
#: traced run can see (``segments_compacted``, ``bo.gp.fit_calls``, ...) must
#: repeat exactly, and that takes a pair.
TRACED_RUNS = 2


def _bootstrap() -> None:
    """Pin BLAS threads (before NumPy loads) and make ``bench`` and ``repro`` importable."""
    os.environ.update(THREAD_PINS)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: the program under test is missing: {ROOT / 'src' / 'repro'} not found")
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    # As a script, sys.path[0] is bench/ itself, where trace.py would shadow
    # the standard library's trace module.
    sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]


def host_facts() -> dict[str, Any]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
    }


# -- one run ---------------------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    from bench.workloads import FULL, SMOKE, contract_metrics, run_workload

    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=SMOKE if args.smoke else FULL,
    )
    if args.result_file:
        Path(args.result_file).write_text(json.dumps(result), encoding="utf-8")
    for gate, passed in result["gates"].items():
        if not passed:
            print(f"bench: gate failed on {args.workload}: {gate}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": contract_metrics(result),
            }
        )
    )
    return 0 if result["correct"] else 1


# -- the whole set -----------------------------------------------------------------------


def _spawn(workload: str, traced: bool, args: argparse.Namespace, number: int) -> dict[str, Any]:
    """One run in a fresh subprocess: clean RSS, clean caches, pinned BLAS."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    result_file = out_dir / f"run-{os.getpid()}-{number}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0", "--result-file", str(result_file),
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        # The child inherits the thread pins _bootstrap put into os.environ.
        completed = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=900)
        # A run that failed a gate exits 1 too, but only after writing its result.
        if not result_file.is_file():
            raise RuntimeError(f"{' '.join(command)} exited with {completed.returncode}")
        return json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        result_file.unlink(missing_ok=True)


def _spread(values: list[float]) -> dict[str, Any]:
    summary: dict[str, Any] = {"median": statistics.median(values), "n": len(values), "runs": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def summarise(results: list[dict[str, Any]]) -> tuple[dict[str, Any], list[str]]:
    """Fold the runs of one workload; returns the summary and what went wrong."""
    from bench.metrics import DEMOTED, END_TO_END, PER_LAYER, WORKLOAD_END_TO_END, WORKLOADS

    untraced = [r for r in results if not r["trace"]]
    traced = [r for r in results if r["trace"]]
    problems = [
        f"gate {gate} failed (seed {r['seed']}, trace {int(r['trace'])})"
        for r in results
        for gate, passed in r["gates"].items()
        if not passed
    ]
    for group, label in ((untraced, "untraced"), (traced, "traced")):
        for other in group[1:]:
            for key in sorted(set(group[0]["exact"]) | set(other["exact"])):
                if group[0]["exact"].get(key) != other["exact"].get(key):
                    problems.append(
                        f"{key} did not repeat between two {label} runs: "
                        f"{group[0]['exact'].get(key)!r} vs {other['exact'].get(key)!r}"
                    )

    def column(runs: list[dict], name: str) -> list[float | None]:
        return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]

    first = results[0]
    summary: dict[str, Any] = {
        "why": WORKLOADS[first["workload"]],
        "operation": first["operation"],
        "load_model": first["load_model"],
        "correct": not problems,
        "gates": sorted(first["gates"]),
        "latency_samples": [r["latency_samples"] for r in untraced],
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "end_to_end": {},
        "per_layer": {},
        "exact": first["exact"],
        "trace_missing": sorted({name for r in traced for name in r["trace_missing"]}),
        "spans_files": [r["spans_file"] for r in traced],
    }
    # End-to-end numbers always come from the untraced runs.
    for metric in (*END_TO_END, *WORKLOAD_END_TO_END):
        values = column(untraced, metric.name)
        if not values:
            continue
        if (first["workload"], metric.name) in DEMOTED:
            summary["per_layer"][metric.name] = {"unit": metric.unit, **_spread(values)}
        else:
            summary["end_to_end"][metric.name] = {
                "unit": metric.unit, "better": metric.better,
                "bound": metric.bound, "absolute": metric.absolute, **_spread(values),
            }
    for metric in PER_LAYER:
        values = column(traced, metric.name) or column(untraced, metric.name)
        if metric.name.startswith("e2e.") or not values:
            continue
        if None in values:  # its trace target is gone (see trace_missing): unknown, not zero
            summary["per_layer"][metric.name] = {"unit": metric.unit, "median": None, "n": 0}
        else:
            summary["per_layer"][metric.name] = {"unit": metric.unit, **_spread(values)}
    if traced and untraced:
        summary["per_layer"]["bench.trace_overhead_share"] = {
            "unit": "ratio",
            "median": 1.0
            - statistics.median(column(traced, "ops_per_s"))
            / statistics.median(column(untraced, "ops_per_s")),
            "n": len(traced),
        }
    return summary, problems


def _print_summary(name: str, summary: dict[str, Any], problems: list[str]) -> None:
    print(f"\n== {name}: {summary['why']}")
    print(f"   operation: {summary['operation']}; {summary['load_model']}")
    for metric, entry in summary["end_to_end"].items():
        spread = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]" if "q1" in entry else ""
        print(f"   {metric:<28} {entry['median']:>14.6g} {entry['unit']:<10} n={entry['n']}{spread}")
    if summary["per_layer"]:
        print("   -- per layer (traced run; mean ms per operation unless the unit says otherwise)")
        for metric, entry in summary["per_layer"].items():
            value = "null" if entry["median"] is None else f"{entry['median']:.6g}"
            print(f"   {metric:<36} {value:>14} {entry['unit']}")
    if summary["trace_missing"]:
        print(f"   trace.missing: {', '.join(summary['trace_missing'])}")
    if "digest" in summary["exact"]:
        print(f"   trace digest {summary['exact']['digest']}")
    print(f"   gates: {', '.join(summary['gates'])} -> {'ok' if not problems else 'FAILED'}")
    for problem in problems:
        print(f"   !! {problem}")


def run_suite(args: argparse.Namespace) -> int:
    from bench.metrics import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = 3 if args.runs is None else args.runs
    plan = [(name, False) for _ in range(runs) for name in names]
    plan += [(name, True) for _ in range(TRACED_RUNS) for name in names]
    results: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for number, (name, traced) in enumerate(plan, start=1):
        print(f"[{number}/{len(plan)}] {name} trace={int(traced)}", file=sys.stderr, flush=True)
        results[name].append(_spawn(name, traced, args, number))
    document: dict[str, Any] = {
        "schema": 1,
        "claim": None,
        "command": "python3 bench/run.py " + " ".join(sys.argv[1:]),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": bool(args.smoke),
        "host": host_facts(),
        "workloads": {},
    }
    failed = False
    for name in names:
        summary, problems = summarise(results[name])
        document["workloads"][name] = summary
        _print_summary(name, summary, problems)
        failed = failed or bool(problems)
    out = Path(args.out) if args.out else HERE / "out" / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1), encoding="utf-8")
    print(f"\nwrote {out}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of one timed region, default 15 (fixed-sequence workloads size their op count from it)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="one run: install the span wrappers and report per-layer metrics")
    parser.add_argument("--runs", type=int, help="untraced runs per workload; giving it selects the whole-set mode")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, seconds not minutes; numbers mean nothing")
    parser.add_argument("--out", help="where the whole-set mode writes its JSON (default bench/out/result.json)")
    parser.add_argument("--result-file", help="one run: also write the full, unfiltered result here")
    args = parser.parse_args(argv)
    _bootstrap()
    from bench.metrics import RUN_SECONDS, WORKLOADS

    if args.seconds is None:
        args.seconds = RUN_SECONDS
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.workload is not None and args.runs is None:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
