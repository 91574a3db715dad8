"""Smoke test of the repo benchmark (collected by the tier-1 command).

Every workload runs once at the ``--smoke`` scale with tracing on, and must
pass its correctness gates and report every metric ``BENCHMARK.json`` names;
the trace installer must leave every patched attribute as it found it.  The
numbers themselves mean nothing at this scale.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from bench.compare import verdict
from bench.hostspeed import REFERENCE_SECONDS, HostSpeed
from bench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS
from bench.trace import TARGETS, Tracer
from bench.workloads import SMOKE, contract_metrics, run_workload

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_the_catalogue():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"] and BENCHMARK["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == list(WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"] + BENCHMARK["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_passes_its_gates_and_reports_every_metric(workload):
    result = run_workload(workload, seed=3, seconds=0.5, trace=True, scale=SMOKE)
    assert result["gates"] and all(result["gates"].values()), result["gates"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["trace_missing"] == []
    for view, names in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        reported = contract_metrics({**result, "trace": view})
        assert list(reported) == [metric["name"] for metric in names]
        for metric in names:
            value = reported[metric["name"]]["value"]  # None only when a trace target is gone
            assert value is not None and math.isfinite(value) and value >= 0.0, metric["name"]
            assert reported[metric["name"]]["unit"] == metric["unit"]
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0.0, metric["name"]
    if workload != "tune_loop":  # there, replay pool threads overlap the main thread's wait
        assert 0.95 <= result["metrics"]["bench.span_coverage"]["value"] <= 1.05
    # run_workload uninstalled its tracer: no target is left wrapped.
    for _, module, path in TARGETS:
        target = __import__(module, fromlist=["_"])
        for part in path.split("."):
            target = getattr(target, part)
        assert not hasattr(target, "__wrapped__"), f"{module}.{path} is still patched"


def test_tracer_restores_every_patched_attribute():
    tracer = Tracer().install()
    patches = list(tracer.patches)
    assert len(patches) >= len(TARGETS) and tracer.missing == []
    for owner, attribute, _, original in patches:
        assert vars(owner)[attribute] is not original
    tracer.uninstall()
    for owner, attribute, had_own, original in patches:
        if had_own:
            assert vars(owner)[attribute] is original
        else:
            assert attribute not in vars(owner)


def test_host_speed_rescales_processor_time_only():
    host = HostSpeed()
    slow = 2.0 * REFERENCE_SECONDS  # the host runs at half the reference speed throughout
    # (time, process CPU seconds, probe reading): a CPU-bound second, then a second spent waiting
    host.marks = [(0.0, 0.0, slow), (1.0, 1.0, slow), (2.0, 1.0, slow)]
    assert host.speed() == pytest.approx(0.5)
    assert host.factors([0.5, 1.5]).tolist() == pytest.approx([0.5, 1.0])
    assert host.factors([0.5], callers=2).tolist() == pytest.approx([0.75])
    assert host.factor() == pytest.approx(0.75)  # half the block was processor time


def test_compare_verdicts():
    def entry(runs, better="lower", bound=0.10):
        runs = sorted(runs)
        return {"better": better, "bound": bound, "absolute": None, "median": runs[1],
                "q1": runs[0], "q3": runs[2], "runs": runs}

    assert verdict(entry([10.0, 10.1, 10.2]), entry([10.1, 10.2, 10.3]))[0] == "same"
    assert verdict(entry([10.0, 10.1, 10.2]), entry([12.0, 12.1, 12.2]))[0] == "worse"
    assert verdict(entry([10.0, 10.1, 10.2], "higher"), entry([12.0, 12.1, 12.2], "higher"))[0] == "better"
    assert verdict(entry([8.0, 10.0, 12.0]), entry([9.0, 11.5, 13.0]))[0] == "unresolved"
    assert verdict(entry([8.0, 10.0, 12.0]), entry([13.0, 15.0, 17.0]))[0] == "worse"
