"""Figure 11: parameter-value traces over the tuning iterations (Geo-radius stand-in)."""

from __future__ import annotations

import numpy as np
from conftest import register_report

from repro.analysis.reporting import format_table
from repro.experiments.ablation import figure11_parameter_convergence
from repro.experiments.runner import run_tuner


def test_figure11_parameter_convergence(benchmark, scale):
    geo_run = run_tuner("vdtuner", "geo-radius-small", scale=scale)
    traces = benchmark.pedantic(
        lambda: figure11_parameter_convergence(
            "geo-radius-small", scale=scale, report=geo_run.report
        ),
        rounds=1,
        iterations=1,
    )
    names = list(traces)
    length = len(next(iter(traces.values())))
    rows = []
    for iteration in range(length):
        rows.append([iteration + 1] + [round(float(traces[name][iteration]), 3) for name in names])
    table = format_table(
        ["iteration"] + names,
        rows,
        title="Figure 11: normalized parameter values per iteration (geo-radius)",
    )

    # Convergence summary: late-stage fluctuation should not exceed the
    # early-stage fluctuation (exploration first, exploitation later).
    half = max(2, length // 2)
    early = np.mean([np.std(np.asarray(traces[name][:half], dtype=float)) for name in names])
    late = np.mean([np.std(np.asarray(traces[name][half:], dtype=float)) for name in names])
    register_report(
        "Figure 11 - parameter convergence",
        table + f"\n\nearly-half mean std = {early:.3f}, late-half mean std = {late:.3f}",
    )
    assert length == len(geo_run.report.history)
