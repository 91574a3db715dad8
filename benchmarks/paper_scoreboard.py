"""The paper scoreboard: each claim of the VDTuner paper, with a verdict.

Runs the five paper tuners (``run_tuner_comparison``) on the three Table III
stand-ins at seeds 0, 1 and the scale's seed: nine cells.  Figures 6 and 7
and Tables IV, V and VI are derived from the cells at the scale's seed;
Figure 8's two ablations, Figure 12, Figure 13 and Table V's ArXiv run are
made once at that seed.  It prints one row per claim of the paper (the
reproduced ratio, the paper's and a verdict), VDTuner's hypervolume over each
baseline's per cell, the regenerated tables, and one verdict line per
reproduction condition.  Everything printed is on the simulated tuning
clock, so a run repeats byte for byte:

    PYTHONPATH=src python benchmarks/paper_scoreboard.py \\
        | diff - benchmarks/paper_scoreboard.expected

Wall-clock values (Table VI's recommendation seconds, Figure 7's seconds to
match) go to stderr and ``BENCH_paper.json`` only.  ``VDTUNER_FULL=1`` runs
the paper-scale budgets, whose output is not the pinned one.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
from _record import record_bench

from repro.analysis.improvement import improvement_over_default
from repro.analysis.reporting import format_table
from repro.bo.pareto import hypervolume_2d
from repro.experiments import (
    current_scale,
    figure6_speed_vs_sacrifice,
    figure7_optimization_curves,
    figure8_ablation,
    figure12_user_preference,
    figure13_cost_effectiveness,
    run_tuner_comparison,
    table5_best_configurations,
    table6_overhead,
)
from repro.experiments.comparison import PAPER_DATASETS
from repro.experiments.runner import PAPER_TUNERS

BASELINES = PAPER_TUNERS[1:]
#: The recall floor of the time-to-target claim (Figure 7's loosest).
TARGET_FLOOR = 0.9
STARTED = time.perf_counter()


def reached(values) -> tuple[float, int, int]:
    """Geometric mean over the reached values, how many were reached, and of how many.

    A value of 0 marks a target VDTuner never reached; it counts against the
    reached fraction, not the mean.
    """
    values = list(values)
    hits = [value for value in values if value > 0]
    mean = math.exp(sum(map(math.log, hits)) / len(hits)) if hits else 0.0
    return mean, len(hits), len(values)


def show(title, headers, rows) -> None:
    print(format_table(headers, rows, title=title))
    print()


def progress(message: str) -> None:
    print(f"[{time.perf_counter() - STARTED:6.1f} s] {message}", file=sys.stderr, flush=True)


def hypervolume(run) -> float:
    return hypervolume_2d(run.report.history.pareto_front(), np.zeros(2))


def trade_off_ratios(runs, baseline):
    """VDTuner's (speed, recall) over a baseline's at the baseline's best trade-off.

    The trade-off is the baseline's balanced point (Eq. 3).  VDTuner's speed
    is its best at that recall or above, its recall its best at that speed
    or above; 0 where it has no such configuration.
    """
    speed, recall = runs[baseline].report.history.balanced_point()
    history = runs["vdtuner"].report.history
    best = history.best(recall_floor=recall)
    faster = [o.recall for o in history.successful() if o.speed >= speed]
    return (0.0 if best is None else best.speed / speed), max(faster, default=0.0) / recall


def samples_ratio(result) -> float:
    """The best baseline's samples to its final QPS over VDTuner's to match it (0: never)."""
    needed = result.iterations_to_match_best_baseline[TARGET_FLOOR]
    best = max(BASELINES, key=lambda name: result.curves[TARGET_FLOOR][name][-1])
    return 0.0 if needed["vdtuner"] is None else needed[best] / needed["vdtuner"]


def claim(name, summary, paper=None, note=""):
    """One claim row from a ``reached`` summary; ``paper`` is the paper's ratio, if it gives one.

    It fails below a ratio of 1 or when reached in fewer than half the cells,
    falls short below the paper's ratio or when some cell is not reached, and
    holds otherwise.
    """
    ratio, hits, cells = summary
    if ratio <= 1 or 2 * hits < cells:
        verdict = "fails"
    elif hits < cells or (paper and ratio < paper):
        verdict = "short"
    else:
        verdict = "holds"
    paper = f"{paper:g}" if paper else "> 1"
    return [name, f"{ratio:.3f}{note}", f"{hits}/{cells}", paper, verdict]


def main() -> None:
    scale = current_scale()
    seeds = (0, 1, scale.seed)
    cells, at_seed = {}, {}
    for dataset in PAPER_DATASETS:
        for seed in seeds:
            runs = run_tuner_comparison(dataset, scale=scale, seed=seed)
            vdtuner = runs["vdtuner"]
            gain = improvement_over_default(vdtuner.report.history, vdtuner.default_result)
            figure7 = figure7_optimization_curves(dataset, runs)
            cells[f"{dataset} s{seed}"] = {
                "hypervolume": {b: hypervolume(vdtuner) / hypervolume(runs[b]) for b in BASELINES},
                "trade_off": {b: trade_off_ratios(runs, b) for b in BASELINES},
                "default": (1 + gain.speed_improvement, 1 + gain.recall_improvement),
                "samples": samples_ratio(figure7),
            }
            if seed == scale.seed:
                at_seed[dataset] = {
                    "figure6": figure6_speed_vs_sacrifice(dataset, runs),
                    "figure7": figure7,
                    "table4": gain,
                }
            progress(f"{dataset} seed {seed}")
    vdtuner_runs = {name: derived["figure6"].runs["vdtuner"] for name, derived in at_seed.items()}
    table5 = table5_best_configurations(scale=scale, runs=vdtuner_runs)
    table6 = table6_overhead(at_seed["glove-small"]["figure6"].runs)
    progress("tables V and VI")
    ablations = figure8_ablation(scale=scale)
    progress("figure 8")
    preference = figure12_user_preference(scale=scale)
    progress("figure 12")
    cost = figure13_cost_effectiveness(scale=scale)
    comparison = cost.comparison
    progress("figure 13")

    hv = {b: [cell["hypervolume"][b] for cell in cells.values()] for b in BASELINES}
    hv_summary = {b: reached(hv[b]) for b in BASELINES}
    hv_mean = {b: summary[0] for b, summary in hv_summary.items()}
    trade = {
        b: [reached(cell["trade_off"][b][axis] for cell in cells.values()) for axis in (0, 1)]
        for b in BASELINES
    }
    speed_best = max(BASELINES, key=lambda b: trade[b][0][0])
    recall_best = max(BASELINES, key=lambda b: trade[b][1][0])
    hv_worst = min(BASELINES, key=hv_mean.get)
    default_gain = [reached(cell["default"][axis] for cell in cells.values()) for axis in (0, 1)]
    samples = preference.samples_to_match_plain
    claims = [
        claim("speed at a baseline's best trade-off", trade[speed_best][0], 3.57,
              f" ({speed_best})"),
        claim("recall at a baseline's best trade-off", trade[recall_best][1], 1.74,
              f" ({recall_best})"),
        claim("hypervolume over every baseline", hv_summary[hv_worst], note=f" ({hv_worst})"),
        claim("speed over the default (Table IV)", default_gain[0], 1.1412),
        claim("recall over the default (Table IV)", default_gain[1], 2.8638),
        claim(
            f"samples to the best baseline's QPS at recall >= {TARGET_FLOOR}",
            reached(cell["samples"] for cell in cells.values()),
        ),
        claim(
            "recall-constrained acquisition: samples to the plain best "
            f"(Figure 12, seed {scale.seed})",
            reached(0.0 if mine is None else plain / mine
                    for mine, plain in zip(samples["constraint"], samples["plain"])),
        ),
        claim(
            f"queries per dollar: QP$ objective over QPS objective (Figure 13, seed {scale.seed})",
            reached([comparison.relative_cost_effectiveness]),
        ),
    ]
    print(
        f"VDTuner paper scoreboard: {scale.name} scale, {scale.tuning_iterations} tuning "
        f"iterations, seeds {', '.join(map(str, seeds))}\n"
    )
    show(
        f"Paper claims: VDTuner's ratio over the compared method, geometric mean over the cells "
        f"(of {len(cells)}) where VDTuner reaches the compared target (an 'up to' claim takes "
        "the baseline with the largest mean)",
        ["claim", "reproduced", "cells reached", "paper", "verdict"],
        claims,
    )
    show(
        "Hypervolume of VDTuner's history over each baseline's, reference (0, 0)",
        ["cell", *BASELINES],
        [[name] + [cell["hypervolume"][b] for b in BASELINES] for name, cell in cells.items()]
        + [["geometric mean"] + [hv_mean[b] for b in BASELINES]]
        + [["minimum"] + [min(hv[b]) for b in BASELINES]],
    )
    show(
        "Per cell: VDTuner's speed / recall over each baseline's best trade-off, its gain over "
        f"the default, and the samples ratio at recall >= {TARGET_FLOOR} (0: not reached)",
        ["cell", *(f"{b} speed / recall" for b in BASELINES), "default speed / recall", "samples"],
        [
            [name]
            + ["{:.3f} / {:.3f}".format(*cell["trade_off"][b]) for b in BASELINES]
            + ["{:.3f} / {:.3f}".format(*cell["default"]), cell["samples"]]
            for name, cell in cells.items()
        ],
    )

    sacrifices = at_seed["glove-small"]["figure6"].sacrifices
    for dataset, derived in at_seed.items():
        figure6 = derived["figure6"]
        show(
            f"Figure 6 ({dataset}, seed {scale.seed}): best QPS per recall sacrifice",
            ["tuner"] + [f"sacrifice {s}" for s in sacrifices] + ["tradeoff std"],
            [
                [name, *(round(curve[s], 1) for s in sacrifices)]
                + [round(figure6.tradeoff_abilities[name], 1)]
                for name, curve in figure6.curves.items()
            ],
        )
    figure7 = at_seed["glove-small"]["figure7"]
    matched = figure7.iterations_to_match_best_baseline
    show(
        f"Figure 7 (glove-small, seed {scale.seed}): samples each tuner needs to reach the best "
        "baseline's final QPS",
        ["recall floor", *PAPER_TUNERS],
        [[floor] + [matched[floor][name] or "-" for name in PAPER_TUNERS] for floor in matched],
    )
    for component, result in ablations.items():
        show(
            f"Figure 8 ({component}): best QPS per recall sacrifice",
            ["variant"] + [f"sacrifice {s}" for s in result.sacrifices],
            [
                [name, *(round(curve[s], 1) for s in result.sacrifices)]
                for name, curve in result.variant_curves.items()
            ],
        )
    show(
        "Figure 12: best feasible QPS and samples to match the plain variant",
        ["variant", "recall constraint", "best feasible QPS", "samples"],
        [
            [mode, constraint, round(preference.best_speeds[mode][i], 1), samples[mode][i] or "-"]
            for mode in ("plain", "constraint", "bootstrap")
            for i, constraint in enumerate(preference.recall_constraints)
        ],
    )
    show(
        "Figure 13a: optimizing QP$ vs optimizing QPS",
        ["metric", "value"],
        [
            ["relative cost effectiveness (QP$ / QPS)", comparison.relative_cost_effectiveness],
            ["relative search speed (QP$ / QPS)", comparison.relative_search_speed],
            [
                "mean / std memory, QP$ objective (GiB)",
                f"{comparison.mean_memory_qpd:.2f} / {comparison.std_memory_qpd:.2f}",
            ],
            [
                "mean / std memory, QPS objective (GiB)",
                f"{comparison.mean_memory_qps:.2f} / {comparison.std_memory_qps:.2f}",
            ],
        ],
    )
    show(
        "Figure 13b: Shapley contribution of parameters (best QPS configuration vs default)",
        ["parameter", "memory (GiB)", "QPS"],
        [
            [name, round(memory, 2), round(cost.speed_attribution[name], 1)]
            for name, memory in cost.memory_attribution.items()
        ],
    )
    table4 = {name: derived["table4"] for name, derived in at_seed.items()}
    show(
        f"Table IV (seed {scale.seed}): VDTuner's improvement over the default",
        ["dataset", "speed", "recall", "default QPS", "default recall"],
        [
            [name, f"{r.speed_improvement:.2%}", f"{r.recall_improvement:.2%}"]
            + [round(r.default_speed, 1), r.default_recall]
            for name, r in table4.items()
        ],
    )
    show(
        "Table V: best index type and parameters per dataset",
        ["dataset", "best index", "index parameters", "QPS", "recall"],
        [
            [name, row.index_type]
            + [", ".join(f"{k}={v}" for k, v in row.index_parameters.items()) or "-"]
            + [round(row.speed, 1), row.recall]
            for name, row in table5.items()
        ],
    )
    show(
        f"Table VI (glove-small, seed {scale.seed}): workload replay per method "
        "(recommendation seconds on stderr)",
        ["method", "workload replay (sim. s)"],
        [[name, round(row.replay_seconds, 1)] for name, row in table6.items()],
    )

    # The conditions the figure and table benchmarks asserted, thresholds unchanged.
    curves = [derived["figure6"].curves for derived in at_seed.values()]
    random_wins = sum(c["vdtuner"][s] >= c["random"][s] for c in curves for s in sacrifices)
    pairs = len(curves) * len(sacrifices)
    bests = [(c["vdtuner"][s], max(t[s] for t in c.values())) for c in curves for s in sacrifices]
    gaps = [mine / best for mine, best in bests if best > 0]
    gap = sum(gaps) / len(gaps)
    vdtuner_matched = [matched[floor]["vdtuner"] for floor in matched]
    budget = len(figure7.runs["vdtuner"].report.history)
    loosest = sacrifices[0]
    at_loosest = {
        name: curve[loosest] for r in ablations.values() for name, curve in r.variant_curves.items()
    }
    abandon, robin, polling, native = (
        at_loosest[name]
        for name in ("successive_abandon", "round_robin", "polling_surrogate", "native_surrogate")
    )
    preferred = samples["constraint"] + samples["bootstrap"]
    stage_budget = scale.preference_iterations
    improved = sum(r.speed_improvement > 0 or r.recall_improvement > 0 for r in table4.values())
    qpd_memory, memory_bound = comparison.mean_memory_qpd, 1.05 * comparison.mean_memory_qps
    conditions = [
        ("Figure 6: VDTuner >= random at half the (dataset, sacrifice) pairs",
         f"{random_wins} >= {pairs // 2}", random_wins >= pairs // 2),
        ("Figure 6: mean of VDTuner's QPS over the best tuner's >= 0.6", f"{gap:.3f}", gap >= 0.6),
        ("Figure 7: samples to match the best baseline <= the budget",
         f"{vdtuner_matched} <= {budget}", all(m is None or m <= budget for m in vdtuner_matched)),
        (f"Figure 8a: successive abandon >= 0.95 x round robin at sacrifice {loosest}",
         f"{abandon:.1f} >= {0.95 * robin:.1f}", abandon >= 0.95 * robin),
        (f"Figure 8b: polling >= 0.95 x native surrogate at sacrifice {loosest}",
         f"{polling:.1f} >= {0.95 * native:.1f}", polling >= 0.95 * native),
        ("Figure 12: constrained variants' samples to match <= the stage budget",
         f"{preferred} <= {stage_budget}", all(s is None or s <= stage_budget for s in preferred)),
        ("Figure 13: relative search speed <= 1.05",
         f"{comparison.relative_search_speed:.3f}", comparison.relative_search_speed <= 1.05),
        ("Figure 13: mean memory of QP$ <= 1.05 x of QPS",
         f"{qpd_memory:.3f} <= {memory_bound:.3f}", qpd_memory <= memory_bound),
        ("Table IV: every dataset improves speed or recall",
         f"{improved}/{len(table4)}", improved == len(table4)),
        ("Table V: a best configuration for each of 3 datasets",
         f"{len(table5)} == 3", len(table5) == 3),
        ("Table VI: recommendation share < 0.25 for every method",
         "shares on stderr", all(r.recommendation_share < 0.25 for r in table6.values())),
    ]
    show(
        f"Reproduction conditions (seed {scale.seed})",
        ["condition", "inputs", "verdict"],
        [[name, inputs, "holds" if ok else "fails"] for name, inputs, ok in conditions],
    )

    recommendation = {name: row.recommendation_seconds for name, row in table6.items()}
    seconds_to_match = {
        str(floor): figure7.time_to_match_best_baseline[floor] for floor in figure7.recall_floors
    }
    progress(f"table VI recommendation seconds {recommendation}")
    progress(f"figure 7 seconds to match {seconds_to_match}")
    record_bench(
        "paper",
        {
            "scale": scale.name,
            "seeds": list(seeds),
            "claims": {name: [*rest] for name, *rest in claims},
            "hypervolume_geomean": hv_mean,
            "hypervolume_min": {b: min(hv[b]) for b in BASELINES},
            "conditions": {name: bool(ok) for name, _, ok in conditions},
            "table6_recommendation_seconds": recommendation,
            "figure7_seconds_to_match": seconds_to_match,
            "wall_seconds": round(time.perf_counter() - STARTED, 1),
        },
    )


if __name__ == "__main__":
    main()
