"""Ablation experiments (Figures 8-11 and the holistic-vs-individual study)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tradeoff import DEFAULT_SACRIFICES, speed_vs_sacrifice_curve
from repro.bo.pareto import pareto_ranks
from repro.config import build_milvus_space
from repro.config.milvus_space import INDEX_TYPES
from repro.core.objectives import ObjectiveSpec
from repro.core.tuner import TuningReport, VDTuner
from repro.experiments.settings import ExperimentScale, current_scale
from repro.workloads.environment import VDMSTuningEnvironment

__all__ = [
    "figure8_ablation",
    "figure9_score_dynamics",
    "figure10_sampling_quality",
    "figure11_parameter_convergence",
    "holistic_vs_individual",
    "AblationResult",
    "SamplingQualityResult",
]


def _run_variant(
    dataset_name: str,
    scale: ExperimentScale,
    *,
    use_successive_abandon: bool = True,
    use_polling_surrogate: bool = True,
    iterations: int | None = None,
    seed: int | None = None,
) -> TuningReport:
    settings = scale.vdtuner_settings(
        num_iterations=int(iterations or scale.ablation_iterations),
        use_successive_abandon=use_successive_abandon,
        use_polling_surrogate=use_polling_surrogate,
        seed=scale.seed if seed is None else seed,
    )
    environment = VDMSTuningEnvironment(dataset_name, seed=settings.seed)
    tuner = VDTuner(environment, settings=settings)
    return tuner.run()


@dataclass
class AblationResult:
    """Speed-vs-sacrifice curves of a component ablation (Figure 8a or 8b)."""

    dataset_name: str
    sacrifices: tuple[float, ...]
    variant_curves: dict[str, dict[float, float]]
    reports: dict[str, TuningReport]


def figure8_ablation(
    dataset_name: str = "glove-small",
    *,
    sacrifices: tuple[float, ...] = DEFAULT_SACRIFICES,
    scale: ExperimentScale | None = None,
) -> dict[str, AblationResult]:
    """Ablate each of VDTuner's two components against one full VDTuner run.

    ``"budget_allocation"`` compares the successive-abandon strategy against
    plain round robin (Figure 8a); ``"surrogate"`` compares the polling
    surrogate against the native GP surrogate (Figure 8b).  The full run is
    both ``successive_abandon`` and ``polling_surrogate``.
    """
    scale = scale or current_scale()
    full = _run_variant(dataset_name, scale)
    variants = {
        "budget_allocation": {
            "successive_abandon": full,
            "round_robin": _run_variant(dataset_name, scale, use_successive_abandon=False),
        },
        "surrogate": {
            "polling_surrogate": full,
            "native_surrogate": _run_variant(dataset_name, scale, use_polling_surrogate=False),
        },
    }
    return {
        component: AblationResult(
            dataset_name=dataset_name,
            sacrifices=sacrifices,
            variant_curves={
                name: speed_vs_sacrifice_curve(r.history, sacrifices) for name, r in reports.items()
            },
            reports=reports,
        )
        for component, reports in variants.items()
    }


def figure9_score_dynamics(
    dataset_name: str = "glove-small",
    *,
    scale: ExperimentScale | None = None,
    report: TuningReport | None = None,
) -> list[dict[str, float]]:
    """Per-iteration index-type score *weights* (Figure 9).

    Each entry maps index type to its share of the total score at that
    iteration (0 for abandoned index types), which is exactly what the
    paper's stacked-weight plot shows.
    """
    scale = scale or current_scale()
    if report is None:
        report = _run_variant(dataset_name, scale)
    weights: list[dict[str, float]] = []
    for snapshot in report.score_trace:
        shifted = {name: max(0.0, value) for name, value in snapshot.items()}
        total = sum(shifted.values())
        if total <= 0:
            uniform = 1.0 / max(1, len(shifted))
            weights.append({name: uniform for name in shifted})
        else:
            weights.append({name: value / total for name, value in shifted.items()})
    return weights


@dataclass
class SamplingQualityResult:
    """Sampled configurations of the surrogate ablation (Figure 10)."""

    dataset_name: str
    samples: dict[str, list[dict]]


def figure10_sampling_quality(
    dataset_name: str = "glove-small",
    *,
    scale: ExperimentScale | None = None,
    reports: dict[str, TuningReport] | None = None,
) -> SamplingQualityResult:
    """Every sampled configuration with its Pareto rank, per surrogate variant."""
    scale = scale or current_scale()
    if reports is None:
        reports = {
            "polling_surrogate": _run_variant(dataset_name, scale, use_polling_surrogate=True),
            "native_surrogate": _run_variant(dataset_name, scale, use_polling_surrogate=False),
        }
    samples: dict[str, list[dict]] = {}
    for name, report in reports.items():
        observations = report.history.successful()
        if not observations:
            samples[name] = []
            continue
        values = np.array([[o.speed, o.recall] for o in observations])
        ranks = pareto_ranks(values)
        samples[name] = [
            {
                "index_type": o.index_type,
                "qps": float(o.speed),
                "recall": float(o.recall),
                "pareto_rank": int(rank),
            }
            for o, rank in zip(observations, ranks)
        ]
    return SamplingQualityResult(dataset_name=dataset_name, samples=samples)


def figure11_parameter_convergence(
    dataset_name: str = "geo-radius-small",
    *,
    parameters: tuple[str, ...] = ("nlist", "nprobe", "segment_seal_proportion", "graceful_time"),
    scale: ExperimentScale | None = None,
    report: TuningReport | None = None,
) -> dict[str, np.ndarray]:
    """Normalized per-iteration values of selected parameters (Figure 11)."""
    scale = scale or current_scale()
    if report is None:
        report = _run_variant(dataset_name, scale)
    space = build_milvus_space()
    traces: dict[str, np.ndarray] = {}
    for name in parameters:
        parameter = space[name]
        values = [parameter.to_unit(o.configuration[name]) for o in report.history]
        traces[name] = np.array(values, dtype=float)
    return traces


def holistic_vs_individual(
    dataset_name: str = "glove-small",
    *,
    scale: ExperimentScale | None = None,
    iterations: int | None = None,
) -> dict[str, dict]:
    """Compare the holistic model against tuning each index type individually.

    Section V-D of the paper: the individual approach spends the same total
    budget but splits it evenly across per-index-type tuners and then keeps
    the best index type.  The comparison reports the selected index type and
    best balanced configuration of both approaches.
    """
    scale = scale or current_scale()
    total_budget = int(iterations or scale.ablation_iterations)

    holistic_report = _run_variant(dataset_name, scale, iterations=total_budget)
    holistic_best = holistic_report.best_observation(recall_floor=0.85) or holistic_report.best_observation()

    per_index_budget = max(3, total_budget // len(INDEX_TYPES))
    individual_best = None
    individual_reports: dict[str, TuningReport] = {}
    for index_type in INDEX_TYPES:
        space = build_milvus_space(index_types=(index_type,))
        environment = VDMSTuningEnvironment(dataset_name, space=space, seed=scale.seed)
        settings = scale.vdtuner_settings(num_iterations=per_index_budget, seed=scale.seed)
        tuner = VDTuner(environment, settings=settings, objective=ObjectiveSpec(), space=space)
        report = tuner.run(per_index_budget)
        individual_reports[index_type] = report
        candidate = report.best_observation(recall_floor=0.85) or report.best_observation()
        if candidate is not None and (individual_best is None or candidate.speed > individual_best.speed):
            individual_best = candidate

    return {
        "holistic": {
            "best_index_type": None if holistic_best is None else holistic_best.index_type,
            "best_speed": None if holistic_best is None else holistic_best.speed,
            "best_recall": None if holistic_best is None else holistic_best.recall,
            "report": holistic_report,
        },
        "individual": {
            "best_index_type": None if individual_best is None else individual_best.index_type,
            "best_speed": None if individual_best is None else individual_best.speed,
            "best_recall": None if individual_best is None else individual_best.recall,
            "reports": individual_reports,
        },
    }
