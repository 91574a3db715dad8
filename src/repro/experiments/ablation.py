"""Ablation experiments (Figures 8-11 and the holistic-vs-individual study).

Figure 8 makes its runs; Figures 9-11 and the holistic-vs-individual study
derive from runs the caller passes in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.tradeoff import DEFAULT_SACRIFICES, speed_vs_sacrifice_curve
from repro.bo.pareto import pareto_ranks
from repro.config import build_milvus_space
from repro.config.milvus_space import INDEX_TYPES
from repro.core.history import Observation
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
]


def _run_variant(
    dataset_name: str,
    scale: ExperimentScale,
    *,
    use_successive_abandon: bool = True,
    use_polling_surrogate: bool = True,
) -> TuningReport:
    settings = scale.vdtuner_settings(
        num_iterations=scale.ablation_iterations,
        use_successive_abandon=use_successive_abandon,
        use_polling_surrogate=use_polling_surrogate,
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


def figure9_score_dynamics(report: TuningReport) -> list[dict[str, float]]:
    """Per-iteration index-type score *weights* of a VDTuner run (Figure 9).

    Each entry maps index type to its share of the total score at that
    iteration (0 for abandoned index types), which is exactly what the
    paper's stacked-weight plot shows.
    """
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


def figure10_sampling_quality(reports: dict[str, TuningReport]) -> dict[str, list[dict]]:
    """Every sampled configuration with its Pareto rank, per surrogate variant (Figure 10)."""
    samples: dict[str, list[dict]] = {}
    for name, report in reports.items():
        observations = report.history.successful()
        ranks = pareto_ranks(np.array([[o.speed, o.recall] for o in observations]).reshape(-1, 2))
        samples[name] = [
            {
                "index_type": o.index_type,
                "qps": float(o.speed),
                "recall": float(o.recall),
                "pareto_rank": int(rank),
            }
            for o, rank in zip(observations, ranks)
        ]
    return samples


def figure11_parameter_convergence(
    report: TuningReport,
    *,
    parameters: tuple[str, ...] = ("nlist", "nprobe", "segment_seal_proportion", "graceful_time"),
) -> dict[str, np.ndarray]:
    """Normalized per-iteration values of selected parameters of a run (Figure 11)."""
    space = build_milvus_space()
    traces: dict[str, np.ndarray] = {}
    for name in parameters:
        parameter = space[name]
        values = [parameter.to_unit(o.configuration[name]) for o in report.history]
        traces[name] = np.array(values, dtype=float)
    return traces


def _balanced_best(report: TuningReport) -> Observation | None:
    return report.best_observation(recall_floor=0.85) or report.best_observation()


def holistic_vs_individual(budget_allocation: AblationResult) -> dict[str, Observation | None]:
    """Compare Figure 8a's full VDTuner run against tuning each index type individually.

    Section V-D of the paper: the individual approach spends the holistic
    run's budget split evenly across per-index-type tuners and then keeps the
    best index type.  The holistic run is ``budget_allocation``'s
    ``successive_abandon`` report; the per-type tuners take its dataset, its
    settings (seed included) and its objective.  Returns each approach's best
    balanced observation (the fastest at recall >= 0.85, else the fastest).
    """
    holistic = budget_allocation.reports["successive_abandon"]
    per_index_budget = max(3, len(holistic.history) // len(INDEX_TYPES))
    settings = replace(holistic.settings, num_iterations=per_index_budget)
    individual = []
    for index_type in INDEX_TYPES:
        space = build_milvus_space(index_types=(index_type,))
        environment = VDMSTuningEnvironment(
            budget_allocation.dataset_name, space=space, seed=settings.seed
        )
        tuner = VDTuner(environment, settings=settings, objective=holistic.objective, space=space)
        individual.append(_balanced_best(tuner.run(per_index_budget)))
    found = [observation for observation in individual if observation is not None]
    return {
        "holistic": _balanced_best(holistic),
        "individual": max(found, key=lambda observation: observation.speed, default=None),
    }
