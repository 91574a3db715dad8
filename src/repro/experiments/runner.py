"""Tuner runners shared by every comparison experiment."""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import make_tuner
from repro.core.objectives import ObjectiveSpec
from repro.core.tuner import TuningReport, VDTunerSettings
from repro.experiments.settings import ExperimentScale, current_scale
from repro.workloads.environment import VDMSTuningEnvironment
from repro.workloads.replay import EvaluationResult

__all__ = ["TunerRun", "run_tuner", "run_tuner_comparison", "PAPER_TUNERS"]

#: The five methods compared throughout the paper's evaluation.
PAPER_TUNERS: tuple[str, ...] = ("vdtuner", "random", "opentuner", "ottertune", "qehvi")


@dataclass
class TunerRun:
    """Outcome of running one tuner on one dataset.

    Attributes
    ----------
    tuner_name:
        Registry name of the tuner.
    dataset_name:
        Registry name of the dataset.
    report:
        The tuning report.
    default_result:
        Evaluation of the default configuration on the same environment,
        used by the improvement metrics.
    environment:
        The environment the run used (kept for clock/bookkeeping queries).
    """

    tuner_name: str
    dataset_name: str
    report: TuningReport
    default_result: EvaluationResult
    environment: VDMSTuningEnvironment


def run_tuner(
    tuner_name: str,
    dataset_name: str,
    *,
    iterations: int | None = None,
    objective: ObjectiveSpec | None = None,
    scale: ExperimentScale | None = None,
    seed: int | None = None,
    settings: VDTunerSettings | None = None,
    dataset_scale: float = 1.0,
    batch_size: int = 1,
) -> TunerRun:
    """Run one tuner on one dataset and collect the standard artefacts.

    ``batch_size`` switches the tuner to joint q-EHVI batch suggestions.  The
    evaluation budget is the same in both modes; a batch is charged its
    longest replay on the tuning clock.
    """
    scale = scale or current_scale()
    iterations = int(iterations or scale.tuning_iterations)
    seed = scale.seed if seed is None else int(seed)
    environment = VDMSTuningEnvironment(dataset_name, seed=seed, dataset_scale=dataset_scale)
    default_result = environment.evaluate(environment.default_configuration())
    environment.reset_history()

    if tuner_name.lower() == "vdtuner" and settings is None:
        settings = scale.vdtuner_settings(num_iterations=iterations, seed=seed)
    tuner = make_tuner(tuner_name, environment, objective=objective, seed=seed, settings=settings)
    report = tuner.run(iterations, batch_size=batch_size)
    return TunerRun(
        tuner_name=tuner_name.lower(),
        dataset_name=dataset_name,
        report=report,
        default_result=default_result,
        environment=environment,
    )


def run_tuner_comparison(
    dataset_name: str,
    *,
    tuners: tuple[str, ...] = PAPER_TUNERS,
    iterations: int | None = None,
    objective: ObjectiveSpec | None = None,
    scale: ExperimentScale | None = None,
    seed: int | None = None,
) -> dict[str, TunerRun]:
    """Run every tuner on the same dataset with the same budget."""
    scale = scale or current_scale()
    return {
        tuner_name: run_tuner(
            tuner_name,
            dataset_name,
            iterations=iterations,
            objective=objective,
            scale=scale,
            seed=seed,
        )
        for tuner_name in tuners
    }
