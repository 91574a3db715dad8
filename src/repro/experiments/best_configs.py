"""Best configuration per dataset (Table V)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.milvus_space import INDEX_PARAMETERS
from repro.experiments.runner import TunerRun, run_tuner
from repro.experiments.settings import ExperimentScale, current_scale

__all__ = ["table5_best_configurations", "BestConfigurationRow"]

#: The datasets reported in Table V.
TABLE5_DATASETS: tuple[str, ...] = ("glove-small", "arxiv-titles-small", "keyword-match-small")


@dataclass
class BestConfigurationRow:
    """One column of Table V: the best configuration found for a dataset.

    Attributes
    ----------
    dataset_name:
        Registry name of the dataset.
    index_type:
        Index type of the best configuration.
    index_parameters:
        Only the index parameters relevant to the chosen index type.
    speed, recall:
        Performance of the best configuration.
    """

    dataset_name: str
    index_type: str
    index_parameters: dict[str, int]
    speed: float
    recall: float


def table5_best_configurations(
    dataset_names: tuple[str, ...] = TABLE5_DATASETS,
    *,
    recall_floor: float = 0.85,
    scale: ExperimentScale | None = None,
    runs: dict[str, TunerRun] | None = None,
) -> dict[str, BestConfigurationRow]:
    """Report VDTuner's recommended index + parameters per dataset.

    The best configuration is the fastest at ``recall_floor`` or above; a
    dataset with no such configuration gets no row.  ``runs`` maps dataset
    names to VDTuner runs already made; every other dataset gets a run of its
    own.
    """
    scale = scale or current_scale()
    runs = runs or {}
    rows: dict[str, BestConfigurationRow] = {}
    for dataset_name in dataset_names:
        run = runs.get(dataset_name) or run_tuner("vdtuner", dataset_name, scale=scale)
        best = run.report.best_observation(recall_floor=recall_floor)
        if best is None:
            continue
        relevant = INDEX_PARAMETERS.get(best.index_type, ())
        rows[dataset_name] = BestConfigurationRow(
            dataset_name=dataset_name,
            index_type=best.index_type,
            index_parameters={name: int(best.configuration[name]) for name in relevant},
            speed=float(best.speed),
            recall=float(best.recall),
        )
    return rows
