"""VDTuner reproduction: automated performance tuning for vector data management systems.

This package reproduces the system described in *VDTuner: Automated
Performance Tuning for Vector Data Management Systems* (ICDE 2024).  It
contains:

``repro.vdms``
    A self-contained, Milvus-like vector data management system with seven
    index types (FLAT, IVF_FLAT, IVF_SQ8, IVF_PQ, HNSW, SCANN, AUTOINDEX),
    a segment/insert-buffer storage layer and a deterministic cost model.

``repro.config``
    Parameter and configuration-space machinery, including the holistic
    Milvus-like tuning space used throughout the paper (its 16 dimensions
    plus the serving-topology parameters of the sharded engine).

``repro.datasets`` and ``repro.workloads``
    Synthetic stand-ins for the paper's benchmark datasets and the workload
    replayer that turns a configuration into ``(QPS, recall, memory)``.

``repro.bo``
    A from-scratch Bayesian-optimization substrate: Gaussian-process
    regression with a Matern 5/2 kernel, Pareto/hypervolume utilities and
    acquisition functions (EI, constrained EI, Monte-Carlo EHVI).

``repro.core``
    VDTuner itself: the holistic polling surrogate, NPI normalization,
    successive-abandon budget allocation, constraint model, bootstrapping
    and cost-aware objectives.

``repro.baselines``
    Re-implementations of the baseline tuners the paper compares against.

``repro.analysis`` and ``repro.experiments``
    Metrics, attribution and the experiment harness that regenerates every
    table and figure of the paper's evaluation section.
"""

from repro.config import (
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    FloatParameter,
    IntParameter,
    build_milvus_space,
)
from repro.core import (
    CusumDriftDetector,
    ObjectiveSpec,
    OnlineTuner,
    OnlineTunerSettings,
    VDTuner,
    VDTunerSettings,
)
from repro.baselines import make_tuner
from repro.datasets import DatasetSpec, load_dataset
from repro.vdms import VectorDBServer
from repro.workloads import (
    DriftEvent,
    DynamicTuningEnvironment,
    DynamicWorkload,
    EvaluationResult,
    SearchWorkload,
    VDMSTuningEnvironment,
    make_drift_event,
)

__version__ = "1.2.0"

__all__ = [
    "CategoricalParameter",
    "Configuration",
    "ConfigurationSpace",
    "CusumDriftDetector",
    "DatasetSpec",
    "DriftEvent",
    "DynamicTuningEnvironment",
    "DynamicWorkload",
    "EvaluationResult",
    "FloatParameter",
    "IntParameter",
    "ObjectiveSpec",
    "OnlineTuner",
    "OnlineTunerSettings",
    "SearchWorkload",
    "VDMSTuningEnvironment",
    "VDTuner",
    "VDTunerSettings",
    "VectorDBServer",
    "make_drift_event",
    "make_tuner",
    "build_milvus_space",
    "load_dataset",
    "__version__",
]
