"""Experiment harness: one function per paper table/figure.

Every function returns plain data structures (dicts / dataclasses) and the
``benchmarks/`` scripts print them as the rows/series the paper reports.  The
:class:`~repro.experiments.settings.ExperimentScale` object controls how
large each experiment runs: the default "fast" scale keeps the whole suite in
CI-friendly territory, while setting the environment variable
``VDTUNER_FULL=1`` switches to paper-scale iteration counts.
"""

from repro.experiments.settings import ExperimentScale, current_scale
from repro.experiments.runner import run_tuner, run_tuner_comparison, TunerRun
from repro.experiments.motivation import (
    figure1_parameter_grid,
    figure2_index_vs_system,
    figure3_conflicting_objectives,
    figure3_optimization_curves,
)
from repro.experiments.comparison import (
    figure6_speed_vs_sacrifice,
    figure7_optimization_curves,
    table6_overhead,
)
from repro.experiments.ablation import (
    figure8_ablation,
    figure9_score_dynamics,
    figure10_sampling_quality,
    figure11_parameter_convergence,
    holistic_vs_individual,
)
from repro.experiments.preference import figure12_user_preference
from repro.experiments.cost import figure13_cost_effectiveness
from repro.experiments.best_configs import table5_best_configurations
from repro.experiments.scalability import scalability_larger_dataset
from repro.experiments.scenario_matrix import (
    DRIFT_SCENARIOS,
    run_scenario,
    run_scenario_matrix,
    save_matrix,
)

__all__ = [
    "DRIFT_SCENARIOS",
    "ExperimentScale",
    "TunerRun",
    "current_scale",
    "run_scenario",
    "run_scenario_matrix",
    "save_matrix",
    "figure10_sampling_quality",
    "figure11_parameter_convergence",
    "figure12_user_preference",
    "figure13_cost_effectiveness",
    "figure1_parameter_grid",
    "figure2_index_vs_system",
    "figure3_conflicting_objectives",
    "figure3_optimization_curves",
    "figure6_speed_vs_sacrifice",
    "figure7_optimization_curves",
    "figure8_ablation",
    "figure9_score_dynamics",
    "holistic_vs_individual",
    "run_tuner",
    "run_tuner_comparison",
    "scalability_larger_dataset",
    "table5_best_configurations",
    "table6_overhead",
]
