"""Bayesian-optimization substrate.

A from-scratch implementation of the machinery VDTuner builds on (the paper
uses BoTorch, which is unavailable offline): Gaussian-process regression with
a Matern 5/2 kernel, Latin-hypercube sampling, Pareto-front and hypervolume
utilities, and the acquisition functions used by the tuners — expected
improvement (EI), constrained EI and Monte-Carlo expected hypervolume
improvement (EHVI / qEHVI).
"""

from repro.bo.kernels import Matern52Kernel
from repro.bo.gp import GaussianProcessRegressor
from repro.bo.sampling import latin_hypercube, uniform_samples
from repro.bo.pareto import (
    batch_hypervolume_2d,
    hypervolume_2d,
    is_non_dominated,
    joint_hypervolume_improvement_2d,
    pareto_front,
    pareto_ranks,
)
from repro.bo.acquisition import expected_improvement, probability_of_feasibility
from repro.bo.ehvi import greedy_qehvi_scores, monte_carlo_ehvi, monte_carlo_qehvi

__all__ = [
    "GaussianProcessRegressor",
    "Matern52Kernel",
    "batch_hypervolume_2d",
    "expected_improvement",
    "greedy_qehvi_scores",
    "hypervolume_2d",
    "is_non_dominated",
    "joint_hypervolume_improvement_2d",
    "latin_hypercube",
    "monte_carlo_ehvi",
    "monte_carlo_qehvi",
    "pareto_front",
    "pareto_ranks",
    "probability_of_feasibility",
    "uniform_samples",
]
