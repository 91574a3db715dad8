"""Single-objective acquisition functions.

These operate on Gaussian posterior summaries (mean and standard deviation)
under the *maximization* convention.  They are used by the OtterTune-style
baseline (EI over a weighted-sum objective) and by VDTuner's constraint model
(EI times the probability of satisfying the recall constraint, Eq. 7).
"""

from __future__ import annotations

import numpy as np
from scipy import stats

__all__ = ["expected_improvement", "probability_of_feasibility"]


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best_observed: float,
) -> np.ndarray:
    """Expected improvement over ``best_observed`` (maximization).

    Parameters
    ----------
    mean, std:
        Posterior mean and standard deviation at the candidate points.
    best_observed:
        Incumbent objective value.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    std = np.maximum(std, 1e-12)
    improvement = mean - best_observed
    z = improvement / std
    value = improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)
    return np.maximum(value, 0.0)


def probability_of_feasibility(
    mean: np.ndarray,
    std: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Probability that a Gaussian objective exceeds ``threshold``.

    Used by the constraint model: the probability that the recall rate of a
    candidate configuration exceeds the user-defined limit.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    return stats.norm.cdf((mean - threshold) / std)
