"""Configuration recommendation for a polled index type.

Section IV-C of the paper: when index type ``t`` is polled, the acquisition
function fixes the index type to ``t``, fixes the parameters not belonging to
``t`` at their defaults, and searches over the parameters of ``t`` (its index
parameters plus the shared system parameters) for the configuration with the
highest utility:

* without a user preference the utility is EHVI (Eq. 4) with reference point
  ``0.5 x`` the index type's balanced base performance;
* with a recall-rate preference the utility is the constrained EI of Eq. 7.

The acquisition is maximized over a finite candidate pool: Latin-hypercube
samples of the relevant sub-space plus Gaussian perturbations of the index
type's best observed configurations — the usual derivative-free approach for
mixed discrete/continuous spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bo.acquisition import expected_improvement, probability_of_feasibility
from repro.bo.ehvi import monte_carlo_ehvi
from repro.bo.sampling import latin_hypercube
from repro.config import Configuration, ConfigurationSpace
from repro.config.milvus_space import parameters_for_index
from repro.core.history import ObservationHistory
from repro.core.objectives import ObjectiveSpec
from repro.core.surrogate import PollingSurrogate

__all__ = ["ConfigurationRecommender"]


@dataclass
class ConfigurationRecommender:
    """Recommends the next configuration for a polled index type.

    Parameters
    ----------
    space:
        The holistic configuration space.
    candidate_pool_size:
        Number of candidate configurations scored per recommendation.
    ehvi_samples:
        Monte-Carlo samples used by the EHVI estimator.
    reference_scale:
        Scale of the EHVI reference point relative to the balanced base
        performance (the paper uses 0.5).
    perturbation_scale:
        Standard deviation (in unit-hypercube coordinates) of the local
        perturbations applied around the best observed configurations.
    """

    space: ConfigurationSpace
    candidate_pool_size: int = 192
    ehvi_samples: int = 64
    reference_scale: float = 0.5
    perturbation_scale: float = 0.08

    # -- candidate generation ------------------------------------------------------

    def _free_parameter_names(self, index_type: str) -> list[str]:
        names = [name for name in parameters_for_index(index_type) if name in self.space]
        return names

    def generate_candidates(
        self,
        index_type: str,
        history: ObservationHistory,
        rng: np.random.Generator,
    ) -> list[Configuration]:
        """Build the candidate pool for one polled index type."""
        free_names = self._free_parameter_names(index_type)
        # Everything outside the polled sub-space stays at its default, so the
        # defaults are validated and encoded once and a candidate decodes,
        # validates and encodes its free parameters only.
        base = self.space.configuration({"index_type": index_type}, complete=False)

        pool_size = max(8, int(self.candidate_pool_size))
        num_random = pool_size // 2
        num_local = pool_size - num_random

        # Space-filling candidates over the free sub-space.
        if free_names:
            lhs = latin_hypercube(num_random, len(free_names), rng)
            candidates = [base.replace_units(free_names, row) for row in lhs]
        else:
            candidates = [base]

        # Local perturbations around the index type's best observations.
        elites = history.non_dominated(index_type)
        if elites and free_names:
            free_positions = [self.space.index_of(name) for name in free_names]
            elite_units = self.space.encode_many([o.configuration for o in elites])[:, free_positions]
            for sample in range(num_local):
                noise = rng.normal(scale=self.perturbation_scale, size=len(free_names))
                units = np.clip(elite_units[sample % len(elites)] + noise, 0.0, 1.0)
                candidates.append(base.replace_units(free_names, units))
        return candidates

    # -- acquisition -----------------------------------------------------------------

    def recommend(
        self,
        surrogate: PollingSurrogate,
        history: ObservationHistory,
        index_type: str,
        objective: ObjectiveSpec,
        rng: np.random.Generator,
        *,
        exclude: list[Configuration] | None = None,
    ) -> Configuration:
        """Pick the candidate with the highest acquisition value.

        ``exclude`` lists configurations that must not be suggested again —
        the batch built so far during sequential-greedy q-EHVI selection.
        """
        candidates = self.generate_candidates(index_type, history, rng)
        prediction = surrogate.predict(candidates)
        if objective.constrained:
            scores = self._constrained_scores(surrogate, history, index_type, objective, prediction)
        else:
            scores = self._ehvi_scores(surrogate, index_type, prediction, rng)

        excluded = set(exclude or [])
        order = np.argsort(-scores)
        for position in order:
            candidate = candidates[int(position)]
            if candidate in excluded:
                continue
            if not history.contains_configuration(candidate.to_dict()):
                return candidate
        for position in order:
            candidate = candidates[int(position)]
            if candidate not in excluded:
                return candidate
        return candidates[int(order[0])]

    def _ehvi_scores(
        self,
        surrogate: PollingSurrogate,
        index_type: str,
        prediction,
        rng: np.random.Generator,
    ) -> np.ndarray:
        reference = surrogate.reference_point(index_type, scale=self.reference_scale)
        observed = surrogate.observed_objectives()
        return monte_carlo_ehvi(
            prediction.mean,
            prediction.std,
            observed,
            reference,
            num_samples=self.ehvi_samples,
            rng=rng,
        )

    def _constrained_scores(
        self,
        surrogate: PollingSurrogate,
        history: ObservationHistory,
        index_type: str,
        objective: ObjectiveSpec,
        prediction,
    ) -> np.ndarray:
        """Constrained EI (Eq. 7): EI on speed times the feasibility probability."""
        threshold = surrogate.normalize_threshold(index_type, float(objective.recall_constraint))
        observed = surrogate.observed_objectives()
        feasible_mask = np.array(
            [not o.failed and objective.satisfies_constraint(o.recall) for o in history], dtype=bool
        )
        if observed.shape[0] and feasible_mask.any():
            best_feasible_speed = float(observed[feasible_mask, 0].max())
        elif observed.shape[0]:
            best_feasible_speed = float(observed[:, 0].min())
        else:
            best_feasible_speed = 0.0
        improvement = expected_improvement(prediction.mean[:, 0], prediction.std[:, 0], best_feasible_speed)
        feasibility = probability_of_feasibility(prediction.mean[:, 1], prediction.std[:, 1], threshold)
        return improvement * feasibility
