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
mixed discrete/continuous spaces.  The pool is one array (:class:`CandidatePool`):
it is scored as a matrix, and only the rows the recommender inspects are
decoded into configurations.
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

__all__ = ["CandidatePool", "ConfigurationRecommender"]


@dataclass(frozen=True)
class CandidatePool:
    """The candidates of one recommendation, as arrays.

    Attributes
    ----------
    base:
        The polled index type's default configuration.
    free_names:
        The parameters a candidate varies; every other one keeps its value
        in ``base``.
    raw:
        One row of free-parameter unit coordinates per candidate, as drawn.
    encoded:
        The GP encoding of every candidate: ``base``'s row with the free
        columns snapped to the coordinates of the values they decode to.
    """

    base: Configuration
    free_names: tuple[str, ...]
    raw: np.ndarray
    encoded: np.ndarray

    def __len__(self) -> int:
        return self.raw.shape[0]

    def configuration(self, position: int) -> Configuration:
        """Candidate ``position`` decoded; its encoding is row ``position`` of ``encoded``."""
        return self.base.replace_units(self.free_names, self.raw[position])


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
    ) -> CandidatePool:
        """Build the candidate pool for one polled index type."""
        free_names = self._free_parameter_names(index_type)
        free_positions = [self.space.index_of(name) for name in free_names]
        # Everything outside the polled sub-space stays at its default, so the
        # defaults are validated and encoded once and a candidate varies its
        # free columns only.
        base = self.space.configuration({"index_type": index_type}, complete=False)

        pool_size = max(8, int(self.candidate_pool_size))
        num_random = pool_size // 2
        num_local = pool_size - num_random

        # Space-filling candidates over the free sub-space.
        raw = latin_hypercube(num_random, len(free_names), rng) if free_names else np.empty((1, 0))

        # Local perturbations around the index type's best observations.
        elites = history.non_dominated(index_type)
        if elites and free_names:
            elite_units = self.space.encode_many([o.configuration for o in elites])[:, free_positions]
            noise = rng.normal(scale=self.perturbation_scale, size=(num_local, len(free_names)))
            local = np.clip(elite_units[np.arange(num_local) % len(elites)] + noise, 0.0, 1.0)
            raw = np.vstack([raw, local])

        encoded = np.repeat(self.space.encode(base)[None, :], raw.shape[0], axis=0)
        for column, (name, position) in enumerate(zip(free_names, free_positions)):
            encoded[:, position] = self.space[name].snap_units(raw[:, column])
        return CandidatePool(base, tuple(free_names), raw, encoded)

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
        pool = self.generate_candidates(index_type, history, rng)
        prediction = surrogate.predict(pool.encoded)
        if objective.constrained:
            scores = self._constrained_scores(surrogate, history, index_type, objective, prediction)
        else:
            scores = self._ehvi_scores(surrogate, index_type, prediction, rng)

        excluded = set(exclude or [])
        order = np.argsort(-scores)
        observed = []  # candidates not excluded but already in the history, best first
        for position in order:
            candidate = pool.configuration(int(position))
            if candidate in excluded:
                continue
            if not history.contains_configuration(candidate.to_dict()):
                return candidate
            observed.append(candidate)
        return observed[0] if observed else pool.configuration(int(order[0]))

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
