"""VDTuner: the polling multi-objective Bayesian-optimization loop (Algorithm 1).

The tuner ties together the pieces defined in this package:

1. *Initial sampling*: every index type's default configuration is evaluated
   once (Algorithm 1, lines 1–5).
2. Each iteration, the remaining index types are re-scored by hypervolume
   influence and the persistently worst one may be abandoned (lines 7–14,
   :mod:`repro.core.scoring`).
3. A holistic surrogate is fitted on NPI-normalized observations (lines
   15–18, :mod:`repro.core.surrogate`).
4. The next index type is polled round-robin and the acquisition function
   recommends a configuration for it (lines 19–21,
   :mod:`repro.core.acquisition`).
5. The configuration is evaluated on the environment and the knowledge base
   is updated (line 22).

The same class also covers the paper's extensions: user recall-rate
preferences (constraint model, Section IV-F), bootstrapping from a previous
run's history, cost-aware objectives (Section V-E), and the ablation switches
(round-robin budget allocation, native surrogate) used in Figure 8.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.config import Configuration, ConfigurationSpace
from repro.core.acquisition import ConfigurationRecommender
from repro.core.history import Observation, ObservationHistory
from repro.core.objectives import ObjectiveSpec
from repro.core.scoring import RoundRobinPolicy, SuccessiveAbandonPolicy
from repro.core.surrogate import NativeSurrogate, PollingSurrogate
from repro.workloads.environment import VDMSTuningEnvironment
from repro.workloads.replay import EvaluationResult

__all__ = ["VDTuner", "VDTunerSettings", "TuningReport"]


@dataclass(frozen=True)
class VDTunerSettings:
    """Knobs of the tuning loop itself.

    Attributes
    ----------
    num_iterations:
        Total number of configuration evaluations, including the initial
        per-index-type samples (the paper runs 200).
    abandon_window:
        Consecutive worst-ranked iterations before an index type is abandoned
        (the paper uses 10).
    candidate_pool_size:
        Candidates scored per recommendation, at least 1.  The recommender
        scores no fewer than 8: a smaller pool is raised to 8.
    ehvi_samples:
        Monte-Carlo samples for the EHVI estimator, at least 1.
    reference_scale:
        Reference-point scale of Eq. 4 (0.5 in the paper); finite and
        positive, since the reference point must lie below the observations.
    use_successive_abandon:
        Ablation switch: ``False`` falls back to plain round robin.
    use_polling_surrogate:
        Ablation switch: ``False`` uses the native (raw-objective) surrogate.
    stale_noise_inflation:
        Observation-noise multiplier applied to ``bootstrap_history``
        observations when fitting the surrogate (1 = trust them like fresh
        observations).  Warm-started re-tuning after workload drift inflates
        this so stale knowledge acts as a soft prior that fresh measurements
        override wherever they disagree.
    seed:
        Seed for candidate generation and EHVI sampling.

    Examples
    --------
    >>> from repro import VDTunerSettings
    >>> settings = VDTunerSettings(num_iterations=25, ehvi_samples=32, seed=1)
    >>> settings.num_iterations
    25
    >>> VDTunerSettings(num_iterations=0)
    Traceback (most recent call last):
        ...
    ValueError: num_iterations must be >= 1
    """

    num_iterations: int = 200
    abandon_window: int = 10
    candidate_pool_size: int = 192
    ehvi_samples: int = 64
    reference_scale: float = 0.5
    use_successive_abandon: bool = True
    use_polling_surrogate: bool = True
    stale_noise_inflation: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        if self.abandon_window < 1:
            raise ValueError("abandon_window must be >= 1")
        if self.stale_noise_inflation < 1.0:
            raise ValueError("stale_noise_inflation must be >= 1")
        if self.candidate_pool_size < 1:
            raise ValueError("candidate_pool_size must be >= 1")
        if self.ehvi_samples < 1:
            raise ValueError("ehvi_samples must be >= 1")
        if not (math.isfinite(self.reference_scale) and self.reference_scale > 0):
            raise ValueError("reference_scale must be finite and positive")


@dataclass
class TuningReport:
    """Everything a tuning run produced.

    Attributes
    ----------
    history:
        All observations in evaluation order.
    score_trace:
        Per-iteration index-type scores (Figure 9 data).
    abandoned:
        Index type → iteration at which it was abandoned.
    objective:
        The objective specification that was optimized.
    settings:
        The tuner settings used.
    recommendation_seconds:
        Wall-clock seconds spent inside the recommendation machinery
        (Table VI's "configuration recommendation" column).
    replay_seconds:
        Simulated seconds spent replaying workloads (Table VI's "workload
        replay" column).
    """

    history: ObservationHistory
    score_trace: list[dict[str, float]] = field(default_factory=list)
    abandoned: dict[str, int] = field(default_factory=dict)
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    settings: VDTunerSettings = field(default_factory=VDTunerSettings)
    recommendation_seconds: float = 0.0
    replay_seconds: float = 0.0

    def best_observation(self, *, recall_floor: float = 0.0) -> Observation | None:
        """Best observation by the speed objective subject to a recall floor."""
        floor = recall_floor
        if self.objective.constrained:
            floor = max(floor, float(self.objective.recall_constraint))
        return self.history.best(recall_floor=floor)

    def best_configuration(self) -> dict[str, Any] | None:
        """Configuration of :meth:`best_observation` (no extra recall floor)."""
        best = self.best_observation()
        return None if best is None else dict(best.configuration)


class VDTuner:
    """The VDTuner auto-configuration framework.

    Examples
    --------
    >>> from repro import VDMSTuningEnvironment, VDTuner, VDTunerSettings
    >>> environment = VDMSTuningEnvironment("glove-small", seed=0)
    >>> settings = VDTunerSettings(num_iterations=10, candidate_pool_size=32, ehvi_samples=8)
    >>> report = VDTuner(environment, settings=settings).run()
    >>> len(report.history)
    10
    >>> best = report.best_observation()
    >>> best.speed > 0
    True

    Batch mode suggests joint q-EHVI batches, charged on the tuning clock at
    their longest replay::

        report = VDTuner(environment, settings=settings).run(batch_size=4)
    """

    def __init__(
        self,
        environment: VDMSTuningEnvironment,
        settings: VDTunerSettings | None = None,
        objective: ObjectiveSpec | None = None,
        *,
        space: ConfigurationSpace | None = None,
        bootstrap_history: ObservationHistory | None = None,
    ) -> None:
        self.environment = environment
        self.settings = settings or VDTunerSettings()
        self.objective = objective or ObjectiveSpec()
        self.space = space or environment.space
        self.bootstrap_history = bootstrap_history
        self._rng = np.random.default_rng(self.settings.seed)

        index_parameter = self.space["index_type"]
        self.index_types = [
            choice for choice in index_parameter.choices if not str(choice).endswith("_")
        ]
        if not self.index_types:
            raise ValueError("the configuration space exposes no index types")

        policy_class = SuccessiveAbandonPolicy if self.settings.use_successive_abandon else RoundRobinPolicy
        self._policy = policy_class(
            index_types=list(self.index_types),
            window=self.settings.abandon_window,
            reference_scale=self.settings.reference_scale,
        )
        surrogate_class = PollingSurrogate if self.settings.use_polling_surrogate else NativeSurrogate
        self._surrogate = surrogate_class(
            self.space, constrained=self.objective.constrained, seed=self.settings.seed
        )
        self._recommender = ConfigurationRecommender(
            space=self.space,
            candidate_pool_size=self.settings.candidate_pool_size,
            ehvi_samples=self.settings.ehvi_samples,
            reference_scale=self.settings.reference_scale,
        )
        self._history = ObservationHistory()
        self._recommendation_seconds = 0.0

    # -- bookkeeping -------------------------------------------------------------------

    @property
    def history(self) -> ObservationHistory:
        """Observations of the current run."""
        return self._history

    def _record(self, configuration: Configuration, result: EvaluationResult) -> Observation:
        observation = Observation.from_result(
            len(self._history) + 1, configuration.to_dict(), result, self.objective
        )
        self._history.add(observation)
        return observation

    def _training_history(self) -> ObservationHistory:
        """History used to fit the surrogate (bootstrapping included)."""
        if self.bootstrap_history is None or len(self.bootstrap_history) == 0:
            return self._history
        combined = ObservationHistory(self.bootstrap_history.observations)
        combined.extend(self._history.observations)
        return combined

    def _training_noise_scale(self, training: ObservationHistory) -> np.ndarray | None:
        """Per-observation noise multipliers for the surrogate fit.

        Bootstrap observations (which lead the combined training history) get
        ``stale_noise_inflation``; the current run's observations get 1.
        """
        inflation = float(self.settings.stale_noise_inflation)
        if (
            inflation == 1.0
            or self.bootstrap_history is None
            or len(self.bootstrap_history) == 0
            or len(training) == len(self._history)
        ):
            return None
        num_stale = len(training) - len(self._history)
        scale = np.ones(len(training))
        scale[:num_stale] = inflation
        return scale

    # -- Algorithm 1 ----------------------------------------------------------------------

    def _default_configuration_for(self, index_type: str) -> Configuration:
        defaults = {p.name: p.default for p in self.space.parameters}
        defaults["index_type"] = index_type
        return self.space.configuration(defaults)

    def suggest_batch(self, q: int = 1) -> list[Configuration]:
        """Suggest ``q`` configurations to evaluate concurrently (q-EHVI batch).

        The batch is built sequential-greedily (Daulton et al.'s qEHVI with
        the "Kriging believer" fantasy): the first point is the regular EHVI
        recommendation of Algorithm 1; each subsequent point is recommended by
        a surrogate conditioned on the *predicted* outcomes of the points
        already in the batch (a cheap rank-one posterior update, see
        :meth:`repro.core.surrogate.PollingSurrogate.fantasized`), which both
        shrinks uncertainty near chosen points and grows the fantasy front —
        jointly steering the batch toward diverse, complementary
        configurations.  Index types are polled round-robin across the batch,
        so a batch spans several index types.

        With ``q == 1`` this is exactly one pass of the sequential tuning
        loop's recommendation step (lines 7-21 of Algorithm 1).  Before any
        observation exists, the suggestions are the index types' default
        configurations, mirroring the initial sampling phase.

        Returns a list of ``q`` distinct configurations (the suggested batch
        is not evaluated or recorded; pair with
        :meth:`repro.workloads.environment.VDMSTuningEnvironment.evaluate_batch`).
        """
        q = int(q)
        if q < 1:
            raise ValueError("q must be >= 1")
        training = self._training_history()
        if len(training) == 0:
            return [
                self._default_configuration_for(self.index_types[j % len(self.index_types)])
                for j in range(q)
            ]

        # Index types the knowledge base has never observed are sampled at
        # their defaults first — the incremental continuation of the initial
        # sampling phase (lines 1-5), so driving the tuner one suggest_batch
        # call at a time (as the online loop does) still sweeps every index
        # type before going model-based.  A bootstrapped (warm-started) tuner
        # already knows every index type and skips straight past this.
        observed = {observation.index_type for observation in training}
        missing = [t for t in self.index_types if t not in observed]
        batch: list[Configuration] = [
            self._default_configuration_for(index_type) for index_type in missing[:q]
        ]
        if len(batch) == q:
            return batch

        self._policy.update_scores(training, len(self._history) + 1)
        noise_scale = self._training_noise_scale(training)
        front_mask = None
        recommend_history = training
        if noise_scale is not None:
            # Down-weighted (stale) observations shape the GP but do not count
            # as achieved outcomes: a stale front the drifted workload cannot
            # reach would otherwise zero the acquisition signal (EHVI against
            # an unreachable front; constrained EI against an unreachable
            # best feasible speed) for every reachable candidate.  The
            # recommender sees the matching fresh-only history, so its
            # feasibility bookkeeping stays row-aligned with the front and
            # stale configurations remain re-suggestible after drift.
            front_mask = noise_scale == 1.0
            recommend_history = ObservationHistory(
                [o for o, keep in zip(training, front_mask) if keep]
            )
        self._surrogate.fit(
            training,
            index_types=list(self.index_types),
            noise_scale=noise_scale,
            front_mask=front_mask,
        )
        surrogate = self._surrogate.fantasized(batch) if batch else self._surrogate
        for j in range(len(batch), q):
            index_type = self._policy.next_index_type()
            configuration = self._recommender.recommend(
                surrogate,
                recommend_history,
                index_type,
                self.objective,
                self._rng,
                exclude=batch,
            )
            batch.append(configuration)
            if j + 1 < q:
                surrogate = surrogate.fantasized([configuration])
        return batch

    def run(self, num_iterations: int | None = None, *, batch_size: int = 1) -> TuningReport:
        """Run the tuning loop and return the report.

        One loop serves every mode: suggest a batch (:meth:`suggest_batch`),
        evaluate it through
        :meth:`~repro.workloads.environment.VDMSTuningEnvironment.evaluate_batch`,
        record it.  With the default ``batch_size=1`` every batch holds one
        configuration — the paper's strictly sequential Algorithm 1.  With
        ``batch_size=q > 1`` the batches are joint q-EHVI suggestions, each
        charged its longest replay on the tuning clock; the total evaluation
        budget is unchanged.
        """
        budget = int(num_iterations or self.settings.num_iterations)
        batch_size = max(1, int(batch_size))
        while len(self._history) < budget:
            q = batch_size
            if batch_size > 1 and len(self._training_history()) == 0:
                # The per-index-type defaults (lines 1-5) have no sequential
                # dependency at all, so a batch run evaluates the whole sweep
                # as one batch rather than in fixed-size chunks.
                q = len(self.index_types)
            q = min(q, budget - len(self._history))
            started = time.perf_counter()
            batch = self.suggest_batch(q)
            elapsed = time.perf_counter() - started
            self._recommendation_seconds += elapsed
            self.environment.charge_recommendation_time(elapsed)
            results = self.environment.evaluate_batch(batch)
            for configuration, result in zip(batch, results):
                self._record(configuration, result)
        return TuningReport(
            history=self._history,
            score_trace=self._policy.score_trace,
            abandoned=self._policy.abandoned,
            objective=self.objective,
            settings=self.settings,
            recommendation_seconds=self._recommendation_seconds,
            replay_seconds=self.environment.elapsed_replay_seconds,
        )
