"""Shared machinery for baseline tuners.

Every baseline follows the same observe/suggest loop and produces the same
:class:`~repro.core.tuner.TuningReport` as VDTuner.  Subclasses implement a
single method, :meth:`BaselineTuner._suggest`, returning the next
configuration to evaluate.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import replace

import numpy as np

from repro.config import Configuration, ConfigurationSpace
from repro.core.history import Observation, ObservationHistory
from repro.core.objectives import ObjectiveSpec
from repro.core.tuner import TuningReport, VDTuner, VDTunerSettings
from repro.workloads.environment import VDMSTuningEnvironment
from repro.workloads.replay import EvaluationResult

__all__ = ["BaselineTuner", "TUNER_REGISTRY", "make_tuner", "weighted_sum_scores"]


def weighted_sum_scores(history: ObservationHistory, *, speed_weight: float = 0.5) -> np.ndarray:
    """Weighted sum of max-normalized objectives for every observation.

    This is the scalar reward the paper gives to the single-objective
    baselines (OpenTuner and OtterTune): ``w * speed/speed_max +
    (1 - w) * recall/recall_max``, with failed evaluations replaced by the
    worst observed values.
    """
    if len(history) == 0:
        return np.empty(0, dtype=float)
    values = history.objective_matrix()
    maxima = values.max(axis=0)
    maxima[maxima <= 0] = 1.0
    normalized = values / maxima
    return speed_weight * normalized[:, 0] + (1.0 - speed_weight) * normalized[:, 1]


class BaselineTuner(ABC):
    """Base class for the baseline tuners."""

    #: Registry/display name; overridden by subclasses.
    name: str = "baseline"

    def __init__(
        self,
        environment: VDMSTuningEnvironment,
        objective: ObjectiveSpec | None = None,
        *,
        space: ConfigurationSpace | None = None,
        seed: int = 0,
    ) -> None:
        self.environment = environment
        self.objective = objective or ObjectiveSpec()
        self.space = space or environment.space
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)
        self.history = ObservationHistory()
        self._recommendation_seconds = 0.0

    # -- bookkeeping ---------------------------------------------------------------

    def _record(self, configuration: Configuration, result: EvaluationResult) -> Observation:
        observation = Observation.from_result(
            len(self.history) + 1, configuration.to_dict(), result, self.objective
        )
        self.history.add(observation)
        return observation

    # -- the loop ---------------------------------------------------------------------

    @abstractmethod
    def _suggest(self, iteration: int) -> Configuration:
        """Return the next configuration to evaluate (1-based iteration index)."""

    def suggest_batch(self, q: int = 1) -> list[Configuration]:
        """Suggest ``q`` configurations to evaluate concurrently.

        The generic implementation calls :meth:`_suggest` ``q`` times with
        consecutive virtual iteration indices and replaces within-batch
        duplicates by uniform random configurations (model-based baselines
        are deterministic given the history, so repeated calls can collide).
        Baselines with a natural batch notion override this — see
        :meth:`repro.baselines.qehvi.QEHVITuner.suggest_batch` for the
        fantasy-conditioned greedy q-EHVI version.
        """
        q = int(q)
        if q < 1:
            raise ValueError("q must be >= 1")
        batch: list[Configuration] = []
        for offset in range(q):
            configuration = self._suggest(len(self.history) + offset + 1)
            attempts = 0
            while configuration in batch and attempts < 16:
                configuration = self.space.sample_configuration(self.rng)
                attempts += 1
            batch.append(configuration)
        return batch

    def run(self, num_iterations: int, *, batch_size: int = 1) -> TuningReport:
        """Run the tuner for ``num_iterations`` evaluations.

        ``batch_size`` mirrors :meth:`repro.core.tuner.VDTuner.run`: every
        pass calls :meth:`suggest_batch` (one :meth:`_suggest` when
        ``batch_size`` is 1) and evaluates the batch through
        :meth:`~repro.workloads.environment.VDMSTuningEnvironment.evaluate_batch`,
        keeping the total evaluation budget identical.
        """
        num_iterations = int(num_iterations)
        batch_size = max(1, int(batch_size))
        while len(self.history) < num_iterations:
            q = min(batch_size, num_iterations - len(self.history))
            started = time.perf_counter()
            batch = self.suggest_batch(q)
            elapsed = time.perf_counter() - started
            self._recommendation_seconds += elapsed
            self.environment.charge_recommendation_time(elapsed)
            results = self.environment.evaluate_batch(batch)
            for configuration, result in zip(batch, results):
                self._record(configuration, result)
        return TuningReport(
            history=self.history,
            objective=self.objective,
            settings=VDTunerSettings(num_iterations=num_iterations),
            recommendation_seconds=self._recommendation_seconds,
            replay_seconds=self.environment.elapsed_replay_seconds,
        )


#: Registry of tuner names to constructors (VDTuner plus every baseline).
TUNER_REGISTRY: dict[str, type] = {}


def _register(cls):
    TUNER_REGISTRY[cls.name] = cls
    return cls


def make_tuner(
    name: str,
    environment: VDMSTuningEnvironment,
    *,
    objective: ObjectiveSpec | None = None,
    seed: int = 0,
    settings: VDTunerSettings | None = None,
):
    """Instantiate a tuner (VDTuner or a baseline) by registry name.

    The registry names follow the paper: ``"vdtuner"``, ``"random"``,
    ``"opentuner"``, ``"ottertune"``, ``"qehvi"``, ``"default"``.

    Examples
    --------
    >>> from repro import VDMSTuningEnvironment, make_tuner
    >>> environment = VDMSTuningEnvironment("glove-small", seed=0)
    >>> tuner = make_tuner("random", environment, seed=0)
    >>> report = tuner.run(5)
    >>> len(report.history)
    5
    >>> make_tuner("nope", environment)
    Traceback (most recent call last):
        ...
    KeyError: ...
    """
    key = name.lower()
    if key == "vdtuner":
        settings = replace(settings or VDTunerSettings(), seed=seed)
        return VDTuner(environment, settings=settings, objective=objective)
    if key not in TUNER_REGISTRY:
        raise KeyError(f"unknown tuner {name!r}; known: ['vdtuner'] + {sorted(TUNER_REGISTRY)}")
    return TUNER_REGISTRY[key](environment, objective, seed=seed)
