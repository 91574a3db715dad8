"""Online continuous tuning under workload drift.

The offline tuners assume a frozen workload: tune once, deploy the best
configuration, done.  :class:`OnlineTuner` runs the deployment story instead —
an alternation of two modes over a (possibly drifting) environment:

``tune``
    Spend a bounded re-tuning budget suggesting and evaluating configurations
    with any registered tuner (VDTuner or a baseline), optionally in q-EHVI
    batches.

``serve``
    Deploy the incumbent (best known) configuration, re-measuring it every
    step, and feed the observed ``(speed, recall)`` to a
    :class:`~repro.core.drift.CusumDriftDetector`.  When the detector fires,
    re-enter ``tune``.

Re-tuning is **warm-started**: the knowledge base carries over, with stale
observations decayed by :func:`decay_history` (the most recent observations
are kept verbatim, older ones survive only if they are Pareto-optimal), and —
for VDTuner — the decayed history is passed as ``bootstrap_history`` so the
re-tune skips the per-index-type default sweep and resumes model-based
suggestions immediately.  ``warm_start=False`` gives the cold-restart
baseline the drift benchmarks compare against.

The per-step log (:class:`StepRecord`) is phase-aware, so the
:class:`OnlineReport` can compute per-phase Pareto fronts, hypervolumes and
the *time to recover* — how many evaluations after a drift event it took to
get back within ``recovery_fraction`` of the phase's best service score
(speed x recall).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np

from repro.bo.pareto import hypervolume_2d, pareto_front
from repro.core.drift import CusumDriftDetector
from repro.core.history import Observation, ObservationHistory
from repro.core.objectives import ObjectiveSpec
from repro.core.tuner import VDTuner, VDTunerSettings
from repro.workloads.environment import VDMSTuningEnvironment
from repro.workloads.replay import EvaluationResult

__all__ = [
    "decay_history",
    "OnlineTunerSettings",
    "StepRecord",
    "OnlineReport",
    "OnlineTuner",
]


def decay_history(
    history: ObservationHistory,
    *,
    decay: float = 0.5,
    keep_recent: int = 8,
    dedupe: bool = True,
) -> ObservationHistory:
    """Shrink a history for warm re-tuning by decaying stale observations.

    With ``dedupe`` (default), repeated measurements of the same
    configuration collapse to the latest one first — the online loop's
    serving mode re-measures the incumbent every step, and those duplicates
    would otherwise crowd every other configuration out of the recency
    window.  Keeps (in original order): the ``keep_recent`` most recent
    distinct observations, enough of the tail to retain a ``decay`` fraction
    of the history, and every successful non-dominated observation regardless
    of age — old Pareto points summarize what the space *could* do and remain
    the cheapest prior available, while old dominated points mostly encode
    the stale workload.

    Examples
    --------
    >>> from repro.core.online import decay_history
    >>> from repro.core.history import ObservationHistory
    >>> decayed = decay_history(ObservationHistory(), decay=0.5)
    >>> len(decayed)
    0
    """
    if not 0.0 <= decay <= 1.0:
        raise ValueError("decay must lie in [0, 1]")
    if keep_recent < 0:
        raise ValueError("keep_recent must be >= 0")
    observations = history.observations
    if dedupe and observations:
        last_seen: dict[tuple, int] = {}
        for index, observation in enumerate(observations):
            key = tuple(sorted((k, str(v)) for k, v in observation.configuration.items()))
            last_seen[key] = index
        keep_positions = sorted(last_seen.values())
        observations = [observations[i] for i in keep_positions]
    count = len(observations)
    if count == 0:
        return ObservationHistory()
    target = max(int(keep_recent), int(math.ceil(count * decay)))
    keep = set(range(max(0, count - target), count))

    successful = [(i, o) for i, o in enumerate(observations) if not o.failed]
    if successful:
        values = np.array([o.objectives() for _, o in successful], dtype=float)
        front = pareto_front(values)
        for (index, _), value in zip(successful, values):
            if any(np.allclose(value, point) for point in front):
                keep.add(index)
    return ObservationHistory(observations[i] for i in sorted(keep))


@dataclass(frozen=True)
class OnlineTunerSettings:
    """Knobs of the online tuning loop.

    Attributes
    ----------
    total_steps:
        Total evaluation budget of the online run (tuning + serving).
    retune_budget:
        Evaluations spent per (re-)tuning episode before serving resumes.
    warm_start:
        Whether re-tuning bootstraps from the decayed knowledge base
        (``False`` = cold restart, the ablation baseline).
    history_decay, keep_recent:
        Passed to :func:`decay_history` when building the warm-start
        bootstrap.
    stale_noise_inflation:
        Observation-noise multiplier on the bootstrap observations during
        warm re-tuning — stale knowledge becomes a soft prior the fresh
        post-drift measurements override wherever they disagree (see
        :class:`~repro.core.tuner.VDTunerSettings`).
    detector_threshold, detector_drift, detector_warmup:
        Passed to :class:`~repro.core.drift.CusumDriftDetector`.
    recovery_fraction:
        A phase counts as recovered at the first evaluation whose service
        score reaches this fraction of the phase's best service score.
    batch_size:
        q-EHVI batch size used during tuning episodes (1 = sequential).
    seed:
        Base seed; each re-tuning episode derives its own tuner seed.

    Examples
    --------
    >>> from repro import OnlineTunerSettings
    >>> OnlineTunerSettings(total_steps=40, retune_budget=10).warm_start
    True
    >>> OnlineTunerSettings(total_steps=0)
    Traceback (most recent call last):
        ...
    ValueError: total_steps must be >= 1
    """

    total_steps: int = 60
    retune_budget: int = 14
    warm_start: bool = True
    history_decay: float = 0.5
    keep_recent: int = 8
    stale_noise_inflation: float = 16.0
    detector_threshold: float = 5.0
    detector_drift: float = 0.5
    detector_warmup: int = 3
    recovery_fraction: float = 0.9
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.retune_budget < 1:
            raise ValueError("retune_budget must be >= 1")
        if not 0.0 < self.recovery_fraction <= 1.0:
            raise ValueError("recovery_fraction must lie in (0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    """One evaluation of the online loop.

    Attributes
    ----------
    step:
        1-based online step (tuning and serving steps share the counter).
    phase:
        Workload-phase index the evaluation ran under.
    mode:
        ``"tune"`` (exploration during a re-tuning episode) or ``"serve"``
        (re-measurement of the deployed incumbent).
    index_type:
        Index type of the evaluated configuration.
    configuration:
        The evaluated configuration values.
    speed, recall:
        The objective pair observed at this step.
    failed:
        Whether the evaluation failed.
    replay_seconds:
        Cumulative simulated replay clock after this step.
    latency_p99_ms:
        The p99 per-query latency the replayer measured at this step, or
        ``None`` when unavailable — what latency SLOs are checked against.
    """

    step: int
    phase: int
    mode: str
    index_type: str
    configuration: dict[str, Any]
    speed: float
    recall: float
    failed: bool
    replay_seconds: float
    latency_p99_ms: float | None = None

    @property
    def score(self) -> float:
        """Service score: speed weighted by the recall actually delivered."""
        if self.failed:
            return 0.0
        return self.speed * self.recall


@dataclass
class OnlineReport:
    """Everything an online tuning run produced.

    Attributes
    ----------
    records:
        Per-step log in evaluation order.
    phase_log:
        ``(phase_index, first_step)`` pairs, from the environment.
    detections:
        Steps at which the drift detector fired.
    retunes:
        One entry per re-tuning episode: start step and warm/cold flag.
    history:
        Every observation (tuning and serving) as a knowledge base.
    settings, objective, tuner_name:
        The run's inputs, for reporting.
    """

    records: list[StepRecord]
    phase_log: list[tuple[int, int]]
    detections: list[int]
    retunes: list[dict[str, Any]]
    history: ObservationHistory
    settings: OnlineTunerSettings
    objective: ObjectiveSpec
    tuner_name: str = "vdtuner"

    # -- per-phase views -----------------------------------------------------------------

    def phases(self) -> list[int]:
        """Phase indices that actually received evaluations."""
        seen: list[int] = []
        for record in self.records:
            if record.phase not in seen:
                seen.append(record.phase)
        return seen

    def phase_records(self, phase: int) -> list[StepRecord]:
        """The records evaluated under one phase."""
        return [record for record in self.records if record.phase == phase]

    def phase_start_step(self, phase: int) -> int | None:
        """First online step of a phase, or ``None`` if it was never entered."""
        for index, start in self.phase_log:
            if index == phase:
                return start
        return None

    def phase_pareto_front(self, phase: int) -> np.ndarray:
        """Pareto front of the successful ``(speed, recall)`` pairs of a phase."""
        values = np.array(
            [(r.speed, r.recall) for r in self.phase_records(phase) if not r.failed],
            dtype=float,
        )
        if values.size == 0:
            return np.empty((0, 2), dtype=float)
        # Serving re-measures the incumbent many times; collapse duplicates.
        return pareto_front(np.unique(values, axis=0))

    def phase_hypervolume(self, phase: int) -> float:
        """Hypervolume of the phase's Pareto front (zero reference point)."""
        return hypervolume_2d(self.phase_pareto_front(phase), np.zeros(2))

    def phase_best(self, phase: int) -> StepRecord | None:
        """The phase record with the best service score."""
        candidates = [r for r in self.phase_records(phase) if not r.failed]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.score)

    def time_to_recover(self, phase: int) -> int | None:
        """Evaluations from phase start until the service score recovers.

        Recovery means reaching the settings' ``recovery_fraction`` of the
        best service score observed *within the phase* — the in-hindsight
        post-drift optimum, which makes warm and cold re-tuning directly
        comparable.  ``None`` when the phase saw no successful evaluation.
        """
        best = self.phase_best(phase)
        if best is None or best.score <= 0.0:
            return None
        return self.time_to_reach_score(phase, self.settings.recovery_fraction * best.score)

    def time_to_reach_score(self, phase: int, threshold: float) -> int | None:
        """Evaluations from phase start until the service score reaches ``threshold``.

        Unlike :meth:`time_to_recover` (which is relative to the run's *own*
        phase best), this takes an absolute score target, so two runs — e.g.
        warm vs cold re-tuning — can be compared against a common post-drift
        optimum.  ``None`` when the run never reaches the target in-phase.
        """
        for position, record in enumerate(self.phase_records(phase), start=1):
            if not record.failed and record.score >= threshold:
                return position
        return None

    def detection_delay(self, phase: int) -> int | None:
        """Steps between a phase's onset and the first detector alarm in it.

        ``None`` for the baseline phase and for phases with no alarm (either
        never detected, or the run ended first).
        """
        start = self.phase_start_step(phase)
        if start is None or phase == 0:
            return None
        next_starts = [s for i, s in self.phase_log if s > start]
        end = min(next_starts) if next_starts else self.settings.total_steps + 1
        for step in self.detections:
            if start <= step < end:
                return step - start + 1
        return None

    # -- serialization -------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """JSON-able summary: per-phase Pareto metrics and recovery times."""
        phase_summaries = []
        for phase in self.phases():
            best = self.phase_best(phase)
            phase_summaries.append(
                {
                    "phase": phase,
                    "start_step": self.phase_start_step(phase),
                    "evaluations": len(self.phase_records(phase)),
                    "pareto_front": [
                        [round(float(x), 6), round(float(y), 6)]
                        for x, y in self.phase_pareto_front(phase)
                    ],
                    "hypervolume": round(self.phase_hypervolume(phase), 6),
                    "best_score": round(best.score, 6) if best else None,
                    "best_index_type": best.index_type if best else None,
                    "time_to_recover": self.time_to_recover(phase),
                    "detection_delay": self.detection_delay(phase),
                }
            )
        return {
            "tuner": self.tuner_name,
            "total_steps": len(self.records),
            "warm_start": self.settings.warm_start,
            "detections": list(self.detections),
            "retunes": [dict(entry) for entry in self.retunes],
            "replay_seconds": round(self.records[-1].replay_seconds, 6) if self.records else 0.0,
            "phases": phase_summaries,
            "settings": asdict(self.settings),
        }


class OnlineTuner:
    """Continuous tune/serve loop with drift detection and warm re-tuning.

    Parameters
    ----------
    environment:
        The environment to tune online — typically a
        :class:`~repro.workloads.dynamic.DynamicTuningEnvironment` so the
        workload actually drifts, but any environment works (the loop then
        simply never re-tunes unless noise trips the detector).
    tuner:
        Registry name of the tuner driving each tuning episode (``"vdtuner"``
        or any baseline).
    settings:
        The online-loop knobs.
    objective:
        The objective specification shared by every episode.
    tuner_settings:
        VDTuner settings template for the episodes (iteration count is
        overridden by ``retune_budget``).

    Examples
    --------
    >>> from repro import load_dataset, OnlineTuner, OnlineTunerSettings
    >>> from repro.workloads.dynamic import DynamicTuningEnvironment, DynamicWorkload
    >>> dynamic = DynamicWorkload(load_dataset("glove-small"))
    >>> environment = DynamicTuningEnvironment(dynamic, seed=0)
    >>> settings = OnlineTunerSettings(total_steps=4, retune_budget=3, seed=0)
    >>> report = OnlineTuner(environment, settings=settings).run()
    >>> len(report.records)
    4
    >>> {r.mode for r in report.records} == {"tune", "serve"}
    True
    """

    def __init__(
        self,
        environment: VDMSTuningEnvironment,
        *,
        tuner: str = "vdtuner",
        settings: OnlineTunerSettings | None = None,
        objective: ObjectiveSpec | None = None,
        tuner_settings: VDTunerSettings | None = None,
    ) -> None:
        self.environment = environment
        self.tuner_name = tuner.lower()
        self.settings = settings or OnlineTunerSettings()
        self.objective = objective or ObjectiveSpec()
        self.tuner_settings = tuner_settings
        self._episodes = 0
        #: Upper bound on the next tuning batch (``None``: none), set by a
        #: scheduler that shares one evaluation budget among several loops.
        self._batch_cap: int | None = None
        #: The configuration most recently elected for serving (``None``
        #: until the first tuning episode completes).
        self.incumbent: dict[str, Any] | None = None
        self._records: list[StepRecord] = []
        self._knowledge = ObservationHistory()
        self._detections: list[int] = []
        self._retunes: list[dict[str, Any]] = []

    # -- episode plumbing ---------------------------------------------------------------

    def _episode_settings(self) -> VDTunerSettings:
        template = self.tuner_settings or VDTunerSettings()
        budget = self.settings.retune_budget
        return replace(
            template,
            num_iterations=budget,
            abandon_window=max(3, budget // 3),
            stale_noise_inflation=self.settings.stale_noise_inflation,
            seed=self.settings.seed + self._episodes,
        )

    def _new_tuner(self, bootstrap: ObservationHistory | None):
        """Build the tuner for one episode, warm-started when requested."""
        from repro.baselines import make_tuner  # local import: avoids a package cycle

        seed = self.settings.seed + self._episodes
        self._episodes += 1
        if self.tuner_name == "vdtuner":
            return VDTuner(
                self.environment,
                settings=self._episode_settings(),
                objective=self.objective,
                bootstrap_history=bootstrap,
            )
        tuner = make_tuner(self.tuner_name, self.environment, objective=self.objective, seed=seed)
        if bootstrap is not None and len(bootstrap) > 0:
            # Baselines have no bootstrap channel; seed their knowledge base
            # directly (the online loop never calls their run(), so the
            # injected observations do not consume episode budget).
            tuner.history.extend(bootstrap.observations)
        return tuner

    def _incumbent(self, episode: ObservationHistory) -> dict[str, Any]:
        """The configuration to serve after an episode.

        Only the episode's *fresh* observations are eligible: bootstrap
        observations carry pre-drift measurements and must not elect a
        configuration on stale numbers.
        """
        floor = float(self.objective.recall_constraint or 0.0)
        best = episode.best(recall_floor=floor) or episode.best()
        if best is not None:
            return dict(best.configuration)
        return self.environment.default_configuration().to_dict()

    def _revalidation_queue(self, bootstrap: ObservationHistory) -> list[dict[str, Any]]:
        """Stale Pareto configurations to re-measure first on a warm re-tune.

        The decayed history's non-dominated configurations are the best
        guesses for the post-drift optimum and the highest-value probes of
        how far the front moved, so the warm episode re-evaluates them before
        resuming model-based suggestions — if the old optimum still holds,
        recovery is immediate; if not, the surrogate gets fresh contrastive
        observations exactly where its knowledge was strongest.
        """
        limit = max(2, self.settings.retune_budget // 2)
        queue: list[dict[str, Any]] = []
        ranked = sorted(bootstrap.non_dominated(), key=lambda o: -o.speed * o.recall)
        for observation in ranked:
            configuration = dict(observation.configuration)
            if configuration not in queue:
                queue.append(configuration)
            if len(queue) >= limit:
                break
        return queue

    def _observe(
        self, step: int, configuration: dict[str, Any], result: EvaluationResult
    ) -> Observation:
        return Observation.from_result(step, configuration, result, self.objective)

    # -- the loop -------------------------------------------------------------------------

    def iterate(self):
        """Generator form of the online loop, yielding after every batch.

        Each ``next()`` advances the loop by one evaluation batch (one
        serving re-measurement, or up to ``batch_size`` tuning evaluations)
        and yields the list of fresh :class:`StepRecord` entries.  The loop
        state lives on the instance, so :meth:`build_report` is valid at any
        yield point — this is what lets a multi-tenant scheduler interleave
        many tenants' loops step by step under one shared evaluation budget
        (:class:`repro.core.multi_tenant.MultiTenantTuner`), capping each
        tuning batch at what is left of that budget.
        """
        settings = self.settings
        detector = CusumDriftDetector(
            threshold=settings.detector_threshold,
            drift=settings.detector_drift,
            warmup=settings.detector_warmup,
        )
        records: list[StepRecord] = []
        knowledge = ObservationHistory()
        detections: list[int] = []
        retunes: list[dict[str, Any]] = [{"step": 1, "warm": False}]
        self._records = records
        self._knowledge = knowledge
        self._detections = detections
        self._retunes = retunes

        tuner = self._new_tuner(None)
        mode = "tune"
        tune_remaining = min(settings.retune_budget, settings.total_steps)
        incumbent: dict[str, Any] | None = None
        revalidation: list[dict[str, Any]] = []
        episode_start = 0
        step = 0

        def phase_index() -> int:
            phase = getattr(self.environment, "current_phase", None)
            return 0 if phase is None else phase.index

        def record_step(configuration: dict[str, Any], result: EvaluationResult) -> None:
            observation = self._observe(len(records) + 1, configuration, result)
            knowledge.add(observation)
            records.append(
                StepRecord(
                    step=len(records) + 1,
                    phase=phase_index(),
                    mode=mode,
                    index_type=observation.index_type,
                    configuration=dict(configuration),
                    speed=observation.speed,
                    recall=observation.recall,
                    failed=observation.failed,
                    replay_seconds=self.environment.elapsed_replay_seconds,
                    latency_p99_ms=(
                        float(result.breakdown["latency_p99_ms"])
                        if "latency_p99_ms" in getattr(result, "breakdown", {})
                        else None
                    ),
                )
            )

        space = self.environment.space
        while step < settings.total_steps:
            produced_from = len(records)
            if mode == "tune":
                q = min(settings.batch_size, tune_remaining, settings.total_steps - step)
                if self._batch_cap is not None:
                    q = min(q, self._batch_cap)
                if revalidation:
                    # Warm re-tune opener: re-measure the stale Pareto
                    # configurations under the drifted workload before asking
                    # the surrogate for anything new.
                    batch = [space.configuration(v) for v in revalidation[:q]]
                    revalidation = revalidation[len(batch):]
                    q = len(batch)
                else:
                    batch = tuner.suggest_batch(q)
                results = self.environment.evaluate_batch(batch)
                for configuration, result in zip(batch, results):
                    record_step(configuration.to_dict(), result)
                    tuner._record(configuration, result)
                step += q
                tune_remaining -= q
                if tune_remaining <= 0:
                    episode = ObservationHistory(knowledge.observations[episode_start:])
                    incumbent = self._incumbent(episode)
                    self.incumbent = dict(incumbent)
                    revalidation = []
                    mode = "serve"
                    detector.reset()
            else:
                assert incumbent is not None
                result = self.environment.evaluate(incumbent)
                record_step(incumbent, result)
                step += 1
                speed, recall = self.objective.objective_values(result)
                if detector.update([speed, recall]):
                    detections.append(step)
                    if step >= settings.total_steps:
                        # The alarm is on record, but there is no budget left
                        # to act on it.
                        yield records[produced_from:]
                        continue
                    bootstrap: ObservationHistory | None = None
                    revalidation = []
                    if settings.warm_start:
                        bootstrap = decay_history(
                            knowledge,
                            decay=settings.history_decay,
                            keep_recent=settings.keep_recent,
                        )
                        revalidation = self._revalidation_queue(bootstrap)
                        # The queued configurations are re-observed immediately;
                        # keeping their stale twins in the bootstrap would feed
                        # the surrogate contradictory targets at the same point.
                        bootstrap = ObservationHistory(
                            o for o in bootstrap
                            if dict(o.configuration) not in revalidation
                        )
                    tuner = self._new_tuner(bootstrap)
                    episode_start = len(knowledge.observations)
                    retunes.append({"step": step + 1, "warm": settings.warm_start})
                    mode = "tune"
                    tune_remaining = settings.retune_budget
            yield records[produced_from:]

    def build_report(self) -> OnlineReport:
        """The report over everything evaluated so far (valid mid-run)."""
        return OnlineReport(
            records=list(self._records),
            phase_log=list(getattr(self.environment, "phase_log", [(0, 1)])),
            detections=list(self._detections),
            retunes=[dict(entry) for entry in self._retunes],
            history=self._knowledge,
            settings=self.settings,
            objective=self.objective,
            tuner_name=self.tuner_name,
        )

    def run(self) -> OnlineReport:
        """Run the online loop for ``total_steps`` evaluations."""
        for _ in self.iterate():
            pass
        return self.build_report()
