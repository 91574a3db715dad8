"""Dynamic workloads: drift events, phase timelines and the online environment.

The base reproduction replays one *static* workload per tuning run.  Real
VDMS traffic is not static: query distributions drift, data is inserted and
deleted (churning the collection and invalidating index recall), client
concurrency bursts, and filter selectivity changes — all of which move the
speed/recall Pareto front and can strand a previously optimal configuration.

This module makes drift a first-class object:

* :class:`DriftEvent` subclasses are composable transformations of a
  ``(dataset, workload)`` pair, each firing at a fixed evaluation step:

  - :class:`QueryShiftEvent` — a fraction of the query population is re-drawn
    from a different region of the corpus (query-distribution shift);
  - :class:`DataChurnEvent` — a fraction of the stored vectors is deleted and
    replaced by freshly inserted ones (collection churn; recall ground truth
    is recomputed).  The churn is also emitted as a
    :class:`~repro.workloads.replay.MutationPlan`, so replays of the churned
    phase drive a *live* collection through the deletes and inserts —
    invalidating the per-segment indexes the deletes touch — and measure
    whether the evaluated configuration's maintenance policy
    (``maintenance_mode``, ``compaction_trigger_ratio``) heals the
    post-delete brute-force cliff or suffers it;
  - :class:`QPSBurstEvent` — client concurrency bursts up or down;
  - :class:`FilterSelectivityEvent` — queries gain a *real* attribute
    predicate matched by only a fraction of the corpus: a scalar column is
    written over the stored rows, every replayed search carries the
    :class:`~repro.vdms.request.AttributeFilter`, the query planner
    executes it (pre- vs post-filter per ``filter_strategy`` /
    ``overfetch_factor``) and recall is measured against masked
    brute-force ground truth — the tuner learns real filter-execution
    trade-offs.

* :class:`DynamicWorkload` lays events on a timeline and materializes the
  *phases* between them (phase 0 is the undrifted base workload; each event
  starts a new phase by transforming the previous phase's state).

* :class:`DynamicTuningEnvironment` extends
  :class:`~repro.workloads.environment.VDMSTuningEnvironment` to advance
  through the timeline as evaluations are spent, swapping the replayer's
  dataset/workload — and the active mutation plan, which is how maintenance
  is invoked between phases — and flushing the result cache at every phase
  boundary: the same configuration can, and usually does, measure
  differently after a drift event.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any, ClassVar, Mapping, Sequence

import numpy as np

from repro.config import Configuration
from repro.datasets.dataset import Dataset, DatasetSpec
from repro.datasets.ground_truth import brute_force_neighbors, masked_brute_force_neighbors
from repro.vdms.request import AttributeFilter
from repro.workloads.environment import VDMSTuningEnvironment
from repro.workloads.replay import EvaluationResult, MutationPlan
from repro.workloads.workload import SearchWorkload

__all__ = [
    "DriftEvent",
    "QueryShiftEvent",
    "DataChurnEvent",
    "QPSBurstEvent",
    "FilterSelectivityEvent",
    "WorkloadPhase",
    "DynamicWorkload",
    "DynamicTuningEnvironment",
    "DRIFT_EVENT_TYPES",
    "FILTER_FIELD",
    "make_drift_event",
    "make_filtered_workload",
]

#: Attribute column written by filter-selectivity workloads (the scalar
#: payload the emitted predicates read).
FILTER_FIELD = "filter_tag"


@dataclass(frozen=True)
class WorkloadPhase:
    """One materialized segment of a dynamic workload's timeline.

    Attributes
    ----------
    index:
        0-based phase index (0 is the undrifted base phase).
    name:
        ``"baseline"`` for phase 0, else the name of the event that started
        the phase.
    start_step:
        1-based evaluation step at which the phase becomes active.
    dataset:
        The dataset active during the phase (vectors, queries, ground truth).
    workload:
        The search workload active during the phase.
    row_ids:
        External id of each dataset row (``None`` means positions are ids) —
        required to score searches against a live-mutated collection.
    mutations:
        The churn :class:`~repro.workloads.replay.MutationPlan` that produced
        this phase's corpus, if any; replays of the phase then mutate a live
        collection (and heal it via maintenance) instead of rebuilding from
        scratch.
    """

    index: int
    name: str
    start_step: int
    dataset: Dataset
    workload: SearchWorkload
    row_ids: np.ndarray | None = None
    mutations: MutationPlan | None = None


@dataclass(frozen=True)
class DriftEvent(ABC):
    """A workload transformation firing at a fixed evaluation step.

    Attributes
    ----------
    at_step:
        1-based evaluation step at which the drift takes effect (evaluations
        ``>= at_step`` observe the drifted workload).
    severity:
        Drift magnitude in ``(0, 1]``; each event documents how it maps the
        severity onto its own knobs.
    """

    at_step: int
    severity: float = 0.5

    #: Registry name of the event family, overridden by subclasses.
    name: ClassVar[str] = "drift"

    def __post_init__(self) -> None:
        if self.at_step < 1:
            raise ValueError("at_step must be >= 1")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must lie in (0, 1]")

    @abstractmethod
    def apply(
        self, dataset: Dataset, workload: SearchWorkload, rng: np.random.Generator
    ) -> tuple[Dataset, SearchWorkload]:
        """Transform the active ``(dataset, workload)`` pair."""

    def apply_with_plan(
        self,
        dataset: Dataset,
        workload: SearchWorkload,
        rng: np.random.Generator,
        base_row_ids: np.ndarray | None = None,
    ) -> tuple[Dataset, SearchWorkload, np.ndarray | None, MutationPlan | None]:
        """Like :meth:`apply`, also returning ``(row_ids, mutation_plan)``.

        The default returns ``(None, None)`` — the event does not move any
        corpus rows, so the previous phase's id map and mutation plan carry
        over unchanged.  Events that churn the stored vectors (e.g.
        :class:`DataChurnEvent`) override this to describe the churn as
        live-collection operations.
        """
        del base_row_ids
        drifted, drifted_workload = self.apply(dataset, workload, rng)
        return drifted, drifted_workload, None, None


def _derived_dataset(
    base: Dataset,
    *,
    suffix: str,
    vectors: np.ndarray | None = None,
    queries: np.ndarray | None = None,
    ground_truth: np.ndarray | None = None,
    attributes: dict[str, np.ndarray] | None = None,
    active_filter: AttributeFilter | None = None,
) -> Dataset:
    """A copy of ``base`` with some arrays replaced and a renamed spec.

    Attribute columns carry over from ``base`` when the corpus rows are
    unchanged (pass ``attributes`` explicitly when they are).  When the
    ground truth must be recomputed and an ``active_filter`` is in force,
    the masked brute-force oracle is used, so filtered workloads stay
    consistent through subsequent drift events.
    """
    same_corpus = vectors is None
    vectors = base.vectors if vectors is None else vectors
    queries = base.queries if queries is None else queries
    if attributes is None:
        attributes = dict(base.attributes) if same_corpus else {}
    if ground_truth is None:
        if active_filter is not None and active_filter.field in attributes:
            ground_truth = masked_brute_force_neighbors(
                vectors,
                queries,
                base.top_k,
                base.metric,
                mask=active_filter.mask(attributes),
            )
        else:
            ground_truth = brute_force_neighbors(vectors, queries, base.top_k, base.metric)
    spec = DatasetSpec(
        name=f"{base.spec.name}+{suffix}",
        num_vectors=int(vectors.shape[0]),
        num_queries=int(queries.shape[0]),
        dimension=base.dimension,
        metric=base.metric,
        top_k=int(ground_truth.shape[1]),
        generator=base.spec.generator,
        seed=base.spec.seed,
        difficulty=base.spec.difficulty,
    )
    return Dataset(
        spec=spec,
        vectors=vectors,
        queries=queries,
        ground_truth=ground_truth,
        attributes=attributes,
    )


def _workload_for(dataset: Dataset, template: SearchWorkload) -> SearchWorkload:
    """A workload over ``dataset`` keeping the template's top-k/concurrency.

    The template's attribute filter survives only when the derived dataset
    still stores the predicated column (and its ground truth was therefore
    recomputed masked); otherwise the workload reverts to unfiltered.
    """
    carried_filter = template.filter
    if carried_filter is not None and carried_filter.field not in dataset.attributes:
        carried_filter = None
    return SearchWorkload(
        queries=dataset.queries,
        ground_truth=dataset.ground_truth,
        top_k=min(template.top_k, dataset.top_k),
        concurrency=template.concurrency,
        filter=carried_filter,
        popularity_skew=template.popularity_skew,
        popularity_requests=template.popularity_requests,
    )


@dataclass(frozen=True)
class QueryShiftEvent(DriftEvent):
    """Query-distribution shift: part of the query population is replaced.

    A ``severity`` fraction of the queries is replaced by out-of-distribution
    ones: each new query blends a randomly chosen base vector with a random
    direction of the same norm (``severity`` controls the blend), emulating a
    new user population asking about regions the corpus clusters do not
    cover.  Such queries land *between* clusters, which is exactly what
    degrades cluster- and graph-based ANN recall; ground truth is recomputed,
    so the measured recall stays exact.
    """

    name: ClassVar[str] = "query_shift"

    def apply(
        self, dataset: Dataset, workload: SearchWorkload, rng: np.random.Generator
    ) -> tuple[Dataset, SearchWorkload]:
        queries = dataset.queries.copy()
        num_queries = queries.shape[0]
        num_shifted = max(1, int(round(self.severity * num_queries)))
        shifted_rows = rng.choice(num_queries, size=num_shifted, replace=False)
        anchors = dataset.vectors[rng.integers(0, dataset.num_vectors, size=num_shifted)]
        norms = np.linalg.norm(anchors, axis=1, keepdims=True) + 1e-12
        directions = rng.normal(size=anchors.shape)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True) + 1e-12
        blended = (1.0 - self.severity) * anchors + self.severity * directions * norms
        jitter = rng.normal(scale=0.05 * float(norms.mean()), size=anchors.shape)
        queries[shifted_rows] = (blended + jitter).astype(np.float32)
        drifted = _derived_dataset(
            dataset, suffix=self.name, queries=queries, active_filter=workload.filter
        )
        return drifted, _workload_for(drifted, workload)


@dataclass(frozen=True)
class DataChurnEvent(DriftEvent):
    """Insert/delete churn: stored vectors are deleted and replaced.

    A ``severity / 2`` fraction of the base vectors is deleted and the same
    number of fresh vectors is inserted into a handful of *new* clusters the
    old corpus did not contain (trending content), and a ``severity / 2``
    fraction of the queries starts asking about the fresh vectors — arrivals
    come with queries about them.  This is the dataset-level mirror of
    deleting from and re-inserting into a live collection
    (:meth:`repro.vdms.collection.Collection.delete` followed by
    ``insert``/``flush``), which invalidates the per-segment indexes; ground
    truth is recomputed against the churned corpus, so both the corpus
    geometry (cluster layout the index parameters were tuned for) and the
    query mix move at once.
    """

    name: ClassVar[str] = "data_churn"

    def apply(
        self, dataset: Dataset, workload: SearchWorkload, rng: np.random.Generator
    ) -> tuple[Dataset, SearchWorkload]:
        drifted, drifted_workload, _, _ = self.apply_with_plan(dataset, workload, rng)
        return drifted, drifted_workload

    def apply_with_plan(
        self,
        dataset: Dataset,
        workload: SearchWorkload,
        rng: np.random.Generator,
        base_row_ids: np.ndarray | None = None,
    ) -> tuple[Dataset, SearchWorkload, np.ndarray | None, MutationPlan | None]:
        num_vectors = dataset.num_vectors
        churned_rows = max(1, int(round(0.5 * self.severity * num_vectors)))
        victims = rng.choice(num_vectors, size=churned_rows, replace=False)
        keep_mask = np.ones(num_vectors, dtype=bool)
        keep_mask[victims] = False
        survivors = dataset.vectors[keep_mask]

        # Fresh vectors form a few new, tight clusters at the typical norm.
        scale = float(np.linalg.norm(dataset.vectors, axis=1).mean())
        num_centers = max(1, int(round(4 * self.severity)))
        centers = rng.normal(size=(num_centers, dataset.dimension))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True) + 1e-12
        centers *= scale
        assignment = rng.integers(0, num_centers, size=churned_rows)
        fresh = centers[assignment] + rng.normal(
            scale=0.1 * scale, size=(churned_rows, dataset.dimension)
        )
        fresh = fresh.astype(np.float32)
        vectors = np.concatenate([survivors, fresh], axis=0)

        # Part of the query population follows the fresh content.
        queries = dataset.queries.copy()
        num_following = max(1, int(round(0.5 * self.severity * queries.shape[0])))
        following_rows = rng.choice(queries.shape[0], size=num_following, replace=False)
        picks = rng.integers(0, churned_rows, size=num_following)
        jitter = rng.normal(scale=0.05 * scale, size=(num_following, dataset.dimension))
        queries[following_rows] = (fresh[picks] + jitter).astype(np.float32)

        # Attribute columns survive the churn: survivors keep their values
        # and fresh rows sample from the base column (preserving each
        # column's marginal distribution), so an active attribute filter
        # keeps predicating — and its masked ground truth stays exact —
        # through the churn.
        fresh_attributes: dict[str, np.ndarray] = {}
        attributes: dict[str, np.ndarray] = {}
        for name, column in dataset.attributes.items():
            fresh_attributes[name] = rng.choice(column, size=churned_rows)
            attributes[name] = np.concatenate([column[keep_mask], fresh_attributes[name]])

        drifted = _derived_dataset(
            dataset,
            suffix=self.name,
            vectors=vectors,
            queries=queries,
            attributes=attributes,
            active_filter=workload.filter,
        )

        # The same churn as live-collection operations on external ids: the
        # storage layer gets real deletes (tombstoning sealed segments) and
        # real inserts (new segments), so replays of the drifted phase
        # measure a collection that has *lived through* the churn.
        if base_row_ids is None:
            base_row_ids = np.arange(num_vectors, dtype=np.int64)
        else:
            base_row_ids = np.asarray(base_row_ids, dtype=np.int64)
        next_id = int(base_row_ids.max()) + 1 if base_row_ids.size else 0
        insert_ids = np.arange(next_id, next_id + churned_rows, dtype=np.int64)
        row_ids = np.concatenate([base_row_ids[keep_mask], insert_ids])
        plan = MutationPlan(
            base_vectors=dataset.vectors,
            base_ids=base_row_ids,
            delete_ids=base_row_ids[victims],
            insert_vectors=fresh,
            insert_ids=insert_ids,
            base_attributes=dict(dataset.attributes) or None,
            insert_attributes=fresh_attributes or None,
        )
        return drifted, _workload_for(drifted, workload), row_ids, plan


@dataclass(frozen=True)
class QPSBurstEvent(DriftEvent):
    """QPS burst: client concurrency swings by a factor of ``1 + 3 * severity``.

    ``direction="drop"`` (default) divides the concurrency — a traffic
    trough, which lowers the throughput every configuration can deliver and
    is always observable on the served incumbent.  ``direction="surge"``
    multiplies it instead; note that a surge past the incumbent's effective
    capacity (``SIMULATED_CORES // query_node_threads``) changes nothing
    server-side in this cost model, exactly like a saturated real deployment,
    so surges against an already-saturated incumbent may be undetectable from
    its observations alone.  The dataset and recall ground truth are
    unchanged either way.
    """

    name: ClassVar[str] = "qps_burst"

    direction: str = "drop"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.direction not in ("drop", "surge"):
            raise ValueError("direction must be 'drop' or 'surge'")

    def apply(
        self, dataset: Dataset, workload: SearchWorkload, rng: np.random.Generator
    ) -> tuple[Dataset, SearchWorkload]:
        del rng  # deterministic: the burst is a pure concurrency change
        factor = 1.0 + 3.0 * self.severity
        if self.direction == "surge":
            concurrency = max(1, int(round(workload.concurrency * factor)))
        else:
            concurrency = max(1, int(round(workload.concurrency / factor)))
        return dataset, replace(workload, concurrency=concurrency)


def make_filtered_workload(
    dataset: Dataset,
    workload: SearchWorkload,
    selectivity: float,
    rng: np.random.Generator,
    *,
    suffix: str = "filter_shift",
) -> tuple[Dataset, SearchWorkload]:
    """Attach a real attribute predicate matching a ``selectivity`` fraction.

    A :data:`FILTER_FIELD` column is written over the corpus (0 = matching,
    1..9 = non-matching buckets), the workload gains the
    ``filter_tag == 0`` :class:`~repro.vdms.request.AttributeFilter`, and
    the ground truth is recomputed with the masked brute-force oracle — so
    the predicate replays *end to end*: the replayer stores the column,
    every search executes the filter through the query planner (pre- or
    post-filter per ``filter_strategy``/``overfetch_factor``), and recall is
    measured against the matching subset.

    At least ``top_k`` rows match, so the drifted workload never
    degenerates to an all-padded result.
    """
    if not 0.0 < selectivity <= 1.0:
        raise ValueError("selectivity must lie in (0, 1]")
    num_vectors = dataset.num_vectors
    num_matching = min(num_vectors, max(dataset.top_k, int(round(selectivity * num_vectors))))
    matching = rng.choice(num_vectors, size=num_matching, replace=False)
    # Non-matching rows spread over several buckets, so the column looks
    # like a genuine categorical payload rather than a boolean.
    tags = rng.integers(1, 10, size=num_vectors)
    tags[matching] = 0
    attributes = dict(dataset.attributes)
    attributes[FILTER_FIELD] = tags.astype(np.int64)
    query_filter = AttributeFilter(FILTER_FIELD, "eq", 0)
    ground_truth = masked_brute_force_neighbors(
        dataset.vectors, dataset.queries, dataset.top_k, dataset.metric, mask=tags == 0
    )
    drifted = _derived_dataset(
        dataset,
        suffix=suffix,
        ground_truth=ground_truth,
        attributes=attributes,
    )
    filtered = SearchWorkload(
        queries=drifted.queries,
        ground_truth=drifted.ground_truth,
        top_k=min(workload.top_k, drifted.top_k),
        concurrency=workload.concurrency,
        filter=query_filter,
        popularity_skew=workload.popularity_skew,
        popularity_requests=workload.popularity_requests,
    )
    return drifted, filtered


@dataclass(frozen=True)
class FilterSelectivityEvent(DriftEvent):
    """Filter-selectivity change: queries gain a real attribute predicate.

    A scalar :data:`FILTER_FIELD` column lands on the corpus and every
    query gains an ``AttributeFilter`` satisfied by a ``1 - 0.9 * severity``
    fraction of the rows (via :func:`make_filtered_workload`).  The filter
    is *executed* end to end — the query planner picks pre- vs post-filter
    per segment, charging real masked-scan or over-fetch work — and recall
    is measured against the masked brute-force ground truth, so the tuner
    can trade ``filter_strategy``/``overfetch_factor`` against the other
    knobs instead of fighting an unexplainable recall cap.
    """

    name: ClassVar[str] = "filter_shift"

    @property
    def selectivity(self) -> float:
        """Fraction of the corpus the emitted predicate matches."""
        return max(0.05, 1.0 - 0.9 * self.severity)

    def apply(
        self, dataset: Dataset, workload: SearchWorkload, rng: np.random.Generator
    ) -> tuple[Dataset, SearchWorkload]:
        return make_filtered_workload(
            dataset, workload, self.selectivity, rng, suffix=self.name
        )


#: Registry of drift-event families by name (CLI / scenario-matrix entry point).
DRIFT_EVENT_TYPES: dict[str, type[DriftEvent]] = {
    cls.name: cls
    for cls in (QueryShiftEvent, DataChurnEvent, QPSBurstEvent, FilterSelectivityEvent)
}

#: Short aliases accepted by :func:`make_drift_event` (and the CLI).
_EVENT_ALIASES: dict[str, str] = {
    "shift": "query_shift",
    "queries": "query_shift",
    "churn": "data_churn",
    "insert_delete": "data_churn",
    "burst": "qps_burst",
    "qps": "qps_burst",
    "filter": "filter_shift",
    "selectivity": "filter_shift",
}


def make_drift_event(kind: str, at_step: int, severity: float = 0.5) -> DriftEvent:
    """Build a drift event by registry name or alias.

    Examples
    --------
    >>> from repro.workloads.dynamic import make_drift_event
    >>> make_drift_event("shift", at_step=20, severity=0.7).name
    'query_shift'
    >>> make_drift_event("churn", at_step=5).at_step
    5
    """
    key = _EVENT_ALIASES.get(kind.lower(), kind.lower())
    if key not in DRIFT_EVENT_TYPES:
        known = sorted(set(DRIFT_EVENT_TYPES) | set(_EVENT_ALIASES))
        raise KeyError(f"unknown drift event {kind!r}; known: {known}")
    return DRIFT_EVENT_TYPES[key](at_step=int(at_step), severity=float(severity))


class DynamicWorkload:
    """A base workload plus a timeline of drift events.

    Phases are materialized lazily and cached: phase 0 is the base
    ``(dataset, workload)``, and phase ``i`` applies event ``i - 1`` to phase
    ``i - 1``'s state, so events compose.  Materialization is deterministic
    for a given ``seed`` (each event gets its own child generator).

    Examples
    --------
    >>> from repro import load_dataset
    >>> from repro.workloads.dynamic import DynamicWorkload, QueryShiftEvent
    >>> dynamic = DynamicWorkload(
    ...     load_dataset("glove-small"),
    ...     events=[QueryShiftEvent(at_step=10, severity=0.5)],
    ...     seed=0,
    ... )
    >>> dynamic.num_phases
    2
    >>> dynamic.phase_index_at(9), dynamic.phase_index_at(10)
    (0, 1)
    """

    def __init__(
        self,
        dataset: Dataset,
        events: Sequence[DriftEvent] = (),
        *,
        workload: SearchWorkload | None = None,
        seed: int = 0,
    ) -> None:
        self.events = sorted(events, key=lambda e: e.at_step)
        steps = [event.at_step for event in self.events]
        if len(set(steps)) != len(steps):
            raise ValueError("drift events must fire at distinct steps")
        self.seed = int(seed)
        base_workload = workload or SearchWorkload.from_dataset(dataset)
        self._phases: list[WorkloadPhase] = [
            WorkloadPhase(
                index=0, name="baseline", start_step=1, dataset=dataset, workload=base_workload
            )
        ]

    @property
    def num_phases(self) -> int:
        """Number of phases on the timeline (events + 1)."""
        return len(self.events) + 1

    def phase(self, index: int) -> WorkloadPhase:
        """Materialize (and cache) the phase with the given index."""
        if not 0 <= index < self.num_phases:
            raise IndexError(f"phase index {index} out of range [0, {self.num_phases})")
        while len(self._phases) <= index:
            previous = self._phases[-1]
            event = self.events[len(self._phases) - 1]
            rng = np.random.default_rng((self.seed, len(self._phases)))
            dataset, workload, row_ids, plan = event.apply_with_plan(
                previous.dataset, previous.workload, rng, previous.row_ids
            )
            if row_ids is None:
                # The event moved no corpus rows: the id map and the live
                # mutation history carry over from the previous phase.
                row_ids = previous.row_ids
                plan = previous.mutations
            self._phases.append(
                WorkloadPhase(
                    index=len(self._phases),
                    name=event.name,
                    start_step=event.at_step,
                    dataset=dataset,
                    workload=workload,
                    row_ids=row_ids,
                    mutations=plan,
                )
            )
        return self._phases[index]

    def phase_index_at(self, step: int) -> int:
        """Phase index active at a 1-based evaluation step."""
        index = 0
        for position, event in enumerate(self.events, start=1):
            if step >= event.at_step:
                index = position
        return index


class DynamicTuningEnvironment(VDMSTuningEnvironment):
    """A tuning environment whose workload drifts as evaluations are spent.

    The environment advances through the :class:`DynamicWorkload` timeline:
    the Nth evaluation (1-based; ``evaluate`` is a batch of one) runs under
    the phase active at step N.  A batch is atomic — it is evaluated
    entirely under the phase active at its first step, matching one
    concurrent replay round.  At every
    phase boundary the replayer is rebuilt and the result cache flushed
    (:meth:`~repro.workloads.environment.VDMSTuningEnvironment.set_workload`),
    so re-evaluating an old configuration reflects the drifted workload.

    Examples
    --------
    >>> from repro import load_dataset
    >>> from repro.workloads.dynamic import (
    ...     DynamicTuningEnvironment, DynamicWorkload, QPSBurstEvent,
    ... )
    >>> dynamic = DynamicWorkload(
    ...     load_dataset("glove-small"), events=[QPSBurstEvent(at_step=2, severity=1.0)]
    ... )
    >>> environment = DynamicTuningEnvironment(dynamic, seed=0)
    >>> first = environment.evaluate(environment.default_configuration())
    >>> environment.current_phase.name
    'baseline'
    >>> second = environment.evaluate(environment.default_configuration())
    >>> environment.current_phase.name
    'qps_burst'
    """

    def __init__(
        self,
        dynamic: DynamicWorkload,
        *,
        seed: int = 0,
    ) -> None:
        base = dynamic.phase(0)
        super().__init__(base.dataset, workload=base.workload, seed=seed)
        self.dynamic = dynamic
        self._phase_index = 0
        self._steps = 0
        #: ``(phase_index, first_step)`` for every phase entered so far.
        self.phase_log: list[tuple[int, int]] = [(0, 1)]

    @property
    def current_phase(self) -> WorkloadPhase:
        """The phase the next evaluation would run under (before advancing)."""
        return self.dynamic.phase(self._phase_index)

    @property
    def steps_taken(self) -> int:
        """Evaluations spent so far on this environment."""
        return self._steps

    def _advance_to_step(self, step: int) -> None:
        target = self.dynamic.phase_index_at(step)
        if target == self._phase_index:
            return
        phase = self.dynamic.phase(target)
        self._phase_index = target
        self.set_workload(
            phase.workload,
            dataset=phase.dataset,
            mutations=phase.mutations,
            row_ids=phase.row_ids,
        )
        self.phase_log.append((target, step))

    def evaluate_batch(
        self, configurations: Sequence[Configuration | Mapping[str, Any]]
    ) -> list[EvaluationResult]:
        if len(configurations) == 0:
            return []
        self._advance_to_step(self._steps + 1)
        self._steps += len(configurations)
        return super().evaluate_batch(configurations)
