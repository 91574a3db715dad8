"""The query-plan layer: requests, attribute filters and execution plans.

Every search in the serving stack is described by a :class:`SearchRequest`
— the query batch, the requested ``top_k`` and an optional
:class:`AttributeFilter` over the collection's scalar attribute columns —
and executed according to a :class:`SearchPlan` the collection's planner
derives from it.  The plan records, per segment, which *filter-execution
strategy* serves the filtered request:

``"pre"`` (pre-filter)
    The allow-mask is applied *before* candidate scoring: exact indexes and
    brute-forced segments run a masked exact scan over the allowed rows
    only, IVF-family indexes intersect their probed candidate lists with
    the mask before scoring.  Work scales with selectivity — cheap when few
    rows match, expensive when most do (a masked scan of 90% of a segment
    costs almost a full scan while the index could have answered it).

``"post"`` (post-filter)
    The index searches unfiltered but *over-fetches*
    ``ceil(top_k * overfetch_factor)`` candidates, then drops the rows the
    filter rejects and refills (doubling the fetch width) until ``top_k``
    allowed rows are found or the segment is exhausted.  Work scales with
    the index's per-candidate cost and the overfetch width — cheap when
    most rows match (few candidates are dropped), wasteful when few do
    (the refill loop degenerates toward a full scan *plus* the wasted
    overfetch passes).

``"auto"``
    The planner picks per segment from the *estimated selectivity* (the
    fraction of the segment's live rows the filter matches): selectivity at
    or below :data:`AUTO_PRE_FILTER_SELECTIVITY` plans ``pre``, above it
    plans ``post`` — the decision table in docs/architecture.md.

The strategy and the overfetch width are tunable (``filter_strategy`` and
``overfetch_factor`` in :class:`~repro.vdms.system_config.SystemConfig` and
the Milvus tuning space), which is what lets the tuner learn real
filter-execution trade-offs instead of a recall cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

if TYPE_CHECKING:
    from repro.vdms.index.base import SearchStats
    from repro.vdms.system_config import SystemConfig

__all__ = [
    "ATTRIBUTE_MISSING",
    "AUTO_PRE_FILTER_SELECTIVITY",
    "FILTER_STRATEGIES",
    "MAX_TOP_K",
    "AttributeFilter",
    "SearchRequest",
    "SegmentPlan",
    "SearchPlan",
    "FilterStats",
]

#: Reserved sentinel for "this row has no value in this column" (rows merged
#: from an insert batch that did not carry the column).  A missing value
#: rejects every predicate — the same NULL semantics as a missing column —
#: so untagged rows can never match a filter, whatever its operator.
ATTRIBUTE_MISSING = np.iinfo(np.int64).min

#: The largest ``top_k`` a search accepts, Milvus's own limit: an answer is
#: ``queries × top_k`` ids and distances, so an unbounded ``top_k`` lets one
#: request ask for any amount of memory.
MAX_TOP_K = 16_384

#: Filter-execution strategies accepted by ``filter_strategy``.
FILTER_STRATEGIES: tuple[str, ...] = ("auto", "pre", "post")

#: ``auto`` plans pre-filtering for segments whose estimated selectivity is
#: at or below this fraction: with few matching rows a masked scan touches
#: little data, while post-filtering would over-fetch and refill its way
#: through most of the segment anyway.  Above it the index's sub-linear
#: candidate generation wins and dropping a few candidates is cheap.
AUTO_PRE_FILTER_SELECTIVITY = 0.2

#: Comparison operators accepted by :class:`AttributeFilter`.
_FILTER_OPS: tuple[str, ...] = ("eq", "ne", "lt", "le", "gt", "ge", "in", "range")


@dataclass(frozen=True)
class AttributeFilter:
    """A predicate over one scalar attribute column.

    Attributes
    ----------
    field:
        Name of the attribute column the predicate reads (integer-valued
        scalar payload stored alongside the vectors).
    op:
        One of ``eq``/``ne``/``lt``/``le``/``gt``/``ge`` (``value`` is a
        scalar), ``in`` (``value`` is a sequence of accepted values) or
        ``range`` (``value`` is an inclusive ``(low, high)`` pair).
    value:
        The comparison operand, per ``op``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.vdms.request import AttributeFilter
    >>> price = np.array([5, 20, 70, 40], dtype=np.int64)
    >>> AttributeFilter("price", "le", 40).mask({"price": price}).tolist()
    [True, True, False, True]
    >>> AttributeFilter("price", "in", (5, 70)).mask({"price": price}).tolist()
    [True, False, True, False]
    """

    field: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _FILTER_OPS:
            raise ValueError(f"unknown filter op {self.op!r}; expected one of {_FILTER_OPS}")
        if self.op == "range":
            low, high = self.value  # type: ignore[misc]
            object.__setattr__(self, "value", (int(low), int(high)))
        elif self.op == "in":
            object.__setattr__(self, "value", tuple(int(v) for v in self.value))  # type: ignore[union-attr]
        else:
            object.__setattr__(self, "value", int(self.value))  # type: ignore[arg-type]

    def mask(self, attributes: Mapping[str, np.ndarray]) -> np.ndarray:
        """Evaluate the predicate over attribute columns; returns a bool mask.

        Rows of a segment that stores no value for :attr:`field` never
        match (a missing column rejects every row, like a NULL in SQL), and
        individual rows holding the :data:`ATTRIBUTE_MISSING` sentinel —
        rows merged from a batch inserted without the column — are rejected
        the same way, whatever the operator.
        """
        column = attributes.get(self.field)
        if column is None:
            sample = next(iter(attributes.values()), np.empty(0, dtype=np.int64))
            return np.zeros(sample.shape[0], dtype=bool)
        column = np.asarray(column)
        if self.op == "eq":
            matched = column == self.value
        elif self.op == "ne":
            matched = column != self.value
        elif self.op == "lt":
            matched = column < self.value
        elif self.op == "le":
            matched = column <= self.value
        elif self.op == "gt":
            matched = column > self.value
        elif self.op == "ge":
            matched = column >= self.value
        elif self.op == "in":
            matched = np.isin(column, np.asarray(self.value, dtype=np.int64))
        else:
            low, high = self.value  # type: ignore[misc]
            matched = (column >= low) & (column <= high)
        return matched & (column != ATTRIBUTE_MISSING)


@dataclass(frozen=True)
class SearchRequest:
    """One top-K search request against a collection.

    Attributes
    ----------
    queries:
        Query vectors, shape ``(q, d)`` (a single vector is promoted; any
        other shape raises ``ValueError``).
    top_k:
        Requested result width per query.
    filter:
        Optional :class:`AttributeFilter`; ``None`` searches unfiltered.
    filter_strategy:
        ``"auto"``/``"pre"``/``"post"``; ``None`` defers to the system
        configuration's ``filter_strategy``.
    overfetch_factor:
        Post-filter over-fetch multiplier; ``None`` defers to the system
        configuration's ``overfetch_factor``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.vdms.request import AttributeFilter, SearchRequest
    >>> request = SearchRequest(
    ...     queries=np.zeros((2, 8), dtype=np.float32),
    ...     top_k=5,
    ...     filter=AttributeFilter("category", "eq", 3),
    ... )
    >>> request.queries.shape, request.top_k, request.filter.field
    ((2, 8), 5, 'category')
    """

    queries: np.ndarray
    top_k: int
    filter: AttributeFilter | None = None
    filter_strategy: str | None = None
    overfetch_factor: float | None = None

    def __post_init__(self) -> None:
        queries = np.asarray(self.queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2:
            raise ValueError(
                f"queries must be one vector or a 2-D array, got {queries.ndim} dimensions"
            )
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "top_k", int(self.top_k))
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")
        if self.top_k > MAX_TOP_K:
            raise ValueError(f"top_k must be at most {MAX_TOP_K}, got {self.top_k}")
        if self.filter_strategy is not None and self.filter_strategy not in FILTER_STRATEGIES:
            raise ValueError(
                f"filter_strategy must be one of {FILTER_STRATEGIES}, got {self.filter_strategy!r}"
            )
        if self.overfetch_factor is not None and float(self.overfetch_factor) < 1.0:
            raise ValueError("overfetch_factor must be >= 1.0")

    @classmethod
    def coerce(cls, queries: Any, top_k: int | None = None) -> "SearchRequest":
        """The request behind either public call shape.

        The public entry points accept ``(request)`` or ``(array, top_k)``;
        everything below them sees only requests.
        """
        if isinstance(queries, SearchRequest):
            if top_k is not None:
                raise ValueError("top_k is carried by the SearchRequest; do not pass both")
            return queries
        if top_k is None:
            raise ValueError("top_k is required when queries is a plain array")
        return cls(queries=queries, top_k=top_k)

    def filter_knobs(self, system_config: "SystemConfig") -> tuple[str, float]:
        """The ``(filter_strategy, overfetch_factor)`` in force for this request.

        The request's own setting where given, the system configuration's
        otherwise.
        """
        overfetch = self.overfetch_factor
        if overfetch is None:
            overfetch = system_config.overfetch_factor
        return self.filter_strategy or system_config.filter_strategy, float(overfetch)

    def slice(self, start: int, stop: int) -> "SearchRequest":
        """A request carrying only queries ``[start:stop)`` (same plan knobs)."""
        return SearchRequest(
            queries=self.queries[start:stop],
            top_k=self.top_k,
            filter=self.filter,
            filter_strategy=self.filter_strategy,
            overfetch_factor=self.overfetch_factor,
        )


@dataclass(frozen=True)
class SegmentPlan:
    """The planned execution of one segment of a filtered request.

    Attributes
    ----------
    shard_id / segment_id:
        Which segment the plan covers.
    strategy:
        The resolved strategy, ``"pre"`` or ``"post"`` (``"auto"`` never
        survives planning).
    selectivity:
        Estimated fraction of the segment's live rows the filter matches.
    allowed_rows:
        Number of live rows the filter allows in this segment.
    live_rows:
        Number of live rows in the segment (the mask length).
    indexed:
        Whether the segment is served by its per-segment index (``False``
        means a brute-force scan, where pre-filtering is always used — a
        masked scan strictly dominates scanning everything and dropping).
    """

    shard_id: int
    segment_id: int
    strategy: str
    selectivity: float
    allowed_rows: int
    live_rows: int
    indexed: bool


@dataclass(frozen=True)
class SearchPlan:
    """The resolved per-segment execution plan of one request.

    Attributes
    ----------
    strategy:
        The request-level strategy setting the planner resolved per segment
        (``"auto"``, ``"pre"`` or ``"post"``).
    overfetch_factor:
        The post-filter over-fetch multiplier in force.
    segments:
        One :class:`SegmentPlan` per live segment, in (shard, segment)
        order.
    """

    strategy: str
    overfetch_factor: float
    segments: tuple[SegmentPlan, ...] = ()

    @property
    def pre_segments(self) -> int:
        """Segments planned for pre-filter execution."""
        return sum(1 for segment in self.segments if segment.strategy == "pre")

    @property
    def post_segments(self) -> int:
        """Segments planned for post-filter execution."""
        return sum(1 for segment in self.segments if segment.strategy == "post")

    @property
    def total_allowed_rows(self) -> int:
        """Live rows the filter allows across all planned segments."""
        return sum(segment.allowed_rows for segment in self.segments)

    @property
    def mean_selectivity(self) -> float:
        """Live-row-weighted mean selectivity across planned segments."""
        live = sum(segment.live_rows for segment in self.segments)
        if live <= 0:
            return 0.0
        return self.total_allowed_rows / live


@dataclass
class FilterStats:
    """Counted filtering work of one executed (filtered) search.

    Attributes
    ----------
    rows_scanned:
        Rows whose attribute predicate was evaluated while building
        allow-masks (one per live row per planned segment).
    candidates_dropped:
        Candidates discarded because the filter rejected them (post-filter
        over-fetch waste; 0 under pure pre-filtering).
    pre_segments / post_segments:
        Segments executed under each strategy.
    selectivity:
        Live-row-weighted mean selectivity the planner estimated.
    """

    rows_scanned: int = 0
    candidates_dropped: int = 0
    pre_segments: int = 0
    post_segments: int = 0
    selectivity: float = 1.0

    @classmethod
    def from_plan(cls, plan: SearchPlan, stats: "SearchStats") -> "FilterStats":
        """Fold a resolved plan and the executed search's counters into one record."""
        return cls(
            rows_scanned=int(stats.filter_rows_scanned),
            candidates_dropped=int(stats.filter_candidates_dropped),
            pre_segments=plan.pre_segments,
            post_segments=plan.post_segments,
            selectivity=plan.mean_selectivity,
        )
