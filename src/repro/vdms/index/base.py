"""Index base class and the work-accounting records.

The cost model never times anything: it converts the *counted work* an index
reports (how many full-precision distances, how many quantized-code scores,
how many graph hops, ...) into time.  This keeps every evaluation
deterministic and independent of the host machine while preserving the
relative costs that drive the paper's trade-offs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.vdms.distance import (
    METRICS,
    ScanOperand,
    masked_topk,
    prepare_vectors,
)
from repro.vdms.errors import IndexNotBuiltError

__all__ = ["COUNTERS", "SearchStats", "BuildStats", "VectorIndex"]


#: The counters of a :class:`SearchStats` record, in field order after ``num_queries``.
COUNTERS: tuple[str, ...] = (
    "distance_evaluations",
    "coarse_evaluations",
    "code_evaluations",
    "reorder_evaluations",
    "graph_hops",
    "segments_searched",
    "filter_rows_scanned",
    "filter_candidates_dropped",
    "cache_hits",
)
_COLUMN = {name: column for column, name in enumerate(COUNTERS)}


@dataclass(init=False, eq=False)
class SearchStats:
    """Counted work performed while answering a batch of queries, per query.

    The record is ``per_query``, an int64 array with one row per query and
    one column per counter: row ``i`` is what query ``i`` cost, exactly what
    searching that query alone records, whatever batch it was answered in —
    which is what lets one batched search be split back into per-request
    records.  Work a request pays once (its mask-building scan) is charged
    to its first query.  The fields read as the batch's totals: the values
    the cost model, :class:`~repro.vdms.request.FilterStats` and
    ``dataclasses.astuple`` see.

    Attributes
    ----------
    num_queries:
        Number of queries in the batch (rows of ``per_query``).
    distance_evaluations:
        Full-precision distance computations (cost ~ vector dimension).
    coarse_evaluations:
        Distances to coarse-quantizer centroids or upper-layer graph nodes.
    code_evaluations:
        Distances evaluated on compressed codes (SQ8 / PQ lookup), cheaper
        than full-precision evaluations.
    reorder_evaluations:
        Full-precision distances spent re-ranking quantized candidates.
    graph_hops:
        Node expansions performed while traversing a proximity graph.
    segments_searched:
        Number of (segment, query) pairs visited.
    filter_rows_scanned:
        Rows whose attribute predicate was evaluated while building
        allow-masks for a filtered request (cheap integer comparisons, far
        below a distance evaluation).
    filter_candidates_dropped:
        Candidates an index scored but the filter then rejected — the
        over-fetch waste of post-filter execution.
    cache_hits:
        Queries answered from the tiered query cache
        (:mod:`repro.vdms.cache`) instead of a scatter-gather search; a
        cached query contributes no scanning counters, only this one.
    """

    num_queries: int
    distance_evaluations: int
    coarse_evaluations: int
    code_evaluations: int
    reorder_evaluations: int
    graph_hops: int
    segments_searched: int
    filter_rows_scanned: int
    filter_candidates_dropped: int
    cache_hits: int

    def __init__(self, num_queries: int = 0, **counters: Any) -> None:
        """``num_queries`` zero rows, then ``counters`` by name: what every
        query costs, or one value per query."""
        self.per_query = np.zeros((int(num_queries), len(COUNTERS)), dtype=np.int64)
        for name, amounts in counters.items():
            self.per_query[:, _COLUMN[name]] = amounts

    @classmethod
    def from_rows(cls, per_query: np.ndarray) -> "SearchStats":
        """A record owning ``per_query`` (shape ``(q, len(COUNTERS))``)."""
        stats = cls.__new__(cls)
        stats.per_query = per_query
        return stats

    def add(self, name: str, amounts: Any, queries: Any = slice(None)) -> None:
        """Charge ``amounts`` of counter ``name`` to the distinct rows ``queries``."""
        self.per_query[queries, _COLUMN[name]] += amounts

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Add another record of the same queries into this one (in place):
        the per-segment fold within one request."""
        self.per_query += other.per_query
        return self

    def accumulate(self, other: "SearchStats") -> "SearchStats":
        """Append another *request's* record to this one (in place).

        Unlike :meth:`merge` — the per-segment fold over the same queries —
        requests carry distinct queries, so the other record's rows join
        this one's and every total sums, ``num_queries`` included.
        """
        self.per_query = np.concatenate((self.per_query, other.per_query))
        return self

    def slice(self, start: int, stop: int) -> "SearchStats":
        """A record of queries ``[start:stop)`` only (copied)."""
        return SearchStats.from_rows(self.per_query[start:stop].copy())

    def total_work(self) -> int:
        """Total number of elementary scoring operations (all kinds)."""
        return (
            self.distance_evaluations
            + self.coarse_evaluations
            + self.code_evaluations
            + self.reorder_evaluations
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchStats):
            return NotImplemented
        return self.per_query.shape == other.per_query.shape and bool(
            (self.per_query == other.per_query).all()
        )


def _total(column: int) -> property:
    # A Python-int sum: a record is mostly one request's few rows, which a
    # NumPy reduction would cost several times more to add up.
    return property(lambda stats: sum(stats.per_query[:, column].tolist()))


# The fields read as totals over the rows: ``dataclasses.fields`` keeps the
# declared order, and ``astuple``/``repr`` read each field through these.
SearchStats.num_queries = property(lambda stats: len(stats.per_query))
for _column, _name in enumerate(COUNTERS):
    setattr(SearchStats, _name, _total(_column))


@dataclass
class BuildStats:
    """Counted work performed while building an index.

    Attributes
    ----------
    num_vectors:
        Number of vectors indexed.
    distance_evaluations:
        Full-precision distance computations spent during construction
        (k-means assignment steps, graph neighbour selection, ...).
    training_iterations:
        Number of optimization passes (k-means iterations, PQ codebook
        passes).
    extra:
        Free-form per-index diagnostics (number of levels, codebook sizes, ...).
    """

    num_vectors: int = 0
    distance_evaluations: int = 0
    training_iterations: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


def pad_to_top_k(
    ids: np.ndarray, distances: np.ndarray, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pad an under-full ``(q, <top_k)`` result to ``top_k`` with ``-1`` / ``inf``."""
    if ids.shape[1] < top_k:
        pad_width = top_k - ids.shape[1]
        ids = np.pad(ids, ((0, 0), (0, pad_width)), constant_values=-1)
        distances = np.pad(distances, ((0, 0), (0, pad_width)), constant_values=np.inf)
    return ids.astype(np.int64, copy=False), distances


def merge_results(
    results: Sequence[tuple[np.ndarray, np.ndarray, SearchStats]], top_k: int
) -> tuple[np.ndarray, np.ndarray, SearchStats]:
    """One ``(ids, distances, stats)`` result from several over disjoint rows.

    A single result is returned as it is; several are merged by
    :func:`~repro.vdms.sharding.merge_topk` and their counted work folded.
    """
    if len(results) == 1:
        return results[0]
    # Imported here: the sharding module imports this one.
    from repro.vdms.sharding import merge_topk

    found_ids, found_distances, parts = zip(*results)
    stats = SearchStats(parts[0].num_queries)
    for part in parts:
        stats.merge(part)
    return (*merge_topk(found_ids, found_distances, top_k), stats)


class VectorIndex(ABC):
    """Abstract base class for all ANN indexes.

    Subclasses implement :meth:`_build` and :meth:`_search`; this base class
    handles metric-specific pre-processing, id bookkeeping and the
    built/not-built lifecycle.
    """

    #: Registry name of the index type; overridden by subclasses.
    index_type: str = "BASE"

    def __init__(self, metric: str = "angular", **params: Any) -> None:
        if metric not in METRICS:
            raise ValueError(f"unsupported metric {metric!r}")
        self.metric = metric
        self.params = dict(params)
        self._ids: np.ndarray | None = None
        self._vectors: np.ndarray | None = None
        self._operand: ScanOperand | None = None
        self._build_stats: BuildStats | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._build_stats is not None

    @property
    def build_stats(self) -> BuildStats:
        """Work accounting of the last build."""
        if self._build_stats is None:
            raise IndexNotBuiltError(f"{self.index_type} index has not been built")
        return self._build_stats

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        return 0 if self._vectors is None else int(self._vectors.shape[0])

    @property
    def dimension(self) -> int:
        """Dimensionality of the indexed vectors."""
        if self._vectors is None:
            raise IndexNotBuiltError(f"{self.index_type} index has not been built")
        return int(self._vectors.shape[1])

    def build(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> BuildStats:
        """Build the index over ``vectors``.

        Parameters
        ----------
        vectors:
            Base vectors, shape ``(n, d)``.
        ids:
            External ids, shape ``(n,)``; defaults to ``0..n-1``.
        """
        vectors = prepare_vectors(vectors, self.metric)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("vectors must be a non-empty 2-D array")
        if ids is None:
            ids = np.arange(vectors.shape[0], dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != vectors.shape[0]:
            raise ValueError("ids must have one entry per vector")
        self._vectors = vectors
        self._ids = ids
        # Scan-side cast/norm cache, shared by every exact scan over the
        # stored matrix (brute/masked scans, IVF candidate scoring, graph
        # hops, quantized re-ranking).  Built eagerly: index build already
        # walks the whole matrix, so the one-off cast is amortized here
        # rather than on the first query's latency.
        self._operand = ScanOperand.prepare(vectors, self.metric).materialize()
        self._build_stats = self._build(vectors)
        self._build_stats.num_vectors = vectors.shape[0]
        return self._build_stats

    def search(
        self,
        queries: np.ndarray,
        top_k: int,
        *,
        allow_mask: np.ndarray | None = None,
        strategy: str = "pre",
        overfetch_factor: float = 2.0,
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Search the index, optionally restricted to an allowed-row mask.

        Parameters
        ----------
        queries:
            Query vectors, shape ``(q, d)``.
        top_k:
            Result width; rows are padded with ``-1`` ids / ``inf``
            distances when fewer (allowed) results exist.
        allow_mask:
            Optional boolean mask over the index's stored positions
            (``True`` = the row may be served).  ``None`` searches
            unfiltered.
        strategy:
            Filter-execution strategy for a masked search: ``"pre"``
            applies the mask before scoring (masked exact scan by default;
            IVF-family indexes generate filtered candidates instead),
            ``"post"`` over-fetches ``ceil(top_k * overfetch_factor)``
            unfiltered candidates, drops the rejected ones and refills with
            doubled fetch widths until ``top_k`` allowed rows are found or
            the index is exhausted.
        overfetch_factor:
            Initial over-fetch multiplier of the ``"post"`` strategy.

        Returns ``(ids, distances, stats)`` where ``ids`` has shape
        ``(q, top_k)`` and ``stats`` holds one row per query: each query's
        counted work is what it costs searched alone.
        """
        queries, top_k = self._checked_request(queries, top_k)
        if allow_mask is None:
            positions, distances, stats = self._search(queries, min(top_k, self.size))
        else:
            allow_mask = self._checked_mask(allow_mask)
            if strategy not in ("pre", "post"):
                raise ValueError(f"strategy must be 'pre' or 'post', got {strategy!r}")
            if not allow_mask.any():
                positions = np.full((queries.shape[0], top_k), -1, dtype=np.int64)
                distances = np.full((queries.shape[0], top_k), np.inf)
                stats = SearchStats(queries.shape[0], segments_searched=1)
            elif strategy == "pre":
                positions, distances, stats = self._search_filtered(queries, top_k, allow_mask)
            else:
                positions, distances, stats = self._search_postfiltered(
                    queries, top_k, allow_mask, overfetch_factor
                )
        return self._answer(positions, distances, stats, top_k)

    def _answer(
        self, positions: np.ndarray, distances: np.ndarray, stats: SearchStats, top_k: int
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """:meth:`search`'s result from stored ``positions`` (``-1`` for
        none): their ids, padded to ``top_k``."""
        ids = np.where(positions >= 0, self._ids[np.clip(positions, 0, self.size - 1)], -1)
        return (*pad_to_top_k(ids, distances, top_k), stats)

    def _checked_request(self, queries: np.ndarray, top_k: int) -> tuple[np.ndarray, int]:
        """Validate a search against this index; returns prepared queries and ``top_k``."""
        if not self.is_built:
            raise IndexNotBuiltError(f"{self.index_type} index has not been built")
        queries = prepare_vectors(queries, self.metric)
        if queries.ndim != 2:
            raise ValueError("queries must be a 2-D array")
        if queries.shape[1] != self.dimension:
            raise ValueError("query dimension does not match the index")
        top_k = int(top_k)
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        return queries, top_k

    def _checked_mask(self, allow_mask: np.ndarray) -> np.ndarray:
        """``allow_mask`` as the boolean mask over every stored row a search reads."""
        allow_mask = np.asarray(allow_mask, dtype=bool)
        if allow_mask.shape != (self.size,):
            raise ValueError(
                f"allow_mask must cover every stored row (expected shape "
                f"({self.size},), got {allow_mask.shape})"
            )
        return allow_mask

    # -- runs: a shard's segments of one index type, answered together ----------

    @classmethod
    def search_run(
        cls,
        run: Sequence["VectorIndex"],
        queries: np.ndarray,
        top_k: int,
        options: Sequence[Mapping[str, Any]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Top-k over a *run* of indexes: one shard's segments of one index type.

        ``queries`` are raw rows; ``options`` holds one :meth:`search` keyword
        dict per member (``allow_mask``, ``strategy``, ``overfetch_factor``),
        ``None`` searches unfiltered.  Returns ``(ids, distances, stats)``
        like :meth:`search`, over all the run's rows.  Here each member is
        searched and the lists merged (a run of one is its member's search);
        an index type with a fused form overrides this and hands back here
        whatever it does not fuse.

        A fused form must be bit-identical to this.  Per-pair distances do
        not depend on how rows are batched (the kernel's determinism
        contract), so when a query's ``top_k`` smallest distances over the run
        form a unique set, every member's top-k contains its share of that
        set and the (distance, id) merge returns exactly it — what one select
        over the whole run returns.  When the boundary is tied (duplicate
        vectors, zero-snapped pairs) or not a number, each member keeps tied
        rows by its own stored position before the merge compares ids, which
        one select over the whole run cannot reproduce; a fused form re-runs
        those queries alone through this method, from the raw rows
        (:meth:`search` prepares them itself; preparing them twice would move
        ``angular`` bits).  The counted work stays the fused form's.
        """
        if options is None:
            options = [{}] * len(run)
        return merge_results(
            [index.search(queries, top_k, **option) for index, option in zip(run, options)], top_k
        )

    # -- filtered execution ------------------------------------------------------

    def _search_filtered(
        self, queries: np.ndarray, top_k: int, allow_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Pre-filter execution: a masked exact scan over the allowed rows.

        Delegates to :func:`repro.vdms.distance.masked_topk`: below the
        selectivity crossover
        (:data:`~repro.vdms.distance.MASK_DENSE_SCAN_SELECTIVITY`, which the
        scan checks on the mask itself) the allowed rows are gathered before
        the GEMM, above it the scan goes dense over the cached operand
        (bit-identical either way).  Charged work is one full-precision distance per
        (query, allowed row) in both modes — the dense mode's extra scored
        rows are an implementation detail of the same logical masked scan,
        not extra logical work, so counted-work accounting stays independent
        of the crossover.  Index types whose candidate generation can be
        filtered directly (the IVF family) override this with a cheaper
        filtered candidate scan.
        """
        positions, ordered = masked_topk(queries, self._operand, allow_mask, top_k, self.metric)
        stats = SearchStats(
            queries.shape[0], distance_evaluations=np.count_nonzero(allow_mask), segments_searched=1
        )
        return positions, ordered, stats

    def _search_postfiltered(
        self, queries: np.ndarray, top_k: int, allow_mask: np.ndarray, overfetch_factor: float
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Post-filter execution: over-fetch, drop rejected rows, refill.

        Each pass fetches ``fetch`` unfiltered candidates for the still
        incomplete queries, keeps the allowed ones and doubles ``fetch``
        for the next pass; a query completes when it has ``top_k`` allowed
        rows or a pass has fetched the whole index.  All the work of every
        pass is charged — the refill waste is exactly what makes
        post-filtering expensive at low selectivity.  A query is charged the
        passes it took part in, which are the passes it takes alone.
        """
        num_queries = int(queries.shape[0])
        stats = SearchStats(num_queries)
        fetch = min(
            self.size, max(top_k, int(np.ceil(top_k * max(1.0, float(overfetch_factor)))))
        )
        out_positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        out_distances = np.full((num_queries, top_k), np.inf)
        pending = np.arange(num_queries)
        while pending.size:
            positions, distances, pass_stats = self._search(queries[pending], fetch)
            stats.per_query[pending] += pass_stats.per_query
            valid = positions >= 0
            allowed = valid & allow_mask[np.clip(positions, 0, self.size - 1)]
            stats.add("filter_candidates_dropped", (valid & ~allowed).sum(axis=1), pending)
            exhausted = fetch >= self.size
            still_pending: list[int] = []
            for row, query_index in enumerate(pending):
                found = np.flatnonzero(allowed[row])[:top_k]
                if found.size >= top_k or exhausted:
                    out_positions[query_index, : found.size] = positions[row, found]
                    out_distances[query_index, : found.size] = distances[row, found]
                else:
                    still_pending.append(int(query_index))
            if exhausted:
                break
            pending = np.asarray(still_pending, dtype=np.int64)
            fetch = min(self.size, fetch * 2)
        return out_positions, out_distances, stats

    # -- search-time parameters -------------------------------------------------

    #: Parameters that can change between searches without rebuilding.
    SEARCH_TIME_PARAMETERS: tuple[str, ...] = ("nprobe", "ef_search", "reorder_k")

    @classmethod
    def checked_search_params(cls, **params: Any) -> dict[str, int]:
        """The search-time parameters among ``params`` as ints; each is a
        count, so ``>= 1``.  Constructors and ``set_search_params`` validate here."""
        checked = {k: int(v) for k, v in params.items() if k in cls.SEARCH_TIME_PARAMETERS}
        for name, value in checked.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        return checked

    def set_search_params(self, **params: Any) -> None:
        """Update search-time parameters (``nprobe``, ``ef_search``, ``reorder_k``).

        Only parameters the concrete index type actually exposes are applied;
        the rest are ignored, matching the holistic-configuration semantics.
        Build-time (structural) parameters cannot be changed this way.  Every
        value is validated before any is applied (``ValueError`` below 1), so
        a rejected call changes nothing.
        """
        for name, value in self.checked_search_params(**params).items():
            if hasattr(self, name):
                setattr(self, name, value)
                self.params[name] = value

    # -- memory accounting ----------------------------------------------------

    def memory_bytes(self) -> int:
        """Bytes of memory the index structure occupies (excluding raw vectors)."""
        return 0

    # -- hooks for subclasses -------------------------------------------------

    @abstractmethod
    def _build(self, vectors: np.ndarray) -> BuildStats:
        """Build the internal structure over pre-processed ``vectors``."""

    @abstractmethod
    def _search(
        self, queries: np.ndarray, top_k: int
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Search pre-processed ``queries``; return positions, distances, stats."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "built" if self.is_built else "empty"
        return f"{type(self).__name__}(metric={self.metric!r}, {state}, size={self.size})"
