"""IVF_FLAT: inverted-file index with exact in-list scoring.

Build time: a k-means coarse quantizer with ``nlist`` centroids partitions
the vectors into inverted lists.  Query time: the ``nprobe`` nearest lists
are scanned exhaustively with full-precision distances.

The lists are one cluster-major array of stored positions, a probe yields the
candidates of the whole batch as one flat array, and they are scored a *tile*
of consecutive whole queries at a time, so a segment search pays its gather,
its finish and its select per tile, not per query.  This class drives the
tiles for the whole family; a subclass supplies how a tile is scored.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

import numpy as np

from repro.vdms.distance import (
    DEFAULT_QUERY_BLOCK,
    DEFAULT_ROW_BLOCK,
    QueryOperand,
    ScanOperand,
    nonempty_spans,
)
from repro.vdms.index.base import BuildStats, SearchStats, VectorIndex
from repro.vdms.index.kmeans import kmeans

__all__ = ["IVFFlatIndex"]

#: ``score_tile(first, bounds, rows) -> (scores, rows, bounds)``, see
#: :meth:`IVFFlatIndex._tile_scorer`.
TileScorer = Callable[[int, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def lexicographic_select(
    scores: np.ndarray, rows: np.ndarray, bounds: np.ndarray, top_k: int,
    positions: np.ndarray, distances: np.ndarray,
) -> None:
    """A tile's best ``top_k`` per query, in (distance, stored position) order.

    Query ``i`` of the tile owns ``scores[bounds[i]:bounds[i + 1]]`` and row
    ``i`` of the outputs.  Candidates arrive in probe (cluster-major) order,
    so a plain partition would break distance ties arbitrarily and duplicate
    vectors would diverge from the stable exact scan.  This returns what
    ``np.lexsort((rows, scores))[:top_k]`` returns per query, but sorts only
    the candidates at or below their query's k-th distance; NaN distances
    order last, as ``lexsort`` orders them.
    """
    if bounds.shape[0] == 2:
        # One query (a served request): nothing is ragged, no bookkeeping.
        if rows.shape[0] > top_k:
            survivors = ~(scores > np.partition(scores, top_k - 1)[top_k - 1])
            scores, rows = scores[survivors], rows[survivors]
        order = np.lexsort((rows, scores))[:top_k]
        positions[0, : order.shape[0]] = rows[order]
        distances[0, : order.shape[0]] = scores[order]
        return
    counts = np.diff(bounds)
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    if counts.max() > top_k:
        # One partition of the tile, padded with NaN, gives every k-th value.
        padded = np.full((counts.shape[0], counts.max()), np.nan, dtype=np.float32)
        padded[np.arange(padded.shape[1]) < counts[:, None]] = scores
        kth = np.partition(padded, top_k - 1, axis=1)[:, top_k - 1]
        survivors = ~(scores > kth[owner])
        scores, rows, owner = scores[survivors], rows[survivors], owner[survivors]
    # ``owner`` ascends, so it is its own sorted order: slot p of the sorted
    # tile belongs to query owner[p], at rank p - (that query's first slot).
    order = np.lexsort((rows, scores, owner))
    rank = np.arange(order.shape[0]) - np.searchsorted(owner, owner)
    best = rank < top_k
    order, owner, rank = order[best], owner[best], rank[best]
    positions[owner, rank] = rows[order]
    distances[owner, rank] = scores[order]


def partition_select(
    scores: np.ndarray, rows: np.ndarray, bounds: np.ndarray, top_k: int,
    positions: np.ndarray, distances: np.ndarray,
) -> None:
    """The quantized types' select: an unstable partition, then a sort of it.

    Which of several tied candidates it keeps depends on the array it is
    handed, so it stays one call per query, on that query's slice of the tile.
    """
    for query, start, stop in nonempty_spans(0, bounds):
        found = scores[start:stop]
        keep = min(top_k, found.size)
        order = np.argpartition(found, keep - 1)[:keep] if keep < found.size else np.arange(keep)
        order = order[np.argsort(found[order])]
        positions[query, :keep] = rows[start:stop][order]
        distances[query, :keep] = found[order]


class IVFFlatIndex(VectorIndex):
    """Inverted-file index scanning probed lists at full precision."""

    index_type = "IVF_FLAT"
    #: How a tile's scores become its queries' top-k.
    _select = staticmethod(lexicographic_select)

    def __init__(self, metric: str = "angular", *, nlist: int = 128, nprobe: int = 16, seed: int = 0, **params) -> None:
        super().__init__(metric=metric, nlist=nlist, nprobe=nprobe, **params)
        self.nlist = int(nlist)
        self.seed = int(seed)
        if self.nlist < 1:
            raise ValueError("nlist must be >= 1")
        self.nprobe = self.checked_search_params(nprobe=nprobe)["nprobe"]
        self._centroids: np.ndarray | None = None
        self._centroid_operand: ScanOperand | None = None
        #: Stored positions in (list, ascending position) order, each list's
        #: length, and where each list ends in the order array.
        self._list_order: np.ndarray | None = None
        self._list_sizes: np.ndarray | None = None
        self._list_ends: np.ndarray | None = None

    # -- build ----------------------------------------------------------------

    def _build(self, vectors: np.ndarray) -> BuildStats:
        effective_nlist = max(1, min(self.nlist, vectors.shape[0]))
        clustering = kmeans(vectors, effective_nlist, seed=self.seed)
        self._centroids = clustering.centroids
        self._centroid_operand = ScanOperand.prepare(self._centroids, self.metric).materialize()
        nlist = clustering.centroids.shape[0]
        self._list_order = np.argsort(clustering.assignments, kind="stable").astype(np.int64)
        self._list_sizes = np.bincount(clustering.assignments, minlength=nlist).astype(np.int64)
        self._list_ends = np.cumsum(self._list_sizes)
        return BuildStats(
            distance_evaluations=clustering.distance_evaluations,
            training_iterations=clustering.iterations,
            extra={"nlist": nlist, "inertia": clustering.inertia},
        )

    # -- search ---------------------------------------------------------------

    def _probed_candidates(
        self, query_side: QueryOperand, allow_mask: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """The batch's candidate positions from the probed lists, flat.

        Returns ``(candidates, bounds, stats)``: query ``i`` owns
        ``candidates[bounds[i]:bounds[i + 1]]``, in probe order and ascending
        position within a list; with an ``allow_mask``, the allowed ones only.
        """
        coarse = query_side.scan(self._centroid_operand)
        num_queries, nlist = coarse.shape
        nprobe = max(1, min(self.nprobe, nlist))
        probed = np.argpartition(coarse, nprobe - 1, axis=1)[:, :nprobe].ravel()
        stats = SearchStats(coarse_evaluations=num_queries * nlist)
        sizes = self._list_sizes[probed]
        ends = np.cumsum(sizes)
        bounds = np.concatenate(([0], ends[nprobe - 1 :: nprobe]))
        # Ragged arange: the probed lists laid end to end, list r's last slot
        # (ends[r] - 1) reading the order array at its own last slot.
        shift = np.repeat(self._list_ends[probed] - ends, sizes)
        candidates = self._list_order[np.arange(bounds[-1]) + shift]
        if allow_mask is not None:
            allowed = allow_mask[candidates]
            candidates = candidates[allowed]
            bounds = np.concatenate(([0], np.cumsum(allowed)))[bounds]
        return candidates, bounds, stats

    def _search(
        self, queries: np.ndarray, top_k: int, allow_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Probe, then score the candidates a tile of whole queries at a time."""
        num_queries = queries.shape[0]
        query_side = QueryOperand(queries, self.metric)
        candidates, bounds, stats = self._probed_candidates(query_side, allow_mask)
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        score_tile = self._tile_scorer(queries, query_side, stats)
        spans = bounds.tolist()
        first = 0
        while first < num_queries:
            # As many whole queries as fit DEFAULT_ROW_BLOCK candidate rows —
            # at least one, at most DEFAULT_QUERY_BLOCK — so a tile's scratch
            # stays within the blocked kernel's bound for any batch.
            fit = bisect_right(spans, spans[first] + DEFAULT_ROW_BLOCK, first) - 1
            stop = min(max(first + 1, fit), first + DEFAULT_QUERY_BLOCK)
            if spans[stop] > spans[first]:
                scores, rows, cuts = score_tile(
                    first, bounds[first : stop + 1] - spans[first], candidates[spans[first] : spans[stop]]
                )
                self._select(scores, rows, cuts, top_k, positions[first:stop], distances[first:stop])
            first = stop
        stats.segments_searched = num_queries
        return positions, distances, stats

    def _tile_scorer(
        self, queries: np.ndarray, query_side: QueryOperand, stats: SearchStats
    ) -> TileScorer:
        """The family's hook: how one batch's tiles are scored.

        The returned ``score_tile(first, bounds, rows)`` scores the candidates
        ``rows`` of consecutive queries — query ``first + i`` owns
        ``rows[bounds[i]:bounds[i + 1]]`` —, charges the work to ``stats`` and
        returns ``(scores, rows, bounds)`` for ``_select``: its own arguments,
        or a shortlist of them.  Here: full-precision distances.
        """

        def score_tile(first: int, bounds: np.ndarray, rows: np.ndarray):
            stats.distance_evaluations += rows.shape[0]
            owners, counts = range(first, first + bounds.shape[0] - 1), np.diff(bounds).tolist()
            return query_side.gather_scan_runs(owners, counts, self._operand, rows), rows, bounds

        return score_tile

    def _search_filtered(
        self, queries: np.ndarray, top_k: int, allow_mask: np.ndarray, scan_mode: str | None = None
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Pre-filter via filtered candidate generation.

        The probed inverted lists are intersected with the allow-mask
        *before* scoring, so only allowed rows are ever scored — the
        IVF-family advantage over the base class's masked exact scan: the
        coarse quantizer still prunes the search to ``nprobe`` lists.
        """
        return self._search(queries, top_k, allow_mask)

    def memory_bytes(self) -> int:
        if self._centroids is None:
            return 0
        centroid_bytes = self._centroids.size * 4
        list_bytes = self._list_order.size * 8
        return int(centroid_bytes + list_bytes)
