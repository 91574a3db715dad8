"""IVF_FLAT: inverted-file index with exact in-list scoring.

Build time: a k-means coarse quantizer with ``nlist`` centroids partitions
the vectors into inverted lists.  Query time: the ``nprobe`` nearest lists
are scanned exhaustively with full-precision distances.

The lists are one cluster-major array of stored positions, a probe yields the
candidates of the whole batch as one flat array, and they are scored a *tile*
of consecutive whole queries at a time, so a segment search pays its gather,
its finish and its select per tile, not per query.  This class drives the
tiles for the whole family; a subclass supplies how a tile is scored.  A
shard's IVF_FLAT segments are also searched as one *run*
(:meth:`IVFFlatIndex.search_run`, this type's override of the protocol every
index type answers a shard through): a tile then unites every segment's
candidates of its queries under one finish and one select.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.vdms.distance import (
    DEFAULT_QUERY_BLOCK,
    DEFAULT_ROW_BLOCK,
    QueryOperand,
    ScanOperand,
    nonempty_spans,
)
from repro.vdms.index.base import BuildStats, SearchStats, VectorIndex, merge_results
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


def _whole_query_tiles(spans: list[int], max_rows: int, max_queries: int) -> Iterator[tuple[int, int]]:
    """Consecutive tiles ``(first, stop)`` of whole queries, query ``i`` owning
    candidates ``spans[i]:spans[i + 1]``: as many as fit ``max_rows``
    candidates — at least one, at most ``max_queries``."""
    first = 0
    while first < len(spans) - 1:
        fit = bisect_right(spans, spans[first] + max_rows, first) - 1
        stop = min(max(first + 1, fit), first + max_queries)
        yield first, stop
        first = stop


def _score_run_tile(
    query_side: QueryOperand,
    first: int,
    run: Sequence["IVFFlatIndex"],
    offsets: Sequence[int],
    lists: Sequence[tuple[np.ndarray, np.ndarray]],
    tile_bounds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One tile of a fused run: every index's candidates of queries ``first, first + 1, …``.

    ``lists[j]`` is index ``j``'s ``(candidates, bounds)`` for the block and
    ``tile_bounds[j]`` the slice of its bounds the tile covers.  Returns
    ``(scores, rows, cuts)`` for the select: query ``first + i`` owns
    ``[cuts[i]:cuts[i + 1]]``, its candidates from index 0, then index 1, …,
    ``rows`` holding run positions.  An index's rows are gathered at most
    ``DEFAULT_ROW_BLOCK`` at a time (more only for one query that has more)
    and each (index, query) product is the GEMV that index's own search
    issues, so the float64 products are its bit for bit.
    """
    counts = np.diff(tile_bounds, axis=1)
    per_query = counts.sum(axis=0)
    cuts = np.concatenate(([0], np.cumsum(per_query)))
    # Index j's candidates of query i begin after query i's from the indexes before j.
    starts = cuts[:-1] + np.cumsum(counts, axis=0) - counts
    products = np.empty((1, cuts[-1]), dtype=np.float64)
    rows = np.empty(cuts[-1], dtype=np.int64)
    vector_norms = None if query_side.norms64 is None else np.empty(cuts[-1])
    owners = range(first, first + counts.shape[1])
    for index, offset, (candidates, _), index_bounds, index_counts, index_starts in zip(
        run, offsets, lists, tile_bounds, counts, starts
    ):
        begin, end = index_bounds[0], index_bounds[-1]
        if begin == end:
            continue
        positions = candidates[begin:end]
        # Each query's slice of ``positions`` moves to its place in the tile.
        place = np.repeat(index_starts - (index_bounds[:-1] - begin), index_counts)
        place += np.arange(end - begin)
        rows[place] = positions + offset
        if vector_norms is not None:
            vector_norms[place] = index._operand.norms64[positions]
        spans = (index_bounds - begin).tolist()
        query_counts, query_starts = index_counts.tolist(), index_starts.tolist()
        for low, high in _whole_query_tiles(spans, DEFAULT_ROW_BLOCK, len(query_counts)):
            query_side.gather_products(
                owners[low:high], query_counts[low:high], index._operand,
                positions[spans[low] : spans[high]], products, query_starts[low:high],
            )
    return query_side.finish_runs(products, owners, per_query, vector_norms), rows, cuts


def _settled(scores: np.ndarray, cuts: np.ndarray, distances: np.ndarray, top_k: int) -> np.ndarray:
    """Per query of a tile, whether its selection is a unique set: exactly
    ``min(top_k, candidates)`` of its scores lie at or below the last distance
    selected (a NaN boundary counts none)."""
    counts = np.diff(cuts)
    keep = np.minimum(counts, top_k)
    last = distances[np.arange(counts.shape[0]), np.maximum(keep, 1) - 1]
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    return np.bincount(owner[scores <= last[owner]], minlength=counts.shape[0]) == keep


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

    def _probe(self, query_side: QueryOperand) -> np.ndarray:
        """The lists each query of the batch probes: ``(q, nprobe)`` list ids.

        One coarse scan of the whole batch against the centroids, charged as
        ``q × nlist`` coarse evaluations by the caller.
        """
        coarse = query_side.scan(self._centroid_operand)
        nprobe = max(1, min(self.nprobe, coarse.shape[1]))
        return np.argpartition(coarse, nprobe - 1, axis=1)[:, :nprobe]

    def _probed_candidates(
        self, probed: np.ndarray, allow_mask: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The candidate positions of ``probed``'s lists (a :meth:`_probe` result), flat.

        Returns ``(candidates, bounds)``: row ``i`` of ``probed`` owns
        ``candidates[bounds[i]:bounds[i + 1]]``, in probe order and ascending
        position within a list; with an ``allow_mask``, the allowed ones only.
        """
        nprobe = probed.shape[1]
        probed = probed.ravel()
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
        return candidates, bounds

    def _search(
        self, queries: np.ndarray, top_k: int, allow_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Probe, then score the candidates a tile of whole queries at a time."""
        num_queries = queries.shape[0]
        query_side = QueryOperand(queries, self.metric)
        candidates, bounds = self._probed_candidates(self._probe(query_side), allow_mask)
        stats = SearchStats(coarse_evaluations=num_queries * self._centroid_operand.shape[0])
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        score_tile = self._tile_scorer(queries, query_side, stats)
        spans = bounds.tolist()
        # The blocked kernel's two bounds: a tile's scratch stays within the
        # kernel's for any batch.
        for first, stop in _whole_query_tiles(spans, DEFAULT_ROW_BLOCK, DEFAULT_QUERY_BLOCK):
            if spans[stop] > spans[first]:
                scores, rows, cuts = score_tile(
                    first, bounds[first : stop + 1] - spans[first], candidates[spans[first] : spans[stop]]
                )
                self._select(scores, rows, cuts, top_k, positions[first:stop], distances[first:stop])
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
        self, queries: np.ndarray, top_k: int, allow_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Pre-filter via filtered candidate generation.

        The probed inverted lists are intersected with the allow-mask
        *before* scoring, so only allowed rows are ever scored — the
        IVF-family advantage over the base class's masked exact scan: the
        coarse quantizer still prunes the search to ``nprobe`` lists.
        """
        return self._search(queries, top_k, allow_mask)

    # -- runs: a shard's IVF_FLAT segments answered as one --------------------

    @classmethod
    def search_run(
        cls,
        run: Sequence[VectorIndex],
        queries: np.ndarray,
        top_k: int,
        options: Sequence[Mapping[str, Any]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """The run's unfiltered and allowing pre-filtered members as one candidate list.

        See :meth:`VectorIndex.search_run`.  Only a run of exact
        :class:`IVFFlatIndex` members is fused: the quantized subclasses'
        products and selects depend on the arrays they are handed (see
        :func:`partition_select`), so they inherit this method and go to the
        base.  Of an IVF_FLAT run, the members searched unfiltered or ``pre``
        with a mask allowing some row are fused by :meth:`_fuse` when there
        are at least two of them.  A member planned ``post`` goes to the base,
        and so does an all-false one: its padding is float64 ``inf``, which
        sets the merge dtype.  The two lists are merged.
        """
        if options is None:
            options = [{}] * len(run)
        fusable = [
            option.get("allow_mask") is None
            or (option.get("strategy", "pre") == "pre" and option["allow_mask"].any())
            for option in options
        ]
        if cls is not IVFFlatIndex or sum(fusable) < 2:
            return super().search_run(run, queries, top_k, options)
        fused = [number for number, fuse in enumerate(fusable) if fuse]
        rest = [number for number, fuse in enumerate(fusable) if not fuse]
        results = [cls._fuse([run[n] for n in fused], queries, top_k, [options[n] for n in fused])]
        if rest:
            rest_run, rest_options = [run[n] for n in rest], [options[n] for n in rest]
            results.append(super().search_run(rest_run, queries, top_k, rest_options))
        return merge_results(results, top_k)

    @staticmethod
    def _fuse(
        run: Sequence["IVFFlatIndex"],
        queries: np.ndarray,
        top_k: int,
        options: Sequence[Mapping[str, Any]],
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Top-k over a run of IVF_FLAT indexes of one metric, as one candidate list.

        ``options`` carry each index's allow-mask (``None`` unfiltered).  The
        queries are prepared once and each index probes the whole batch with
        its own ``nprobe`` — the coarse scan its own search makes.  Then, per
        block of ``DEFAULT_QUERY_BLOCK`` queries, each index lists its
        candidates, and a tile of whole queries (at least one, at most
        ``4 × DEFAULT_ROW_BLOCK`` candidates over the run) is scored as one
        union: one finish and one select in (distance, run position) order,
        the run position being an index's offset in the run plus the stored
        position.  ``stats`` charges exactly what searching each index would
        have.  A query whose boundary distance is tied or not a number (see
        :func:`~repro.vdms.distance.scan_topk`) is re-run through the base
        :meth:`VectorIndex.search_run`.
        """
        prepared, top_k = run[0]._checked_request(queries, top_k)
        num_queries = int(prepared.shape[0])
        query_side = QueryOperand(prepared, run[0].metric)
        masks = [option.get("allow_mask") for option in options]
        # Copied: a probe is a view of the whole (q, nlist) partition.
        probes = [np.ascontiguousarray(index._probe(query_side)) for index in run]
        offsets = np.cumsum([0] + [index.size for index in run])[:-1].tolist()
        stats = SearchStats(
            num_queries=num_queries,
            coarse_evaluations=num_queries * sum(index._centroid_operand.shape[0] for index in run),
            segments_searched=num_queries * len(run),
        )
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        settled = np.ones(num_queries, dtype=bool)
        for block in range(0, num_queries, DEFAULT_QUERY_BLOCK):
            lists = [
                index._probed_candidates(probed[block : block + DEFAULT_QUERY_BLOCK], mask)
                for index, probed, mask in zip(run, probes, masks)
            ]
            bounds = np.stack([list_bounds for _, list_bounds in lists])
            # Each index's bounds count from 0, so their sum is the union's.
            spans = bounds.sum(axis=0).tolist()
            for first, stop in _whole_query_tiles(spans, 4 * DEFAULT_ROW_BLOCK, DEFAULT_QUERY_BLOCK):
                if spans[stop] > spans[first]:
                    tile = slice(block + first, block + stop)
                    scores, rows, cuts = _score_run_tile(
                        query_side, tile.start, run, offsets, lists, bounds[:, first : stop + 1]
                    )
                    stats.distance_evaluations += rows.shape[0]
                    lexicographic_select(scores, rows, cuts, top_k, positions[tile], distances[tile])
                    settled[tile] = _settled(scores, cuts, distances[tile], top_k)
        ids = np.concatenate([index._ids for index in run])[positions]
        ids[positions < 0] = -1
        unsettled = np.flatnonzero(~settled)
        if unsettled.size:
            ids[unsettled], distances[unsettled], _ = VectorIndex.search_run(
                run, queries[unsettled], top_k, options
            )
        return ids, distances, stats

    def memory_bytes(self) -> int:
        if self._centroids is None:
            return 0
        centroid_bytes = self._centroids.size * 4
        list_bytes = self._list_order.size * 8
        return int(centroid_bytes + list_bytes)
