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
from itertools import groupby
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


def _probe(run: Sequence["IVFFlatIndex"], query_side: QueryOperand) -> list[np.ndarray]:
    """The lists each query of the batch probes in each index of ``run``.

    One coarse scan of the whole batch against every index's centroids —
    each index's GEMM the one its own search makes, one finish for all —,
    then one ``argpartition`` per stretch of consecutive indexes sharing
    ``nlist`` and ``nprobe``.  It partitions each index's row of coarse
    distances on its own, so every index probes the lists its own search
    picks.  Returns one ``(indexes, q, nprobe)`` array per stretch, list ids
    shifted past the lists of the indexes before (*run* list ids).  The
    caller charges ``q × Σ nlist`` coarse evaluations.
    """
    operands = [index._centroid_operand for index in run]
    coarse = query_side.scan(operands)
    shapes = [
        (operand.shape[0], max(1, min(index.nprobe, operand.shape[0])))
        for index, operand in zip(run, operands)
    ]
    probes, start = [], 0
    for (nlist, nprobe), stretch in groupby(shapes):
        members = len(list(stretch))
        stop = start + nlist * members
        lists = coarse[:, start:stop].reshape(coarse.shape[0], members, nlist)
        probed = np.argpartition(lists, nprobe - 1, axis=2)[:, :, :nprobe]
        probes.append(probed.transpose(1, 0, 2) + np.arange(start, stop, nlist)[:, None, None])
        start = stop
    return probes


def _probed_candidates(
    run: Sequence["IVFFlatIndex"], probes: Sequence[np.ndarray], masks: Sequence[np.ndarray | None]
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of ``probes`` (a :func:`_probe` result), flat.

    Returns ``(rows, bounds)``: with ``q`` queries, the pair of index ``j``
    and query ``i`` owns ``rows[bounds[j * q + i]:bounds[j * q + i + 1]]``,
    in probe order and ascending position within a list, ``rows`` holding
    run positions (the index's offset in the run plus the stored position).
    ``masks[j]`` is index ``j``'s boolean allow-mask; with one, only its
    allowed rows are listed.  The run's lists are laid end to end for the
    call; nothing is kept.
    """
    index_sizes = [index.size for index in run]
    list_sizes = np.concatenate([index._list_sizes for index in run])
    order = np.concatenate([index._list_order for index in run])
    order += np.repeat(np.cumsum([0] + index_sizes[:-1]), index_sizes)
    allow = None
    if any(mask is not None for mask in masks):
        allow = np.concatenate(
            [np.ones(size, bool) if mask is None else mask for size, mask in zip(index_sizes, masks)]
        )
    lists = np.concatenate([probed.ravel() for probed in probes])
    sizes = list_sizes[lists]
    ends = np.cumsum(sizes)
    # Where each (index, query) pair's last probed list ends.
    nprobes = [probed.shape[2] for probed in probes]
    pairs = [probed.shape[0] * probed.shape[1] for probed in probes]
    bounds = np.concatenate(([0], ends[np.cumsum(np.repeat(nprobes, pairs)) - 1]))
    # Ragged arange: the probed lists laid end to end, list r's last slot
    # (ends[r] - 1) reading the order array at its own last slot (an index's
    # lists cover its rows, so the run's lists end where the sizes sum up).
    shift = np.repeat(np.cumsum(list_sizes)[lists] - ends, sizes)
    rows = order[np.arange(bounds[-1]) + shift]
    if allow is not None:
        allowed = allow[rows]
        rows = rows[allowed]
        bounds = np.concatenate(([0], np.cumsum(allowed)))[bounds]
    return rows, bounds


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
        #: Stored positions in (list, ascending position) order, and each
        #: list's length.
        self._list_order: np.ndarray | None = None
        self._list_sizes: np.ndarray | None = None

    # -- build ----------------------------------------------------------------

    def _build(self, vectors: np.ndarray) -> BuildStats:
        effective_nlist = max(1, min(self.nlist, vectors.shape[0]))
        clustering = kmeans(vectors, effective_nlist, seed=self.seed)
        self._centroids = clustering.centroids
        self._centroid_operand = ScanOperand.prepare(self._centroids, self.metric).materialize()
        nlist = clustering.centroids.shape[0]
        self._list_order = np.argsort(clustering.assignments, kind="stable").astype(np.int64)
        self._list_sizes = np.bincount(clustering.assignments, minlength=nlist).astype(np.int64)
        return BuildStats(
            distance_evaluations=clustering.distance_evaluations,
            training_iterations=clustering.iterations,
            extra={"nlist": nlist, "inertia": clustering.inertia},
        )

    # -- search ---------------------------------------------------------------

    def _search(
        self, queries: np.ndarray, top_k: int, allow_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Probe, then score the candidates a tile of whole queries at a time."""
        num_queries = queries.shape[0]
        query_side = QueryOperand(queries, self.metric)
        candidates, bounds = _probed_candidates([self], _probe([self], query_side), [allow_mask])
        stats = SearchStats(
            num_queries, coarse_evaluations=self._centroid_operand.shape[0], segments_searched=1
        )
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
        return positions, distances, stats

    def _tile_scorer(
        self, queries: np.ndarray, query_side: QueryOperand, stats: SearchStats
    ) -> TileScorer:
        """The family's hook: how one batch's tiles are scored.

        The returned ``score_tile(first, bounds, rows)`` scores the candidates
        ``rows`` of consecutive queries — query ``first + i`` owns
        ``rows[bounds[i]:bounds[i + 1]]`` —, charges each query's work to its
        row of ``stats`` and returns ``(scores, rows, bounds)`` for ``_select``: its own arguments,
        or a shortlist of them.  Here: full-precision distances.
        """

        def score_tile(first: int, bounds: np.ndarray, rows: np.ndarray):
            counts = np.diff(bounds)
            stats.add("distance_evaluations", counts, slice(first, first + counts.shape[0]))
            owners = range(first, first + counts.shape[0])
            return query_side.gather_scan_runs(owners, counts.tolist(), self._operand, rows), rows, bounds

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
        # Coerced and checked as each member's own search would, once, here:
        # the fused form reads the masks directly.
        options = [
            option if option.get("allow_mask") is None
            else {**option, "allow_mask": index._checked_mask(option["allow_mask"])}
            for index, option in zip(run, options)
        ]
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

        ``options`` carry each index's boolean allow-mask (``None``
        unfiltered).  The queries are prepared once and probed once
        (:func:`_probe`).  Then, per block of ``DEFAULT_QUERY_BLOCK``
        queries, one listing gives every index's candidates of every query
        (:func:`_probed_candidates`, index-major) and one permutation lays
        them out query-major: query ``i``'s candidates from index 0, then
        index 1, …, the rows as run positions (an index's offset in the run
        plus the stored position).  A tile of whole queries (at least one,
        at most ``4 × DEFAULT_ROW_BLOCK`` candidates) is scored with one
        finish and one select in (distance, run position) order.  What stays
        per index is what bit-identity needs: its rows gathered (at most
        ``DEFAULT_ROW_BLOCK`` at a time, more only for one query that has
        more) and each query's GEMV, the call that index's own search
        issues.  ``stats`` charges each query exactly what searching
        each index for it would have.  A query whose boundary distance is tied or not a number (see
        :func:`~repro.vdms.distance.scan_topk`) is re-run through the base
        :meth:`VectorIndex.search_run`.
        """
        prepared, top_k = run[0]._checked_request(queries, top_k)
        num_queries = int(prepared.shape[0])
        query_side = QueryOperand(prepared, run[0].metric)
        masks = [option.get("allow_mask") for option in options]
        probes = _probe(run, query_side)
        offsets = np.cumsum([0] + [index.size for index in run[:-1]])
        norms = None
        if query_side.norms64 is not None:
            norms = np.concatenate([index._operand.norms64 for index in run])
        stats = SearchStats(
            num_queries,
            coarse_evaluations=sum(index._centroid_operand.shape[0] for index in run),
            segments_searched=len(run),
        )
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        settled = np.ones(num_queries, dtype=bool)
        for block in range(0, num_queries, DEFAULT_QUERY_BLOCK):
            block_probes = [probed[:, block : block + DEFAULT_QUERY_BLOCK] for probed in probes]
            width = block_probes[0].shape[1]
            rows, bounds = _probed_candidates(run, block_probes, masks)
            counts = np.diff(bounds).reshape(len(run), width)
            # Each index's gather reads its own stored positions.
            stored = rows - np.repeat(offsets, counts.sum(axis=1))
            cuts = np.concatenate(([0], np.cumsum(counts.sum(axis=0))))
            # Index j's candidates of query i begin after query i's from the indexes before j.
            starts = cuts[:-1] + np.cumsum(counts, axis=0) - counts
            place = np.repeat(starts.ravel() - bounds[:-1], counts.ravel()) + np.arange(bounds[-1])
            placed = np.empty_like(rows)
            placed[place] = rows
            spans, edges = cuts.tolist(), bounds.tolist()
            for first, stop in _whole_query_tiles(spans, 4 * DEFAULT_ROW_BLOCK, DEFAULT_QUERY_BLOCK):
                begin, end = spans[first], spans[stop]
                if end == begin:
                    continue
                owners = range(block + first, block + stop)
                products = np.empty((1, end - begin), dtype=np.float64)
                tile_counts = counts[:, first:stop].tolist()
                tile_starts = (starts[:, first:stop] - begin).tolist()
                for number, index in enumerate(run):
                    index_spans = edges[number * width + first : number * width + stop + 1]
                    if index_spans[-1] == index_spans[0]:
                        continue
                    index_counts, index_starts = tile_counts[number], tile_starts[number]
                    for head, tail in _whole_query_tiles(index_spans, DEFAULT_ROW_BLOCK, stop - first):
                        query_side.gather_products(
                            owners[head:tail], index_counts[head:tail], index._operand,
                            stored[index_spans[head] : index_spans[tail]], products, index_starts[head:tail],
                        )
                tile = slice(block + first, block + stop)
                tile_cuts, tile_rows = cuts[first : stop + 1] - begin, placed[begin:end]
                vector_norms = None if norms is None else norms[tile_rows]
                query_counts = np.diff(tile_cuts)
                scores = query_side.finish_runs(products, owners, query_counts, vector_norms)
                stats.add("distance_evaluations", query_counts, tile)
                lexicographic_select(scores, tile_rows, tile_cuts, top_k, positions[tile], distances[tile])
                settled[tile] = _settled(scores, tile_cuts, distances[tile], top_k)
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
