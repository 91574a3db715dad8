"""FLAT: exhaustive brute-force index.

The exact baseline: every query is compared against every stored vector.
Recall is always 1.0; search cost grows linearly with the collection size.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.vdms.distance import MAX_RUN_ROWS, ScanOperand, prepare_vectors, scan_topk
from repro.vdms.index.base import BuildStats, SearchStats, VectorIndex, merge_results, pad_to_top_k

__all__ = ["FlatIndex"]


class FlatIndex(VectorIndex):
    """Exhaustive scan over the raw vectors."""

    index_type = "FLAT"

    @classmethod
    def over(cls, vectors: np.ndarray, ids: np.ndarray, metric: str) -> "FlatIndex":
        """An exact index serving ``vectors`` in place, with nothing built.

        This is what makes an unindexed segment (growing, delete-invalidated,
        freshly sealed) searchable through the same :meth:`search` as an
        indexed one.  Unlike :meth:`build` it is safe under the collection
        lock: the rows are referenced, not copied (``l2``/``ip``; ``angular``
        stores the normalized copy a build would), and the scan operand's
        float64 cast and norms stay lazy until the first scan.  Results and
        counted work are bit-identical to a built FLAT index over the rows.
        """
        index = cls(metric=metric)
        index._vectors = prepare_vectors(vectors, metric)
        index._ids = ids
        index._operand = ScanOperand.prepare(index._vectors, metric)
        index._build_stats = BuildStats(num_vectors=int(ids.shape[0]))
        return index

    def _build(self, vectors: np.ndarray) -> BuildStats:
        # Nothing to train: the raw vectors kept by the base class are the index.
        return BuildStats(distance_evaluations=0, training_iterations=0)

    def _search(self, queries: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        # The blocked-scan kernel over this index's one operand: bit-identical
        # to the naive scan (module determinism contract), tile-bounded scratch.
        positions, ordered, _ = scan_topk(queries, [self._operand], top_k, self.metric)
        stats = SearchStats(queries.shape[0], distance_evaluations=self.size, segments_searched=1)
        return positions, ordered, stats

    # -- runs: several FLAT-served segments answered by one scan ----------------

    @classmethod
    def search_run(
        cls,
        run: Sequence[VectorIndex],
        queries: np.ndarray,
        top_k: int,
        options: Sequence[Mapping[str, Any]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Unfiltered, the run's rows in as few fused scans as the row cap allows.

        See :meth:`VectorIndex.search_run`.  Only a run of exact
        :class:`FlatIndex` members is fused — built FLAT segments and the
        :meth:`over` indexes serving growing, freshly sealed and
        delete-invalidated ones — and only unfiltered; a filtered run goes to
        the base.  The run is cut into pieces of at most
        :data:`~repro.vdms.distance.MAX_RUN_ROWS` rows, each piece answered by
        :meth:`_scan_piece`, and the pieces' lists merged.
        """
        if cls is not FlatIndex or options is not None:
            return super().search_run(run, queries, top_k, options)
        pieces: list[list[FlatIndex]] = [[]]
        rows = 0
        for index in run:
            if pieces[-1] and rows + index.size > MAX_RUN_ROWS:
                pieces.append([])
                rows = 0
            pieces[-1].append(index)
            rows += index.size
        return merge_results([cls._scan_piece(piece, queries, top_k) for piece in pieces], top_k)

    @staticmethod
    def _scan_piece(
        piece: Sequence["FlatIndex"], queries: np.ndarray, top_k: int
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Unfiltered top-k over a piece of a run in one fused scan.

        A piece of one index is its :meth:`search`, the same kernel over one
        operand.  Otherwise queries are prepared, cast and normed once, one
        blocked scan fills one float32 row per query across every segment,
        one ``top_k_select`` picks the winners.  ``stats`` charges exactly
        what searching each index would have: per query ``Σrows`` distance
        evaluations and ``len(piece)`` segments.  A query whose boundary
        distance is tied (see :func:`~repro.vdms.distance.scan_topk`) is
        re-run through the base :meth:`VectorIndex.search_run`.
        """
        if len(piece) == 1:
            return piece[0].search(queries, top_k)
        prepared, top_k = piece[0]._checked_request(queries, top_k)
        positions, distances, settled = scan_topk(
            prepared, [index._operand for index in piece], top_k, piece[0].metric
        )
        ids, distances = pad_to_top_k(
            np.concatenate([index._ids for index in piece])[positions], distances, top_k
        )
        stats = SearchStats(
            prepared.shape[0],
            distance_evaluations=sum(index.size for index in piece),
            segments_searched=len(piece),
        )
        unsettled = np.flatnonzero(~settled)
        if unsettled.size:
            ids[unsettled], distances[unsettled], _ = VectorIndex.search_run(
                piece, queries[unsettled], top_k
            )
        return ids, distances, stats

    def memory_bytes(self) -> int:
        # The flat index stores nothing beyond the raw vectors.
        return 0
