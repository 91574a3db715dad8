"""FLAT: exhaustive brute-force index.

The exact baseline: every query is compared against every stored vector.
Recall is always 1.0; search cost grows linearly with the collection size.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.vdms.distance import MAX_RUN_ROWS, ScanOperand, prepare_vectors, scan_topk
from repro.vdms.index.base import BuildStats, SearchStats, VectorIndex, pad_to_top_k

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
        stats = SearchStats(
            distance_evaluations=int(queries.shape[0]) * self.size,
            segments_searched=int(queries.shape[0]),
        )
        return positions, ordered, stats

    # -- runs: several FLAT-served segments answered by one scan ----------------

    @staticmethod
    def runs(indexes: Iterable[VectorIndex]) -> list[list["FlatIndex"]]:
        """The runs of FLAT-served indexes among ``indexes`` worth one fused scan.

        Only an index that is exactly a :class:`FlatIndex` qualifies — built
        FLAT segments and the :meth:`over` indexes serving growing, freshly
        sealed and delete-invalidated ones.  A run spans at most
        :data:`~repro.vdms.distance.MAX_RUN_ROWS` rows (it is cut there) and
        at least two indexes: a lone index is served by its own
        :meth:`search`, the same kernel over one operand.
        """
        runs: list[list[FlatIndex]] = [[]]
        rows = 0
        for index in indexes:
            if type(index) is not FlatIndex:
                continue
            if runs[-1] and rows + index.size > MAX_RUN_ROWS:
                runs.append([])
                rows = 0
            runs[-1].append(index)
            rows += index.size
        return [run for run in runs if len(run) > 1]

    @staticmethod
    def search_run(
        run: Sequence["FlatIndex"], queries: np.ndarray, top_k: int
    ) -> tuple[np.ndarray, np.ndarray, SearchStats, np.ndarray]:
        """Unfiltered top-k over a run of indexes of one metric in one fused scan.

        Returns ``(ids, distances, stats, unsettled)`` shaped like
        :meth:`search`'s result over all the run's rows.  Queries are
        prepared, cast and normed once, one blocked scan fills one float32
        row per query across every segment, one ``top_k_select`` picks the
        winners.  ``stats`` charges exactly what searching each index would
        have: ``q × Σrows`` distance evaluations, ``q × len(run)`` segments.

        ``unsettled`` lists the queries whose boundary distance is tied (see
        :func:`~repro.vdms.distance.scan_topk`): their rows here are a valid
        top-k, but not necessarily the one a per-index search + merge keeps.
        """
        queries, top_k = run[0]._checked_request(queries, top_k)
        positions, distances, settled = scan_topk(
            queries, [index._operand for index in run], top_k, run[0].metric
        )
        ids = np.concatenate([index._ids for index in run])[positions]
        num_queries = int(queries.shape[0])
        stats = SearchStats(
            num_queries=num_queries,
            distance_evaluations=num_queries * sum(index.size for index in run),
            segments_searched=num_queries * len(run),
        )
        return (*pad_to_top_k(ids, distances, top_k), stats, np.flatnonzero(~settled))

    def memory_bytes(self) -> int:
        # The flat index stores nothing beyond the raw vectors.
        return 0
