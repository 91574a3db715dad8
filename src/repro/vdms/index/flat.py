"""FLAT: exhaustive brute-force index.

The exact baseline: every query is compared against every stored vector.
Recall is always 1.0; search cost grows linearly with the collection size.
"""

from __future__ import annotations

import numpy as np

from repro.vdms.distance import (
    ScanOperand,
    pairwise_distances_blocked,
    prepare_vectors,
    top_k_select,
)
from repro.vdms.index.base import BuildStats, SearchStats, VectorIndex

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
        # Blocked GEMM over the cached operand: bit-identical to the naive
        # scan (module determinism contract) with tile-bounded scratch.
        distances = pairwise_distances_blocked(queries, self._operand, self.metric)
        positions, ordered = top_k_select(distances, top_k)
        stats = SearchStats(
            distance_evaluations=int(queries.shape[0]) * self.size,
            segments_searched=int(queries.shape[0]),
        )
        return positions, ordered, stats

    def memory_bytes(self) -> int:
        # The flat index stores nothing beyond the raw vectors.
        return 0
