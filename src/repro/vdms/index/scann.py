"""SCANN-style index: quantized scoring plus exact re-ranking.

The real ScaNN combines a partitioning tree, anisotropic vector quantization
for fast scoring, and exact re-ranking of the best ``reorder_k`` candidates.
This implementation keeps the same three-stage shape on top of the shared
IVF machinery:

1. probe the ``nprobe`` nearest partitions (k-means coarse quantizer);
2. score every candidate in the probed partitions with cheap 8-bit codes;
3. re-rank the best ``reorder_k`` candidates with full-precision distances.

``reorder_k`` therefore trades recall for extra full-precision work exactly
as in the paper's Table I.
"""

from __future__ import annotations

import numpy as np

from repro.vdms.distance import QueryOperand, nonempty_spans
from repro.vdms.index.base import BuildStats, SearchStats
from repro.vdms.index.ivf_flat import TileScorer
from repro.vdms.index.ivf_sq8 import IVFSQ8Index

__all__ = ["ScannIndex"]


class ScannIndex(IVFSQ8Index):
    """Quantized scoring with exact re-ranking of the top ``reorder_k`` candidates."""

    index_type = "SCANN"

    def __init__(
        self,
        metric: str = "angular",
        *,
        nlist: int = 128,
        nprobe: int = 16,
        reorder_k: int = 200,
        seed: int = 0,
        **params,
    ) -> None:
        super().__init__(metric=metric, nlist=nlist, nprobe=nprobe, seed=seed, **params)
        self.reorder_k = self.checked_search_params(reorder_k=reorder_k)["reorder_k"]

    def _build(self, vectors: np.ndarray) -> BuildStats:
        stats = super()._build(vectors)
        stats.extra["quantizer"] = "scann-sq8"
        return stats

    def _tile_scorer(
        self, queries: np.ndarray, query_side: QueryOperand, stats: SearchStats
    ) -> TileScorer:
        """Quantized scores of a tile's candidates, then exact distances of
        each query's best ``reorder_k`` of them."""
        score_codes = super()._tile_scorer(queries, query_side, stats)

        def score_tile(first: int, bounds: np.ndarray, rows: np.ndarray):
            approximate, _, _ = score_codes(first, bounds, rows)
            shortlists = []
            for _, start, stop in nonempty_spans(first, bounds):
                shortlist = rows[start:stop]
                if self.reorder_k < shortlist.size:
                    best = np.argpartition(approximate[start:stop], self.reorder_k - 1)
                    shortlist = shortlist[best[: self.reorder_k]]
                shortlists.append(shortlist)
            # Exact re-rank stays on the bit-exact float64 kernel, served
            # from the cached operand: one gather of the tile's shortlists.
            rows = np.concatenate(shortlists)
            counts = np.minimum(np.diff(bounds), self.reorder_k)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            owners = range(first, first + counts.shape[0])
            stats.add("reorder_evaluations", counts, slice(first, first + counts.shape[0]))
            return query_side.gather_scan_runs(owners, counts.tolist(), self._operand, rows), rows, bounds

        return score_tile
