"""IVF_PQ: inverted-file index with product quantization.

Vectors are split into ``pq_m`` sub-vectors; each sub-vector is quantized to
one of ``2**pq_nbits`` codewords learned by k-means.  Probed lists are scored
with asymmetric distance computation (ADC): the query builds one lookup
table per sub-space and candidate distances are sums of table entries, which
is much cheaper than full-precision scoring but loses accuracy — the classic
PQ speed/recall trade-off.
"""

from __future__ import annotations

import numpy as np

from repro.vdms.distance import QueryOperand, nonempty_spans
from repro.vdms.index.base import BuildStats, SearchStats
from repro.vdms.index.ivf_flat import IVFFlatIndex, TileScorer, partition_select
from repro.vdms.index.kmeans import kmeans

__all__ = ["IVFPQIndex"]


class IVFPQIndex(IVFFlatIndex):
    """Inverted-file index with product-quantized residual-free codes."""

    index_type = "IVF_PQ"
    _select = staticmethod(partition_select)

    def __init__(
        self,
        metric: str = "angular",
        *,
        nlist: int = 128,
        nprobe: int = 16,
        pq_m: int = 8,
        pq_nbits: int = 8,
        seed: int = 0,
        **params,
    ) -> None:
        super().__init__(metric=metric, nlist=nlist, nprobe=nprobe, seed=seed, **params)
        self.pq_m = int(pq_m)
        self.pq_nbits = int(pq_nbits)
        if self.pq_m < 1:
            raise ValueError("pq_m must be >= 1")
        if not 1 <= self.pq_nbits <= 12:
            raise ValueError("pq_nbits must be within [1, 12]")
        self._codebooks: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._sub_dimension = 0

    # -- build ----------------------------------------------------------------

    def _effective_m(self, dimension: int) -> int:
        """Largest divisor of ``dimension`` not exceeding the requested ``pq_m``."""
        for m in range(min(self.pq_m, dimension), 0, -1):
            if dimension % m == 0:
                return m
        return 1

    def _build(self, vectors: np.ndarray) -> BuildStats:
        stats = super()._build(vectors)
        dimension = vectors.shape[1]
        m = self._effective_m(dimension)
        self._sub_dimension = dimension // m
        codewords = min(2 ** self.pq_nbits, vectors.shape[0])
        codebooks = np.zeros((m, codewords, self._sub_dimension), dtype=np.float32)
        codes = np.zeros((vectors.shape[0], m), dtype=np.int32)
        training_evaluations = 0
        iterations = 0
        for sub in range(m):
            block = vectors[:, sub * self._sub_dimension : (sub + 1) * self._sub_dimension]
            clustering = kmeans(block, codewords, seed=self.seed + 101 + sub, max_iterations=8)
            actual = clustering.centroids.shape[0]
            codebooks[sub, :actual] = clustering.centroids
            if actual < codewords:
                codebooks[sub, actual:] = clustering.centroids[-1]
            codes[:, sub] = clustering.assignments
            training_evaluations += clustering.distance_evaluations
            iterations = max(iterations, clustering.iterations)
        self._codebooks = codebooks
        self._codes = codes
        stats.distance_evaluations += training_evaluations
        stats.training_iterations += iterations
        stats.extra.update({"pq_m": m, "pq_codewords": codewords})
        return stats

    # -- search ---------------------------------------------------------------

    def _adc_tables_batch(self, queries: np.ndarray) -> np.ndarray:
        """Build ADC tables for a whole query batch in one pass.

        One vectorized ``(q, codewords, sub_dim)`` reduction per sub-space
        instead of ``q * m`` small einsums; the per-element reduction order
        over the sub-dimension is unchanged, so the tables are bitwise equal
        to the per-query build.
        """
        m, codewords, sub_dimension = self._codebooks.shape
        tables = np.empty((queries.shape[0], m, codewords), dtype=np.float32)
        for sub in range(m):
            block = queries[:, sub * sub_dimension : (sub + 1) * sub_dimension]
            diff = self._codebooks[sub][None, :, :] - block[:, None, :]
            tables[:, sub] = np.einsum("qij,qij->qi", diff, diff)
        return tables

    def _tile_scorer(
        self, queries: np.ndarray, query_side: QueryOperand, stats: SearchStats
    ) -> TileScorer:
        """ADC scores of a tile's candidates: sums of table lookups."""
        m, codewords, _ = self._codebooks.shape
        tables = self._adc_tables_batch(queries)
        subspace_index = np.arange(m)[None, :]

        def score_tile(first: int, bounds: np.ndarray, rows: np.ndarray):
            counts = np.diff(bounds)
            tile = slice(first, first + counts.shape[0])
            stats.add("code_evaluations", counts, tile)
            # A query with candidates reads its whole table set.
            stats.add("coarse_evaluations", m * codewords * (counts > 0), tile)
            codes = self._codes[rows]
            scores = np.empty(rows.shape[0], dtype=np.float32)
            for query, start, stop in nonempty_spans(first, bounds):
                scores[start:stop] = tables[query][subspace_index, codes[start:stop]].sum(axis=1)
            return scores, rows, bounds

        return score_tile

    def memory_bytes(self) -> int:
        base = super().memory_bytes()
        if self._codes is None or self._codebooks is None:
            return base
        code_bytes = self._codes.shape[0] * self._codes.shape[1] * max(1, self.pq_nbits // 8)
        codebook_bytes = self._codebooks.size * 4
        return int(base + code_bytes + codebook_bytes)
