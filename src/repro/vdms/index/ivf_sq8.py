"""IVF_SQ8: inverted-file index with 8-bit scalar quantization.

Vectors inside the inverted lists are stored as per-dimension 8-bit codes.
Probed lists are scored on the codes, which is cheaper per vector than full
precision and introduces a small, real quantization error — the source of
IVF_SQ8's recall gap relative to IVF_FLAT.

Candidates are scored *directly on the int8 codes* with a float32
correction step: for the affine decoder ``dec_i = C_i * s' + m`` the
distance expands to ``||q||^2 - 2((q*s')·C_i + q·m) + ||dec_i||^2``, so one
float32 GEMV over the gathered code rows plus precomputed decoded-row norms
stands in for decode + float64 cast + GEMM.  Recall-identical to decoding
the candidates (gated against a decode oracle in the tests), not
bit-identical: the correction accumulates in float32.
"""

from __future__ import annotations

import numpy as np

from repro.vdms.distance import QueryOperand, nonempty_spans
from repro.vdms.index.base import BuildStats, SearchStats
from repro.vdms.index.ivf_flat import IVFFlatIndex, TileScorer, partition_select

__all__ = ["IVFSQ8Index"]


class IVFSQ8Index(IVFFlatIndex):
    """Inverted-file index scoring probed lists on 8-bit scalar-quantized codes."""

    index_type = "IVF_SQ8"
    _select = staticmethod(partition_select)

    def __init__(
        self,
        metric: str = "angular",
        *,
        nlist: int = 128,
        nprobe: int = 16,
        seed: int = 0,
        **params,
    ) -> None:
        super().__init__(metric=metric, nlist=nlist, nprobe=nprobe, seed=seed, **params)
        self._codes: np.ndarray | None = None
        self._minimums: np.ndarray | None = None
        self._scales: np.ndarray | None = None
        self._codes_f32: np.ndarray | None = None
        self._code_scales: np.ndarray | None = None
        self._decoded_norms: np.ndarray | None = None
        self._decoded_inv_norms: np.ndarray | None = None
        self._unit_norms_sq: np.ndarray | None = None

    def _build(self, vectors: np.ndarray) -> BuildStats:
        stats = super()._build(vectors)
        minimums = vectors.min(axis=0)
        maximums = vectors.max(axis=0)
        scales = (maximums - minimums).astype(np.float32)
        scales[scales == 0.0] = 1.0
        codes = np.clip(np.round((vectors - minimums) / scales * 255.0), 0, 255).astype(np.uint8)
        self._codes = codes
        self._minimums = minimums.astype(np.float32)
        self._scales = scales
        # Scoring scaffolding, built once per index build.  ``_codes_f32``
        # holds the integer code values in float32 lanes purely so the GEMV
        # runs in BLAS — it stands in for the fused int8 SIMD kernel a real
        # system would ship, so the simulated memory model keeps charging
        # the 1-byte codes only.  The decoded matrix itself is transient:
        # only its per-row norms (the correction terms) are retained.
        self._code_scales = self._scales / np.float32(255.0)
        self._codes_f32 = codes.astype(np.float32)
        decoded = self._codes_f32 * self._code_scales + self._minimums
        self._decoded_norms = np.einsum("ij,ij->i", decoded, decoded)
        decoded_norms = np.sqrt(self._decoded_norms)
        decoded_norms[decoded_norms == 0.0] = 1.0
        self._decoded_inv_norms = (1.0 / decoded_norms).astype(np.float32)
        self._unit_norms_sq = self._decoded_norms * self._decoded_inv_norms**2
        stats.extra["quantizer"] = "sq8"
        return stats

    def _code_scores(
        self, query: np.ndarray, codes: np.ndarray, inverse: np.ndarray, norms: np.ndarray
    ) -> np.ndarray:
        """Scores of one query against gathered code rows.

        Float32 throughout: one GEMV over the code rows (int8 values in
        float32 lanes) plus the decoded-row norm corrections (``inverse``
        and, per metric, ``norms``, gathered like ``codes``).
        """
        if self.metric == "angular":
            # Mirror the kernel's internal re-normalization of the query.
            norm = float(np.linalg.norm(query))
            query = query / np.float32(norm if norm != 0.0 else 1.0)
        dots = codes @ (query * self._code_scales)
        dots += np.float32(query @ self._minimums)
        if self.metric == "ip":
            return -dots
        query_norm = np.float32(query @ query)
        if self.metric == "angular":
            scores = query_norm + norms - 2.0 * dots * inverse
        else:
            scores = query_norm - 2.0 * dots + norms
        return np.maximum(scores, 0.0, out=scores)

    def _tile_scorer(
        self, queries: np.ndarray, query_side: QueryOperand, stats: SearchStats
    ) -> TileScorer:
        """Scores of a tile's candidates on the 8-bit codes.

        Everything the scoring reads per candidate is gathered once per tile;
        the product stays one call per query over its slice of the gather,
        because float32 accumulation depends on the call's shape.
        """

        def score_tile(first: int, bounds: np.ndarray, rows: np.ndarray):
            counts = np.diff(bounds)
            stats.add("code_evaluations", counts, slice(first, first + counts.shape[0]))
            scores = np.empty(rows.shape[0], dtype=np.float32)
            codes = self._codes_f32[rows]
            inverse = self._decoded_inv_norms[rows]
            norms = (self._unit_norms_sq if self.metric == "angular" else self._decoded_norms)[rows]
            for query, start, stop in nonempty_spans(first, bounds):
                span = slice(start, stop)
                scores[span] = self._code_scores(
                    queries[query], codes[span], inverse[span], norms[span]
                )
            return scores, rows, bounds

        return score_tile

    def memory_bytes(self) -> int:
        base = super().memory_bytes()
        if self._codes is None:
            return base
        # SQ8 keeps one byte per dimension plus the per-dimension affine
        # parameters (the float32 code shadow is a BLAS artifact, see
        # ``_build``).
        return int(base + self._codes.size + 2 * self._codes.shape[1] * 4)
