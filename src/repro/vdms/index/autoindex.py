"""AUTOINDEX: the system's built-in "reasonable default" index.

Milvus's AUTOINDEX hides the index choice and its parameters from the user
and applies an internally maintained default.  Here it is an HNSW graph with
fixed, conservative parameters; it exposes no tunable parameters, exactly as
in Table I of the paper (the tuner can pick it, but cannot adjust it).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.vdms.index.base import BuildStats, SearchStats, VectorIndex
from repro.vdms.index.hnsw import HNSWIndex, search_graphs

__all__ = ["AutoIndex"]

#: Fixed internal parameters of the automatic index.
_AUTOINDEX_M = 18
_AUTOINDEX_EF_CONSTRUCTION = 112
_AUTOINDEX_EF_SEARCH = 72


class AutoIndex(VectorIndex):
    """A fixed-parameter HNSW index standing in for the system's AUTOINDEX."""

    index_type = "AUTOINDEX"

    def __init__(self, metric: str = "angular", *, seed: int = 0, **params) -> None:
        super().__init__(metric=metric, **params)
        self._inner = HNSWIndex(
            metric=metric,
            hnsw_m=_AUTOINDEX_M,
            ef_construction=_AUTOINDEX_EF_CONSTRUCTION,
            ef_search=_AUTOINDEX_EF_SEARCH,
            seed=seed,
        )

    def _build(self, vectors: np.ndarray) -> BuildStats:
        stats = self._inner.build(vectors)
        stats.extra["delegate"] = "HNSW"
        return stats

    def _search(self, queries: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        # Delegate to the inner HNSW's raw search over positions.  The inner
        # index was built on the same prepared vectors, so its internal ids
        # coincide with positions in this index.
        return self._inner._search(queries, top_k)

    @classmethod
    def search_run(
        cls,
        run: Sequence[VectorIndex],
        queries: np.ndarray,
        top_k: int,
        options: Sequence[Mapping[str, Any]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """The run's inner graphs walked as one, ids read from each member
        (:func:`~repro.vdms.index.hnsw.search_graphs`) where that pays;
        otherwise each member's search and a merge."""
        found = search_graphs(run, [index._inner for index in run], queries, top_k, options)
        return super().search_run(run, queries, top_k, options) if found is None else found

    def memory_bytes(self) -> int:
        return self._inner.memory_bytes()
