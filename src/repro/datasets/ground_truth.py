"""Exact nearest-neighbour computation and recall evaluation.

Ground truth is computed by brute force with the same distance kernels the
VDMS substrate uses, so recall numbers reported by the workload replayer are
exact, not estimated.
"""

from __future__ import annotations

import numpy as np

from repro.vdms.distance import pairwise_distances, top_k_select

__all__ = ["brute_force_neighbors", "masked_brute_force_neighbors", "recall_at_k"]


def brute_force_neighbors(
    vectors: np.ndarray,
    queries: np.ndarray,
    top_k: int,
    metric: str = "angular",
    *,
    batch_size: int = 256,
) -> np.ndarray:
    """Return the exact ``top_k`` neighbour ids for every query.

    Parameters
    ----------
    vectors:
        Base vectors, shape ``(n, d)``.
    queries:
        Query vectors, shape ``(q, d)``.
    top_k:
        Number of neighbours per query.
    metric:
        ``"angular"``, ``"l2"`` or ``"ip"``.
    batch_size:
        Number of queries processed per distance-matrix block, bounding peak
        memory at ``batch_size * n`` floats.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    queries = np.asarray(queries, dtype=np.float32)
    if top_k > vectors.shape[0]:
        raise ValueError("top_k cannot exceed the number of base vectors")
    result = np.empty((queries.shape[0], top_k), dtype=np.int64)
    for start in range(0, queries.shape[0], batch_size):
        block = queries[start : start + batch_size]
        distances = pairwise_distances(block, vectors, metric)
        # Lexicographic (distance, position) selection — the same tie-break
        # the serving stack uses, so duplicate vectors at the top-k boundary
        # yield the id the collection actually serves (recall of an exact
        # index stays exactly 1.0 even on degenerate corpora).
        positions, _ = top_k_select(distances, top_k)
        result[start : start + block.shape[0]] = positions
    return result


def masked_brute_force_neighbors(
    vectors: np.ndarray,
    queries: np.ndarray,
    top_k: int,
    metric: str = "angular",
    *,
    mask: np.ndarray,
) -> np.ndarray:
    """Exact ``top_k`` neighbours restricted to the rows ``mask`` allows.

    The filtered-search oracle: the scan runs over the allowed subset only
    and the returned positions refer to the *full* ``vectors`` array, so
    they compare directly against an attribute-filtered collection search.
    Rows are padded with ``-1`` when the mask allows fewer than ``top_k``
    rows — the same under-full contract the serving stack pins.

    Parameters
    ----------
    vectors / queries / top_k / metric:
        As in :func:`brute_force_neighbors`.
    mask:
        Boolean allow-mask over the base rows (``True`` = eligible).
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    queries = np.asarray(queries, dtype=np.float32)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (vectors.shape[0],):
        raise ValueError("mask must have one entry per base vector")
    allowed = np.flatnonzero(mask)
    result = np.full((queries.shape[0], int(top_k)), -1, dtype=np.int64)
    if allowed.size == 0:
        return result
    keep = int(min(top_k, allowed.size))
    subset = brute_force_neighbors(vectors[allowed], queries, keep, metric)
    result[:, :keep] = allowed[subset]
    return result


def recall_at_k(retrieved: np.ndarray, ground_truth: np.ndarray, k: int | None = None) -> float:
    """Compute mean recall@k over a batch of queries.

    ``retrieved`` may contain ``-1`` padding for queries that returned fewer
    than ``k`` results; padding never matches a true neighbour.  The ground
    truth may itself be ``-1``-padded (a filter matching fewer than ``k``
    rows): padded truth entries are excluded from the denominator, so a
    correctly padded result still scores recall 1.0.

    Parameters
    ----------
    retrieved:
        Retrieved ids, shape ``(q, >=k)``.
    ground_truth:
        Exact neighbour ids, shape ``(q, >=k)``, ``-1``-padded when fewer
        than ``k`` eligible rows exist.
    k:
        Cut-off; defaults to the ground-truth width.
    """
    retrieved = np.asarray(retrieved)
    ground_truth = np.asarray(ground_truth)
    if retrieved.ndim != 2 or ground_truth.ndim != 2:
        raise ValueError("retrieved and ground_truth must be 2-D")
    if retrieved.shape[0] != ground_truth.shape[0]:
        raise ValueError("retrieved and ground_truth must have the same number of queries")
    if k is None:
        k = ground_truth.shape[1]
    k = int(min(k, ground_truth.shape[1]))
    if k <= 0:
        raise ValueError("k must be positive")
    truth = ground_truth[:, :k]
    hits = 0
    eligible = 0
    for row_retrieved, row_truth in zip(retrieved[:, :k], truth):
        true_ids = set(int(i) for i in row_truth if i >= 0)
        eligible += len(true_ids)
        hits += len(set(int(i) for i in row_retrieved if i >= 0) & true_ids)
    if eligible == 0:
        # No query had any eligible neighbour (a filter matched nothing):
        # an empty, fully padded result is by definition complete.
        return 1.0
    return hits / eligible
