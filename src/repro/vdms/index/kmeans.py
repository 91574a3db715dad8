"""Lloyd's k-means shared by the IVF family of indexes.

A deliberately small, fully vectorized implementation: k-means++ seeding,
a bounded number of Lloyd iterations, empty-cluster re-seeding, and work
accounting (how many distance evaluations were spent) so index build cost is
visible to the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KMeansResult", "kmeans"]

#: Relative inertia improvement below which Lloyd iteration stops.
_TOLERANCE = 1e-4


@dataclass
class KMeansResult:
    """Output of :func:`kmeans`.

    Attributes
    ----------
    centroids:
        Cluster centres, shape ``(k, d)``.
    assignments:
        Index of the centroid assigned to every input vector, shape ``(n,)``.
    iterations:
        Number of Lloyd iterations executed.
    distance_evaluations:
        Total vector-to-centroid distance computations performed.
    inertia:
        Final sum of squared distances to assigned centroids.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    iterations: int
    distance_evaluations: int
    inertia: float


def _plus_plus_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """k-means++ seeding; returns the seeds and the distance evaluations spent.

    A pick is ``rng.choice(n, p=closest / total)`` spelled out — the same
    cumulative sum, renormalisation and one ``rng.random()`` draw searched
    with ``side="right"`` — without its per-call validation, so the seeds and
    the generator's later draws are ``choice``'s.  Like ``choice`` with NaN
    probabilities, a non-finite ``total`` raises ``ValueError``.
    """
    n = vectors.shape[0]
    centroids = np.empty((k, vectors.shape[1]), dtype=vectors.dtype)
    centroids[0] = vectors[int(rng.integers(0, n))]
    closest = np.full(n, np.inf, dtype=np.float64)
    diff = np.empty_like(vectors)
    distances = np.empty(n, dtype=vectors.dtype)
    for seeded in range(1, k):
        np.subtract(vectors, centroids[seeded - 1], out=diff)
        np.einsum("ij,ij->i", diff, diff, out=distances)
        np.minimum(closest, distances, out=closest)
        total = float(closest.sum())
        if total <= 0.0:
            pick = int(rng.integers(0, n))
        elif not np.isfinite(total):
            raise ValueError("k-means++ seeding met a non-finite distance")
        else:
            cdf = (closest / total).cumsum()
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[seeded] = vectors[pick]
    return centroids, (k - 1) * n


def kmeans(
    vectors: np.ndarray,
    k: int,
    *,
    max_iterations: int = 12,
    seed: int = 0,
) -> KMeansResult:
    """Cluster ``vectors`` into ``k`` groups with Lloyd's algorithm.

    Parameters
    ----------
    vectors:
        Input data, shape ``(n, d)``.
    k:
        Number of clusters; clipped to ``n``.
    max_iterations:
        Upper bound on Lloyd iterations.
    seed:
        Seed for the seeding and empty-cluster re-assignment randomness.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("vectors must be a non-empty 2-D array")
    n = vectors.shape[0]
    k = int(max(1, min(k, n)))
    rng = np.random.default_rng(seed)

    centroids, evaluations = _plus_plus_init(vectors, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    previous_inertia = np.inf
    inertia = np.inf
    iterations = 0

    vector_norms = np.einsum("ij,ij->i", vectors, vectors)
    for iterations in range(1, max_iterations + 1):
        centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
        distances = (
            vector_norms[:, None] - 2.0 * (vectors @ centroids.T) + centroid_norms[None, :]
        )
        evaluations += n * k
        assignments = distances.argmin(axis=1)
        inertia = float(np.take_along_axis(distances, assignments[:, None], axis=1).sum())

        new_centroids = np.zeros_like(centroids)
        counts = np.bincount(assignments, minlength=k).astype(np.float64)
        np.add.at(new_centroids, assignments, vectors)
        empty = counts == 0
        counts[empty] = 1.0
        new_centroids /= counts[:, None]
        if empty.any():
            # Re-seed empty clusters on random points to keep k populated lists.
            replacements = rng.integers(0, n, size=int(empty.sum()))
            new_centroids[empty] = vectors[replacements]
        centroids = new_centroids.astype(np.float32)

        if previous_inertia - inertia <= _TOLERANCE * max(previous_inertia, 1e-12):
            break
        previous_inertia = inertia

    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        iterations=iterations,
        distance_evaluations=int(evaluations),
        inertia=inertia,
    )
