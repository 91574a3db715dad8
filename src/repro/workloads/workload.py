"""Search workload description.

A workload mirrors the way the paper replays ``vector-db-benchmark``: a batch
of top-K similarity-search requests issued at a fixed client concurrency,
with recall computed against exact ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.dataset import Dataset
from repro.vdms.request import AttributeFilter

__all__ = ["SearchWorkload"]


@dataclass(frozen=True)
class SearchWorkload:
    """A batch similarity-search workload.

    Attributes
    ----------
    queries:
        Query vectors, shape ``(q, d)``.
    ground_truth:
        Exact neighbour ids per query, shape ``(q, >=top_k)``; ``-1``-padded
        when a filtered workload's predicate matches fewer than ``top_k``
        rows.
    top_k:
        Number of neighbours requested per query (the paper uses 100 on
        million-scale data; the scaled-down datasets default to 10).
    concurrency:
        Number of concurrent client requests (the paper's default is 10).
    filter:
        Optional :class:`~repro.vdms.request.AttributeFilter` every query
        of the workload carries (hybrid filtered search); the ground truth
        must then be the masked brute-force truth over the matching rows.
    popularity_skew:
        Zipf exponent ``s`` of the query popularity distribution.  ``0.0``
        (the default) keeps the historical behaviour — every query issued
        exactly once.  With ``s > 0`` the replayed request stream is a
        resampling of the query pool where the *i*-th query is drawn with
        probability proportional to ``(i + 1) ** -s`` (see
        :meth:`popularity_indices`): hot queries repeat, which is the
        traffic shape the tiered query cache exists for.  Composes with
        filters and churn — every resampled request still carries the
        workload's predicate and replays against the mutated collection.
    popularity_requests:
        Length of the resampled request stream (defaults to the pool size).
        Only meaningful with ``popularity_skew > 0``; streams longer than
        the pool model sustained skewed traffic, where the hit ratio climbs
        above what a single pass over the pool can reach.

    Examples
    --------
    >>> from repro import SearchWorkload, load_dataset
    >>> workload = SearchWorkload.from_dataset(load_dataset("glove-small"), concurrency=10)
    >>> workload.queries.shape[0] == workload.ground_truth.shape[0]
    True
    >>> workload.top_k >= 1
    True
    """

    queries: np.ndarray
    ground_truth: np.ndarray
    top_k: int = 10
    concurrency: int = 10
    filter: AttributeFilter | None = None
    popularity_skew: float = 0.0
    popularity_requests: int | None = None

    def __post_init__(self) -> None:
        queries = np.asarray(self.queries, dtype=np.float32)
        truth = np.asarray(self.ground_truth, dtype=np.int64)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "ground_truth", truth)
        if queries.ndim != 2:
            raise ValueError("queries must be a 2-D array")
        if truth.ndim != 2 or truth.shape[0] != queries.shape[0]:
            raise ValueError("ground_truth must have one row per query")
        if not 0 < self.top_k <= truth.shape[1]:
            raise ValueError("top_k must be within (0, ground_truth width]")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not np.isfinite(self.popularity_skew) or self.popularity_skew < 0.0:
            raise ValueError("popularity_skew must be a finite value >= 0")
        if self.popularity_requests is not None and self.popularity_requests < 1:
            raise ValueError("popularity_requests must be >= 1 when set")

    @property
    def num_queries(self) -> int:
        """Number of queries in the batch."""
        return int(self.queries.shape[0])

    def popularity_indices(self, num_requests: int | None = None) -> np.ndarray:
        """Deterministic Zipf-resampled request stream over the query pool.

        Returns the query-pool indexes of ``num_requests`` requests (the
        pool size by default).  With ``popularity_skew == 0`` the stream is
        the identity — every query once, in order, exactly the historical
        replay.  With ``s > 0``, pool position ``i`` (0-based) is drawn
        i.i.d. with probability proportional to ``(i + 1) ** -s``: the
        front of the pool becomes the hot set.  The draw has a fixed seed, so
        the same workload always replays the same stream.
        """
        pool = self.num_queries
        num_requests = pool if num_requests is None else int(num_requests)
        if num_requests < 0:
            raise ValueError("num_requests must be >= 0")
        if self.popularity_skew <= 0.0:
            if num_requests == pool:
                return np.arange(pool, dtype=np.int64)
            return np.arange(num_requests, dtype=np.int64) % max(1, pool)
        weights = np.arange(1, pool + 1, dtype=np.float64) ** -float(self.popularity_skew)
        weights /= weights.sum()
        rng = np.random.default_rng(0)
        return rng.choice(pool, size=num_requests, p=weights).astype(np.int64)

    @classmethod
    def from_dataset(cls, dataset: Dataset, *, top_k: int | None = None, concurrency: int = 10) -> "SearchWorkload":
        """Build the standard workload for a dataset."""
        top_k = int(top_k or dataset.top_k)
        return cls(
            queries=dataset.queries,
            ground_truth=dataset.ground_truth,
            top_k=min(top_k, dataset.top_k),
            concurrency=concurrency,
        )
