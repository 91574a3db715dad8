"""Shared fixtures for the test suite.

The fixtures deliberately use very small synthetic datasets (hundreds of
vectors) so that even the end-to-end tuning tests run in a fraction of a
second per evaluation.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.config import build_milvus_space
from repro.datasets.dataset import Dataset, DatasetSpec
from repro.datasets.ground_truth import brute_force_neighbors
from repro.datasets.synthetic import make_clustered_vectors
from repro.vdms.sharding import QueryScheduler
from repro.workloads.environment import VDMSTuningEnvironment
from repro.workloads.workload import SearchWorkload


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the checked-in golden trace files from the current run "
        "instead of comparing against them (see docs/testing.md)",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """Whether golden-trace tests should rewrite their expectation files."""
    return bool(request.config.getoption("--update-golden"))


def make_tiny_dataset(
    num_vectors: int = 1200,
    num_queries: int = 24,
    dimension: int = 32,
    *,
    top_k: int = 5,
    seed: int = 3,
    metric: str = "angular",
) -> Dataset:
    """Build a very small clustered dataset with exact ground truth."""
    vectors, queries = make_clustered_vectors(
        num_vectors, num_queries, dimension, num_clusters=12, cluster_std=0.2, seed=seed
    )
    ground_truth = brute_force_neighbors(vectors, queries, top_k, metric)
    spec = DatasetSpec(
        name="tiny-test",
        num_vectors=num_vectors,
        num_queries=num_queries,
        dimension=dimension,
        metric=metric,
        top_k=top_k,
        generator="clustered",
        seed=seed,
    )
    return Dataset(spec=spec, vectors=vectors, queries=queries, ground_truth=ground_truth)


def run_searchers(search_many, queries, top_k=None, *, searchers: int):
    """``searchers`` concurrent ``QueryScheduler().run`` calls, one per thread.

    A barrier holds every searcher until all of them have started, so the
    calls are in flight at once.  Returns each searcher's ``(result, trace)``
    and re-raises the first searcher exception.
    """
    barrier = threading.Barrier(searchers)

    def search(_slot: int):
        barrier.wait(timeout=30)
        return QueryScheduler().run(search_many, queries, top_k)

    with ThreadPoolExecutor(max_workers=searchers) as pool:
        return list(pool.map(search, range(searchers)))


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    """A session-wide tiny dataset (1200 x 32, angular)."""
    return make_tiny_dataset()


@pytest.fixture(scope="session")
def milvus_space():
    """The full 16-dimensional tuning space."""
    return build_milvus_space()


@pytest.fixture()
def tiny_environment(tiny_dataset, milvus_space) -> VDMSTuningEnvironment:
    """A fresh tuning environment over the tiny dataset."""
    workload = SearchWorkload.from_dataset(tiny_dataset, concurrency=10)
    return VDMSTuningEnvironment(tiny_dataset, workload=workload, space=milvus_space, seed=0)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)
