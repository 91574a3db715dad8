"""Digest of cache-enabled workload replays, to compare two commits.

    PYTHONPATH=<checkout>/src python benchmarks/digest_replay.py

Not a pytest file.  It uses only the public replay API (``load_dataset``,
``SearchWorkload``, ``make_filtered_workload``, ``DynamicWorkload`` and its
drift events, ``WorkloadReplayer.replay``), so the same file runs on any two
checkouts: copy it next to an older one and diff the output.  Every replay has
``cache_policy="lru"``; the matrix is {FLAT, IVF_FLAT, IVF_SQ8, HNSW} x
``cache_capacity`` {16, 64, 4096} x ``shard_num`` {1, 2} x ``search_threads``
{1, 4} over nine static request streams (uniform, Zipf at three skews and
lengths, filtered under pre / post / auto) — 432 replays — and capacity {16,
4096} over three drifted phases (live churn healed by inline maintenance, a
filter-selectivity shift, a query shift; Zipf traffic) — 96 more.  The query
pool is widened to 96 distinct queries so the two small capacities sit below
the hot set and evicted entries re-miss.

One line per (stream, index type): a sha256 over ``(qps, recall, latency_ms,
build_seconds, replay_seconds, failed, memory_gib, sorted(breakdown.items()))``
of the group's replays, floats by ``repr`` — ``cache_unique_requests`` left
out of the breakdown (a table-only key of the replayer's former cache
simulation).  The last line counts the replays, the range of hit ratios they
cover and how many re-missed an evicted entry (more misses than distinct
requests).  A change to the replayer, the query cache or ``Collection.search``
that claims the same measurements (replaying through the collection's own
cache instead of a simulated LRU did) must print the same lines as its parent.
``digest_replay.expected`` holds them, and CI diffs the output against it; to
re-record after a change that is *meant* to move a measurement, redirect the
output over that file and say why in the commit.
"""

import hashlib
from dataclasses import replace
from itertools import product

import numpy as np

from repro.config import build_milvus_space, default_configuration
from repro.datasets import load_dataset
from repro.datasets.ground_truth import brute_force_neighbors
from repro.workloads import SearchWorkload, WorkloadReplayer
from repro.workloads.dynamic import (
    DataChurnEvent,
    DynamicWorkload,
    FilterSelectivityEvent,
    QueryShiftEvent,
    make_filtered_workload,
)

DATASET_SCALE = 0.25  # 1000 rows of glove-small: 16+ sealed segments at the size below
POOL = 96  # distinct queries: above both small capacities, so their LRU evicts
#: The smallest segments the tuning space allows; few probed lists and a narrow
#: beam keep the three ANN types approximate on them (recall below 1.0).
LAYOUT = {"segment_max_size": 64, "nlist": 16, "nprobe": 2, "hnsw_m": 4, "ef_search": 10}
INDEX_TYPES = ("FLAT", "IVF_FLAT", "IVF_SQ8", "HNSW")
STATIC_CAPACITIES = (16, 64, 4096)
DRIFT_CAPACITIES = (16, 4096)
SHARDS = (1, 2)
THREADS = (1, 4)
#: name -> (Zipf skew, stream length in pools, filter selectivity, filter strategy)
STATIC_STREAMS = {
    "uniform": (0.0, 1, None, None),
    "zipf-1.1": (1.1, 2, None, None),
    "zipf-0.6-long": (0.6, 3, None, None),
    "zipf-1.6-short": (1.6, 1, None, None),
    "filtered-uniform": (0.0, 1, 0.3, "auto"),
    "filtered-uniform-post": (0.0, 1, 0.1, "post"),
    "filtered-zipf-pre": (1.1, 2, 0.3, "pre"),
    "filtered-zipf-post": (1.1, 2, 0.3, "post"),
    "filtered-zipf-narrow": (0.6, 3, 0.05, "auto"),
}
#: name -> (drift event, configuration overrides of the phase's replays)
DRIFTS = {
    "churn-inline-maintenance": (DataChurnEvent(at_step=2, severity=0.5), {"maintenance_mode": "inline"}),
    "filter-shift": (FilterSelectivityEvent(at_step=2, severity=0.8), {}),
    "query-shift": (QueryShiftEvent(at_step=2, severity=0.5), {}),
}

SPACE = build_milvus_space()


def wide_pool_dataset():
    """glove-small at a quarter scale with its query pool widened to ``POOL``."""
    base = load_dataset("glove-small", scale=DATASET_SCALE)
    rng = np.random.default_rng(17)
    anchors = base.vectors[rng.choice(base.num_vectors, size=POOL - base.queries.shape[0], replace=False)]
    jitter = rng.normal(scale=0.15 * float(np.abs(anchors).mean()), size=anchors.shape)
    queries = np.concatenate([base.queries, (anchors + jitter).astype(np.float32)])
    truth = brute_force_neighbors(base.vectors, queries, base.top_k, base.metric)
    spec = replace(base.spec, num_queries=POOL)
    return replace(base, spec=spec, queries=queries, ground_truth=truth)


def stream_workload(dataset, skew: float, pools: int) -> SearchWorkload:
    workload = SearchWorkload.from_dataset(dataset, concurrency=10)
    if skew > 0.0:
        workload = replace(workload, popularity_skew=skew, popularity_requests=pools * POOL)
    return workload


def distinct_requests(workload: SearchWorkload) -> int:
    if workload.popularity_skew <= 0.0:
        return workload.num_queries
    return int(np.unique(workload.popularity_indices(workload.popularity_requests)).size)


def digest_group(replayer, capacities, overrides, tally: list) -> dict[str, str]:
    """One digest per index type over capacities x shards x threads.

    ``tally`` gains one ``(hit ratio, re-missed an evicted entry)`` pair per replay.
    """
    distinct = distinct_requests(replayer.workload)
    lines = {}
    for index_type in INDEX_TYPES:
        group = hashlib.sha256()
        for capacity, shards, threads in product(capacities, SHARDS, THREADS):
            configuration = default_configuration(
                SPACE,
                index_type=index_type,
                overrides={
                    **LAYOUT,
                    **overrides,
                    "cache_policy": "lru",
                    "cache_capacity": capacity,
                    "shard_num": shards,
                    "search_threads": threads,
                },
            )
            result = replayer.replay(configuration)
            tally.append(
                (result.breakdown["cache_hit_ratio"], result.breakdown["cache_misses"] > distinct)
            )
            breakdown = sorted(
                (key, value) for key, value in result.breakdown.items()
                if key != "cache_unique_requests"
            )
            measured = (
                result.qps, result.recall, result.latency_ms, result.build_seconds,
                result.replay_seconds, result.failed, result.memory_gib, breakdown,
            )
            group.update(repr(measured).encode())
        lines[index_type] = group.hexdigest()
    return lines


def main() -> None:
    dataset = wide_pool_dataset()
    tally: list[tuple[float, bool]] = []
    for name, (skew, pools, selectivity, strategy) in STATIC_STREAMS.items():
        stream_dataset, workload = dataset, stream_workload(dataset, skew, pools)
        overrides = {}
        if selectivity is not None:
            stream_dataset, workload = make_filtered_workload(
                dataset, workload, selectivity, np.random.default_rng(23)
            )
            overrides = {"filter_strategy": strategy}
        replayer = WorkloadReplayer(stream_dataset, workload)
        for index_type, line in digest_group(replayer, STATIC_CAPACITIES, overrides, tally).items():
            print("static", name, index_type, line)

    zipf = stream_workload(dataset, 1.1, 2)
    for name, (event, overrides) in DRIFTS.items():
        phase = DynamicWorkload(dataset, events=[event], workload=zipf, seed=0).phase(1)
        replayer = WorkloadReplayer(
            phase.dataset, phase.workload, mutations=phase.mutations, row_ids=phase.row_ids
        )
        for index_type, line in digest_group(replayer, DRIFT_CAPACITIES, overrides, tally).items():
            print("drift", name, index_type, line)

    ratios, re_missed = zip(*tally)
    print(
        f"replays {len(tally)} hit-ratio {min(ratios):.4f}..{max(ratios):.4f} "
        f"re-missed-after-eviction {sum(re_missed)}"
    )


if __name__ == "__main__":
    main()
