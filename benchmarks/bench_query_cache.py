"""Tiered query cache: Zipfian traffic speedup and zero staleness.

Two pinned properties of the query cache (:mod:`repro.vdms.cache`):

1. **Skewed traffic pays off.**  The same Zipf(s=1.1) popularity-skewed
   request stream is replayed with the cache off and on (everything else
   identical).  Hot queries repeat, repeats are served from the result tier
   at cache-probe cost, and the measured concurrent QPS must improve by
   >= 3x with the hit ratio reported alongside.

2. **Zero staleness.**  After every mutation batch of an interleaved
   search/insert/delete/maintain schedule, cached answers must be
   bit-identical to a fresh cache-bypassed search of the same request —
   the collection-version key protocol means a hit can never cross a
   mutation.  Uniform traffic must also stay unharmed (no slowdown beyond
   a small tolerance when nothing repeats).

All numbers are the deterministic cost-model QPS, so the assertions are
machine-independent.
"""

from __future__ import annotations

import numpy as np
from conftest import register_report

from repro.analysis.reporting import format_table
from repro.config.milvus_space import default_configuration
from repro.datasets.registry import load_dataset
from repro.vdms.server import VectorDBServer
from repro.vdms.system_config import SystemConfig
from repro.workloads import VDMSTuningEnvironment
from repro.workloads.workload import SearchWorkload

DATASET = "glove-small"
SEED = 0
SKEW = 1.1
#: Stream length as a multiple of the query pool: sustained skewed traffic,
#: where the hit ratio climbs above a single pass over the pool.
STREAM_FACTOR = 4
MIN_SPEEDUP = 3.0
SEARCH_THREADS = 4


def skewed_environment() -> VDMSTuningEnvironment:
    """A tuning environment replaying a Zipf-skewed request stream."""
    dataset = load_dataset(DATASET)
    base = SearchWorkload.from_dataset(dataset, concurrency=10)
    workload = SearchWorkload(
        queries=base.queries,
        ground_truth=base.ground_truth,
        top_k=base.top_k,
        concurrency=base.concurrency,
        popularity_skew=SKEW,
        popularity_requests=STREAM_FACTOR * base.num_queries,
    )
    return VDMSTuningEnvironment(dataset, workload=workload, seed=SEED)


def cache_configuration(environment, policy: str):
    """The default configuration with the scheduler on and the cache set."""
    overrides = {"search_threads": SEARCH_THREADS, "cache_policy": policy}
    if policy != "none":
        overrides["cache_capacity"] = 4096
    return default_configuration(environment.space, overrides=overrides)


def test_cache_speedup_on_zipfian_traffic():
    environment = skewed_environment()
    off = environment.evaluate(cache_configuration(environment, "none"))
    on = environment.evaluate(cache_configuration(environment, "lru"))
    speedup = on.qps / max(off.qps, 1e-9)
    hit_ratio = on.breakdown.get("cache_hit_ratio", 0.0)

    table = format_table(
        ["cache", "QPS", "recall", "hit ratio", "hits", "misses"],
        [
            ["none", round(off.qps, 1), round(off.recall, 4), "-", "-", "-"],
            [
                "lru",
                round(on.qps, 1),
                round(on.recall, 4),
                round(hit_ratio, 4),
                int(on.breakdown.get("cache_hits", 0)),
                int(on.breakdown.get("cache_misses", 0)),
            ],
        ],
        title=(
            f"query cache on Zipf(s={SKEW}) traffic, {DATASET}, "
            f"{STREAM_FACTOR}x pool stream ({speedup:.2f}x speedup)"
        ),
    )
    register_report("query cache speedup", table)

    # Bit-identical serving: the cache may only change *when* work happens,
    # never what is returned.
    assert on.recall == off.recall, (
        f"cache changed recall: {on.recall} != {off.recall}"
    )
    assert hit_ratio > 0.5, f"hit ratio {hit_ratio:.3f} too low for Zipf s={SKEW}"
    assert speedup >= MIN_SPEEDUP, (
        f"cache speedup {speedup:.2f}x < {MIN_SPEEDUP}x at hit ratio {hit_ratio:.3f}"
    )


def test_cache_is_harmless_on_uniform_traffic():
    """With no repeats every request misses; QPS must stay within tolerance."""
    dataset = load_dataset(DATASET)
    environment = VDMSTuningEnvironment(dataset, seed=SEED)
    off = environment.evaluate(cache_configuration(environment, "none"))
    on = environment.evaluate(cache_configuration(environment, "lru"))
    assert on.recall == off.recall
    assert on.breakdown.get("cache_hit_ratio", 0.0) == 0.0
    assert on.qps >= 0.9 * off.qps, (
        f"cache-on uniform QPS {on.qps:.1f} fell more than 10% below "
        f"cache-off {off.qps:.1f}"
    )


def test_zero_staleness_across_mutations():
    """Cached answers stay bit-identical to fresh scans across mutations."""
    dataset = load_dataset(DATASET)
    server = VectorDBServer()
    server.apply_system_config(
        SystemConfig(cache_policy="lru", cache_capacity=1024)
    )
    collection = server.create_collection(
        "bench_cache_staleness", dataset.dimension, metric=dataset.metric
    )
    rng = np.random.default_rng(SEED)
    num_rows = dataset.vectors.shape[0]
    collection.insert(dataset.vectors, ids=np.arange(num_rows))
    collection.flush()
    collection.create_index("IVF_FLAT", {"nlist": 32, "nprobe": 8})

    queries = dataset.queries[:8]
    checked = 0
    for round_index in range(5):
        # Issue the batch twice: the second pass is served from cache.
        collection.search(queries, top_k=10)
        cached = collection.search(queries, top_k=10)
        fresh = collection.search(queries, top_k=10, use_cache=False)
        np.testing.assert_array_equal(cached.ids, fresh.ids)
        np.testing.assert_array_equal(cached.distances, fresh.distances)
        checked += 1
        # Mutate: delete a slice, insert replacements, occasionally heal.
        doomed = rng.choice(num_rows, size=50, replace=False)
        collection.delete(doomed)
        collection.insert(
            rng.standard_normal((50, dataset.dimension)).astype(np.float32),
            ids=np.arange(num_rows + round_index * 50, num_rows + (round_index + 1) * 50),
        )
        collection.flush()
        if round_index % 2 == 1:
            collection.run_maintenance()
        # Post-mutation: a lookup at the new version must recompute, and
        # recomputation must agree with the cache-bypassed scan.
        after = collection.search(queries, top_k=10)
        fresh_after = collection.search(queries, top_k=10, use_cache=False)
        np.testing.assert_array_equal(after.ids, fresh_after.ids)
        np.testing.assert_array_equal(after.distances, fresh_after.distances)
    assert checked == 5
    stats = collection.query_cache.stats
    assert stats.result_hits > 0, "the staleness check never exercised a hit"
