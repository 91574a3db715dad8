"""Sharded serving engine: multi-shard search throughput vs the serial baseline.

Replays the same workload at increasing shard counts, sizing the query
execution pool to match (``search_threads == shard_num``), and compares the
*measured* concurrent throughput — the deterministic event-simulated schedule
of per-shard tasks over the execution pool (see
:meth:`repro.vdms.cost_model.CostModel.concurrent_qps`) — against the
1-shard serial baseline (one request at a time, no execution pool).

Segment sizing matters: shards seal segments independently, so the bench
co-sizes ``segment_max_size`` with the shard count the way a tuner would
(rows per shard stay above the seal threshold; otherwise every row is
served from the growing buffer and sharding only adds overhead — exactly
the interdependence the tuning space now lets VDTuner discover).

Asserts the acceptance criterion of the sharded engine: >= 2x measured
search throughput at 4 shards + 4 threads over the 1-shard serial baseline,
with recall at parity.  Real wall-clock seconds of the replay are reported
for context only (this harness may run on a single core; the
simulated schedule is the machine-independent measure).
"""

from __future__ import annotations

import time

from conftest import register_report

from repro.analysis.reporting import format_table
from repro.datasets.registry import load_dataset
from repro.workloads.replay import WorkloadReplayer
from repro.workloads.workload import SearchWorkload

DATASET = "glove-small"
TOPOLOGIES = ((1, 1), (2, 2), (4, 4), (8, 8))

#: Shared base configuration: IVF_FLAT sized so every shard seals segments,
#: query_node_threads=1 so shard fan-out (not intra-query threading) is the
#: parallelism under test.
BASE_PARAMS = {
    "index_type": "IVF_FLAT",
    "nlist": 64,
    "nprobe": 8,
    "segment_max_size": 125,
    "insert_buf_size": 64,
    "graceful_time": 10_000,
    "query_node_threads": 1,
}


def test_sharded_search_speedup():
    dataset = load_dataset(DATASET)
    workload = SearchWorkload.from_dataset(dataset, concurrency=1)
    replayer = WorkloadReplayer(dataset, workload)

    rows = []
    results = {}
    for shard_num, search_threads in TOPOLOGIES:
        params = dict(BASE_PARAMS, shard_num=shard_num, search_threads=search_threads)
        started = time.perf_counter()
        result = replayer.replay(params)
        wall = time.perf_counter() - started
        results[(shard_num, search_threads)] = result
        baseline = results[TOPOLOGIES[0]]
        rows.append(
            [
                f"{shard_num} x {search_threads}",
                round(result.qps, 1),
                round(result.qps / baseline.qps, 2),
                round(result.recall, 4),
                round(result.latency_ms, 2),
                round(wall, 2),
            ]
        )

    table = format_table(
        ["shards x threads", "measured QPS", "speedup", "recall", "latency (ms)", "wall (s)"],
        rows,
        title=f"sharded scatter-gather search on {DATASET} (serial baseline = 1 x 1)",
    )
    register_report("sharded search speedup", table)

    baseline = results[(1, 1)]
    four = results[(4, 4)]
    speedup = four.qps / baseline.qps
    assert speedup >= 2.0, f"4 shards + 4 threads speedup {speedup:.2f}x < 2x"
    assert four.recall >= baseline.recall - 0.02
    # More shards must keep splitting the work while threads can absorb them.
    two = results[(2, 2)]
    assert baseline.qps < two.qps < four.qps
