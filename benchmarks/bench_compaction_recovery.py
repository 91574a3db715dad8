"""Background maintenance: post-churn QPS recovery without a full rebuild.

The scenario the maintenance subsystem exists for: a serving collection has
part of its corpus deleted (stale content) and fresh rows inserted (trending
content).  The deletes tombstone the touched sealed segments and drop their
per-segment indexes, so those segments are brute-forced — the post-delete
QPS cliff — and the fresh rows land in new, unindexed sealed segments.

Three states are measured with the deterministic cost model:

1. **steady** — the freshly indexed pre-churn collection;
2. **churned** — after the deletes + inserts, maintenance off: the cliff;
3. **maintained** — after one ``run_maintenance()`` pass (compaction +
   per-segment incremental re-indexing; ``create_index`` is *never* called
   again).

Asserts the acceptance criterion of the maintenance subsystem: the
maintained QPS recovers to >= 0.9x the pre-churn steady state, the recovery
is incremental (untouched segments keep their index objects; only a strict
subset of segments is re-indexed), and recall against a brute-force oracle
of the live corpus stays exact throughout (FLAT serving).

A second table replays the same churn through the tuning stack's
mutation-plan path (:class:`repro.workloads.replay.MutationPlan`) for
``maintenance_mode`` in {off, inline, background} — the cliff and its heal
are visible to the tuner, which is what makes the maintenance knobs
tunable.
"""

from __future__ import annotations

import numpy as np
from conftest import register_report

from repro.analysis.reporting import format_table
from repro.datasets.ground_truth import brute_force_neighbors, recall_at_k
from repro.datasets.registry import load_dataset
from repro.vdms import Collection, CostModel, SystemConfig
from repro.workloads.dynamic import DataChurnEvent, DynamicWorkload
from repro.workloads.replay import WorkloadReplayer

DATASET = "glove-small"
TOP_K = 10
CONCURRENCY = 10

#: Several sealed segments per shard, IVF_FLAT probing a fraction of the
#: lists: indexed segments score ~nprobe/nlist of their rows while
#: de-indexed segments are scanned in full — the brute-force cliff is a
#: speed effect (recall on brute-forced segments is actually *exact*, which
#: is why the cliff is so easy to misread as acceptable).
CONFIG = dict(
    shard_num=2,
    segment_max_size=256,
    segment_seal_proportion=0.5,
    insert_buf_size=64,
    graceful_time=10_000,
    compaction_trigger_ratio=0.2,
)
INDEX_TYPE = "IVF_FLAT"
INDEX_PARAMS = {"nlist": 32, "nprobe": 4}


def measure(collection, queries, corpus, corpus_ids):
    """(qps, recall, brute_rows) of the collection's current state."""
    result = collection.search(queries, TOP_K)
    model = CostModel(collection.system_config)
    profile = collection.profile()
    latency, _ = model.query_latency_microseconds(result.stats, profile)
    qps = model.throughput_qps(latency, CONCURRENCY)
    truth = corpus_ids[
        brute_force_neighbors(corpus, queries, TOP_K, collection.metric)
    ]
    recall = recall_at_k(result.ids, truth, TOP_K)
    brute_rows = sum(
        view.index.size
        for shard in collection.shards
        for view in shard.snapshot(collection.metric)
        if not view.indexed
    )
    return qps, recall, brute_rows, profile


def test_compaction_recovery():
    dataset = load_dataset(DATASET)
    vectors = dataset.vectors
    queries = dataset.queries
    num_rows = vectors.shape[0]

    collection = Collection(
        "churny",
        dataset.dimension,
        metric=dataset.metric,
        system_config=SystemConfig(**CONFIG),
        auto_maintenance=False,
    )
    collection.insert(vectors)
    collection.flush()
    collection.create_index(INDEX_TYPE, INDEX_PARAMS)

    corpus_ids = np.arange(num_rows, dtype=np.int64)
    steady_qps, steady_recall, steady_brute, _ = measure(
        collection, queries, vectors, corpus_ids
    )

    # Churn: the oldest 35% of the corpus goes stale, the same volume of
    # fresh content arrives.
    rng = np.random.default_rng(5)
    churn = int(0.35 * num_rows)
    doomed = np.arange(churn, dtype=np.int64)
    fresh = rng.normal(size=(churn, dataset.dimension)).astype(np.float32)
    fresh_ids = np.arange(num_rows, num_rows + churn, dtype=np.int64)
    untouched_indexes = {
        (shard.shard_id, segment_id): index
        for shard in collection.shards
        for segment_id, index in shard.indexes.items()
    }

    collection.delete(doomed)
    collection.insert(fresh, ids=fresh_ids)
    collection.flush()

    live_corpus = np.concatenate([vectors[churn:], fresh], axis=0)
    live_ids = np.concatenate([corpus_ids[churn:], fresh_ids])
    churned_qps, churned_recall, churned_brute, churned_profile = measure(
        collection, queries, live_corpus, live_ids
    )

    report = collection.run_maintenance()
    total_sealed = sum(len(s.segments.sealed_segments) for s in collection.shards)
    maintained_qps, maintained_recall, maintained_brute, maintained_profile = measure(
        collection, queries, live_corpus, live_ids
    )

    rows = [
        ["steady (pre-churn)", round(steady_qps, 1), "1.00", round(steady_recall, 4), steady_brute, "-"],
        [
            "churned, maintenance off",
            round(churned_qps, 1),
            f"{churned_qps / steady_qps:.2f}",
            round(churned_recall, 4),
            churned_brute,
            churned_profile.tombstone_rows,
        ],
        [
            "after run_maintenance()",
            round(maintained_qps, 1),
            f"{maintained_qps / steady_qps:.2f}",
            round(maintained_recall, 4),
            maintained_brute,
            maintained_profile.tombstone_rows,
        ],
    ]
    table = format_table(
        ["state", "QPS", "vs steady", "recall", "brute-forced rows", "tombstones"],
        rows,
        title=(
            f"post-churn recovery on {DATASET} (35% churn, "
            f"{report.segments_compacted} compacted / {report.segments_reindexed} "
            f"re-indexed of {total_sealed} sealed segments, no full rebuild)"
        ),
    )

    # The cliff is real...
    assert churned_qps < 0.9 * steady_qps, (
        f"churn produced no measurable cliff ({churned_qps:.0f} vs {steady_qps:.0f} QPS)"
    )
    # ...and incremental maintenance heals it.
    assert maintained_qps >= 0.9 * steady_qps, (
        f"maintained QPS {maintained_qps:.0f} < 0.9x steady {steady_qps:.0f}"
    )
    # Recovery was incremental: a strict subset of segments was re-indexed
    # and at least one untouched segment kept its exact index object.
    assert 0 < report.segments_reindexed < total_sealed
    survivors = [
        index
        for shard in collection.shards
        for segment_id, index in shard.indexes.items()
        if untouched_indexes.get((shard.shard_id, segment_id)) is index
    ]
    assert survivors, "maintenance rebuilt every index — that is a full rebuild"
    # Healed serving keeps recall parity with the pre-churn steady state
    # (brute-forced segments scan exactly, so the churned state may even
    # score *higher* recall — the cliff is purely a speed regression).
    assert maintained_recall >= steady_recall - 0.05
    assert churned_recall >= maintained_recall - 0.02
    # Compaction reclaimed the tombstoned storage.
    assert maintained_profile.tombstone_rows < churned_profile.tombstone_rows

    # -- the same churn, as the tuner sees it (mutation-plan replays) -----------
    dynamic = DynamicWorkload(
        dataset, events=[DataChurnEvent(at_step=2, severity=0.6)], seed=0
    )
    phase = dynamic.phase(1)
    mode_rows = []
    mode_qps = {}
    for mode in ("off", "inline", "background"):
        replayer = WorkloadReplayer(
            phase.dataset,
            phase.workload,
            mutations=phase.mutations,
            row_ids=phase.row_ids,
        )
        result = replayer.replay(
            {
                "index_type": INDEX_TYPE,
                **INDEX_PARAMS,
                **CONFIG,
                "maintenance_mode": mode,
            }
        )
        mode_qps[mode] = result.qps
        mode_rows.append(
            [
                mode,
                round(result.qps, 1),
                round(result.recall, 4),
                round(result.breakdown.get("maintenance_seconds", 0.0), 2),
                int(result.breakdown.get("segments_reindexed", 0)),
                int(result.breakdown.get("tombstone_rows", 0)),
            ]
        )
    mode_table = format_table(
        ["maintenance_mode", "QPS", "recall", "maint (s)", "re-indexed", "tombstones"],
        mode_rows,
        title=f"churn replay through the tuning stack on {DATASET} (severity 0.6)",
    )
    register_report("compaction recovery - post-churn qps", table + "\n\n" + mode_table)

    # The tuner can tell the healed modes from the cliff.
    assert mode_qps["inline"] > mode_qps["off"]
    assert mode_qps["background"] > mode_qps["off"]
