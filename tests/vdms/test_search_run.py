"""Every index type answers a shard's segments through one ``search_run``.

``Collection._search_snapshot`` groups a shard's views by the concrete type
of their index and hands each group to that type's
``VectorIndex.search_run(run, queries, top_k, options)``.  The contract is
that nobody can tell it from the per-segment path:

- for each of the seven index types, in runs of one, two and five indexes,
  unfiltered and with mixed pre / post / all-false options, ``search_run``
  equals each member's ``search`` plus ``merge_topk`` once both lists go
  through the collection's merge over shards — ids, distance bytes and
  dtype, and counted work;
- a snapshot mixing index types makes exactly one ``search_run`` call per
  concrete type, in order of first appearance, and still equals the
  per-segment path;
- counted work is per query: for each type, unfiltered, pre, post, auto and
  all-false, in a run of one and a fused run, row ``i`` of a batch's stats
  equals query ``i`` searched alone (a tied query included), and the rows
  sum to the totals.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.vdms import Collection
from repro.vdms.index import INDEX_REGISTRY, create_index
from repro.vdms.index.base import COUNTERS, SearchStats
from repro.vdms.request import AUTO_PRE_FILTER_SELECTIVITY, SearchPlan, SegmentPlan
from repro.vdms.sharding import SegmentView, merge_topk

DIMENSION = 8
IVF = {"nlist": 4, "nprobe": 2}
INDEX_PARAMS = {
    "FLAT": {},
    "HNSW": {},
    "AUTOINDEX": {},
    "IVF_FLAT": IVF,
    "IVF_SQ8": IVF,
    "IVF_PQ": {**IVF, "pq_m": 4, "pq_nbits": 2},
    "SCANN": {**IVF, "reorder_k": 5},
}


def build_run(index_type, metric, members, first_id=0, seed=0):
    """``members`` built indexes of 12-39 rows under distinct permuted ids;
    a fifth of the later members' rows copy first-member rows."""
    rng = np.random.default_rng([seed, members, len(index_type)])
    sizes = rng.integers(12, 40, size=members)
    ends = np.cumsum(sizes)
    vectors = rng.normal(size=(ends[-1], DIMENSION)).astype(np.float32)
    copies = rng.choice(np.arange(sizes[0], ends[-1]), size=(ends[-1] - sizes[0]) // 5, replace=False)
    vectors[copies] = vectors[rng.integers(0, sizes[0], size=copies.size)]
    ids = first_id + rng.permutation(ends[-1] * 3)[: ends[-1]]
    run = []
    for start, stop in zip(ends - sizes, ends):
        index = create_index(index_type, metric=metric, **INDEX_PARAMS[index_type])
        index.build(vectors[start:stop], ids[start:stop])
        run.append(index)
    return run, vectors


def queries_for(vectors, num_queries=9, seed=3):
    """Queries on the first stored rows (copied by later members), a NaN one, random ones."""
    queries = np.random.default_rng(seed).normal(size=(num_queries, DIMENSION)).astype(np.float32)
    queries[:3] = vectors[:3]
    queries[3, 2] = np.nan
    return queries


def mixed_options(run, seed=5):
    """``pre``, ``post``, an all-false ``pre``, a dense ``pre``, a sparse ``pre`` — cut to the run."""
    rng = np.random.default_rng([seed, len(run)])
    shares = (0.4, 0.4, 0.0, 0.9, 0.1)
    strategies = ("pre", "post", "pre", "pre", "pre")
    options = []
    for index, share, strategy in zip(run, shares, strategies):
        mask = rng.random(index.size) < share
        mask[0] = share > 0
        options.append({"allow_mask": mask, "strategy": strategy, "overfetch_factor": 2.0})
    return options


def per_member(run, queries, top_k, options):
    """The per-segment path spelled out: each member's search, then one merge."""
    stats = SearchStats(num_queries=queries.shape[0])
    lists = []
    for index, option in zip(run, options or [{}] * len(run)):
        ids, distances, member_stats = index.search(queries, top_k, **option)
        stats.merge(member_stats)
        lists.append((ids, distances))
    ids, distances = merge_topk([ids for ids, _ in lists], [found for _, found in lists], top_k)
    return ids, distances, stats


def assert_same(got, expected, top_k):
    """Equal after the collection's merge over shards, which every answer takes.

    Both sides arrive merged at least once: a shard's list after
    ``_search_snapshot``'s merge, the reference after its own.  (A NaN
    distance is listed under id -1 by one merge and becomes inf in the next.)
    """
    ids, distances = merge_topk([got[0]], [got[1]], top_k)
    expected_ids, expected_distances = merge_topk([expected[0]], [expected[1]], top_k)
    assert ids.dtype == expected_ids.dtype and np.array_equal(ids, expected_ids)
    assert distances.dtype == expected_distances.dtype
    assert distances.tobytes() == expected_distances.tobytes()
    assert astuple(got[2]) == astuple(expected[2])


@pytest.mark.parametrize("filtered", (False, True), ids=("unfiltered", "mixed-options"))
@pytest.mark.parametrize("members", (1, 2, 5))
@pytest.mark.parametrize("metric", ("angular", "l2", "ip"))
@pytest.mark.parametrize("index_type", sorted(INDEX_PARAMS))
def test_search_run_equals_member_searches_and_merge(index_type, metric, members, filtered):
    run, vectors = build_run(index_type, metric, members)
    options = mixed_options(run) if filtered else None
    queries = queries_for(vectors)
    for top_k in (1, 10, sum(index.size for index in run) + 5):
        ids, distances, stats = type(run[0]).search_run(run, queries, top_k, options)
        # The snapshot's merge over its groups, here a group of one.
        ids, distances = merge_topk([ids], [distances], top_k)
        assert_same((ids, distances, stats), per_member(run, queries, top_k, options), top_k)


def test_every_index_type_is_covered():
    assert set(INDEX_PARAMS) == set(INDEX_REGISTRY)


def snapshot_search(run, queries, top_k, options=None):
    """``Collection._search_snapshot`` over one view per index of ``run``."""
    collection = Collection("run", DIMENSION, metric=run[0].metric, auto_maintenance=False)
    views = [SegmentView(number, index, {}, True) for number, index in enumerate(run)]
    plan = planned = None
    if options is not None:
        plan = SearchPlan(strategy="auto", overfetch_factor=2.0)
        planned = [
            (
                option["allow_mask"],
                SegmentPlan(
                    0, number, option["strategy"], option["allow_mask"].mean(),
                    int(option["allow_mask"].sum()), index.size, True,
                ),
            )
            for number, (index, option) in enumerate(zip(run, options))
        ]
    return collection._search_snapshot(views, queries, top_k, plan, planned)


def counting_search_run(monkeypatch, classes):
    """Records ``(index type, run length)`` of every ``search_run`` call on ``classes``."""
    calls = []
    originals = {cls: cls.search_run.__func__ for cls in classes}
    for cls, original in originals.items():

        def counting(kind, run, *args, _original=original):
            calls.append((kind.index_type, len(run)))
            return _original(kind, run, *args)

        monkeypatch.setattr(cls, "search_run", classmethod(counting))
    return calls


@pytest.mark.parametrize("filtered", (False, True), ids=("unfiltered", "mixed-options"))
def test_a_mixed_snapshot_makes_one_call_per_index_type(monkeypatch, filtered):
    groups = {
        index_type: build_run(index_type, "l2", members, first_id=10_000 * number)[0]
        for number, (index_type, members) in enumerate(
            (("IVF_FLAT", 5), ("IVF_SQ8", 2), ("FLAT", 3), ("HNSW", 1))
        )
    }
    # Interleaved: IVF_SQ8 first, then the others as they come.
    mixed = [
        groups["IVF_SQ8"][0], groups["IVF_FLAT"][0], groups["FLAT"][0], groups["IVF_FLAT"][1],
        groups["HNSW"][0], groups["IVF_FLAT"][2], groups["FLAT"][1], groups["IVF_SQ8"][1],
        groups["IVF_FLAT"][3], groups["FLAT"][2], groups["IVF_FLAT"][4],
    ]
    options = None
    if filtered:
        # Each type's members carry the mixed options (post, all-false, ...).
        by_type = {index_type: iter(mixed_options(run)) for index_type, run in groups.items()}
        options = [next(by_type[index.index_type]) for index in mixed]
    queries = queries_for(np.concatenate([index._vectors for index in mixed]))
    calls = counting_search_run(monkeypatch, {type(index) for index in mixed})
    got = snapshot_search(mixed, queries, 10, options)
    assert calls == [("IVF_SQ8", 2), ("IVF_FLAT", 5), ("FLAT", 3), ("HNSW", 1)]
    monkeypatch.undo()
    expected_ids, expected_distances, expected_stats = per_member(mixed, queries, 10, options)
    assert_same(got, (expected_ids, expected_distances, expected_stats), 10)


# -- per-query counted work ------------------------------------------------------

#: How a run's members are searched: unfiltered, every member pre or post, each
#: member's strategy resolved by selectivity as the ``auto`` planner does, or
#: every mask all-false.
STRATEGIES = ("unfiltered", "pre", "post", "auto", "all-false")


def tied_run(index_type, members, seed=0):
    """``members`` indexes of 14-29 rows; a shared vector is stored twice in each."""
    rng = np.random.default_rng([seed, members, len(index_type)])
    shared = rng.normal(size=DIMENSION).astype(np.float32)
    run = []
    for number in range(members):
        vectors = rng.normal(size=(int(rng.integers(14, 30)), DIMENSION)).astype(np.float32)
        vectors[:2] = shared
        index = create_index(index_type, metric="l2", **INDEX_PARAMS[index_type])
        index.build(vectors, 1000 * number + np.arange(vectors.shape[0]))
        run.append(index)
    queries = rng.normal(size=(5, DIMENSION)).astype(np.float32)
    queries[2] = shared  # tied: its nearest distance is held by two rows of each member
    queries[4] = -4 * shared  # far from the shared rows: probes other lists
    return run, queries


def strategy_options(run, strategy, seed=7):
    """One :meth:`VectorIndex.search` option dict per member, ``None`` unfiltered."""
    if strategy == "unfiltered":
        return None
    rng = np.random.default_rng([seed, len(run)])
    options = []
    for number, index in enumerate(run):
        share = (0.1, 0.6, 0.3)[number % 3]
        mask = rng.random(index.size) < share
        mask[:2] = True
        if number == 0:
            # Only the shared rows: a query probing other lists finds nothing.
            mask[2:] = False
        if strategy == "all-false":
            mask[:] = False
        resolved = strategy
        if strategy == "auto":
            resolved = "pre" if mask.mean() <= AUTO_PRE_FILTER_SELECTIVITY else "post"
        elif strategy == "all-false":
            resolved = "pre"
        options.append({"allow_mask": mask, "strategy": resolved, "overfetch_factor": 2.0})
    return options


@pytest.mark.parametrize("members", (1, 3), ids=("run-of-one", "fused-run"))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("index_type", sorted(INDEX_PARAMS))
def test_each_query_counts_what_it_costs_searched_alone(index_type, strategy, members):
    run, queries = tied_run(index_type, members)
    options = strategy_options(run, strategy)
    for top_k in (1, 4):
        _, _, stats = type(run[0]).search_run(run, queries, top_k, options)
        assert stats.num_queries == queries.shape[0]
        totals = np.zeros(len(COUNTERS), dtype=np.int64)
        for query in range(queries.shape[0]):
            _, _, alone = type(run[0]).search_run(run, queries[query : query + 1], top_k, options)
            assert stats.slice(query, query + 1) == alone, (query, alone)
            totals += alone.per_query[0]
        assert astuple(stats) == (queries.shape[0], *totals.tolist())
