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
  per-segment path.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.vdms import Collection, SearchRequest
from repro.vdms.index import INDEX_REGISTRY, create_index
from repro.vdms.index.base import SearchStats
from repro.vdms.request import SearchPlan, SegmentPlan
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
    return collection._search_snapshot(views, SearchRequest(queries, top_k), plan, planned, True)


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
    if filtered:
        expected_stats.filter_rows_scanned = sum(index.size for index in mixed)
    assert_same(got, (expected_ids, expected_distances, expected_stats), 10)
