"""A run of FLAT-served segments is one scan — and nobody can tell.

``Collection._search_snapshot`` hands a shard's FLAT-served views to
``FlatIndex.search_run``, which answers an unfiltered request with one fused
scan per piece of at most ``MAX_RUN_ROWS`` rows instead of one search per
segment.  The contract is bit-identity with the per-segment path, so every
test here compares against a reference assembled *in the test* from
``view.index.search`` + ``merge_topk`` — the per-segment path spelled out,
which is also exactly what the tie fallback runs:

- ids, distances (values and dtype), ``stats`` and ``shard_stats`` are equal
  for every metric × shard count × id assignment × duplicate layout × k × q,
  over snapshots holding built, tombstoned, freshly sealed and growing
  segments;
- a tie at the selection boundary that straddles segments is answered by
  the per-segment fallback, with the per-segment path's tie-break;
- quantized IVF views keep the per-segment loop beside a fused run (runs of
  IVF_FLAT views are pinned in ``tests/vdms/test_ivf.py``, the protocol over
  every index type in ``tests/vdms/test_search_run.py``);
- a filtered request never enters the fused scan;
- the kernel underneath (``scan_topk`` over a sequence of operands) equals
  per-operand scans laid side by side, across scratch-tile boundaries.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.vdms import AttributeFilter, Collection, SearchRequest, SystemConfig
from repro.vdms.distance import (
    DEFAULT_QUERY_BLOCK,
    DEFAULT_ROW_BLOCK,
    MAX_RUN_ROWS,
    METRICS,
    ScanOperand,
    pairwise_distances,
    scan_topk,
    top_k_select,
)
from repro.vdms.index.base import SearchStats
from repro.vdms.index.flat import FlatIndex
from repro.vdms.sharding import merge_topk

DIMENSION = 16
#: 600 rows indexed, 110 inserted after: 4 freshly sealed segments + a 10-row growing tail.
ROWS = 710
#: 25-row sealed segments at 16 dimensions: ~27 views unsharded, ~10 per shard of 3.
SMALL_SEGMENTS = {"segment_max_size": 16, "segment_seal_proportion": 0.1, "insert_buf_size": 16}


def per_segment_reference(collection: Collection, queries: np.ndarray, top_k: int):
    """The per-segment path, spelled out: ``(ids, distances, stats, shard_stats)``."""
    shard_ids, shard_distances, shard_stats = [], [], []
    for shard in collection.shards:
        stats = SearchStats(num_queries=queries.shape[0])
        lists = [view.index.search(queries, top_k) for view in shard.snapshot(collection.metric)]
        for _, _, segment_stats in lists:
            stats.merge(segment_stats)
        if lists:
            ids, distances = merge_topk(
                [ids for ids, _, _ in lists], [distances for _, distances, _ in lists], top_k
            )
        else:
            ids = np.empty((queries.shape[0], 0), dtype=np.int64)
            distances = np.empty((queries.shape[0], 0))
        shard_ids.append(ids)
        shard_distances.append(distances)
        shard_stats.append(stats)
    ids, distances = merge_topk(shard_ids, shard_distances, top_k)
    total = SearchStats(num_queries=queries.shape[0])
    for stats in shard_stats:
        total.merge(stats)
    return ids, distances, total, shard_stats


def assert_one_piece(views) -> None:
    """Every view is FLAT-served and one fused scan covers them all."""
    assert all(type(view.index) is FlatIndex for view in views)
    assert sum(view.index.size for view in views) <= MAX_RUN_ROWS


def recording_pieces(monkeypatch) -> list[list[int]]:
    """Records the sizes of the indexes of every piece ``FlatIndex`` scans."""
    pieces: list[list[int]] = []
    scan_piece = FlatIndex._scan_piece

    def recording_scan_piece(piece, queries, top_k):
        pieces.append([index.size for index in piece])
        return scan_piece(piece, queries, top_k)

    monkeypatch.setattr(FlatIndex, "_scan_piece", staticmethod(recording_scan_piece))
    return pieces


def assert_same_as_reference(collection: Collection, queries: np.ndarray, top_k: int, label=""):
    result = collection.search(queries, top_k)
    ids, distances, stats, shard_stats = per_segment_reference(collection, queries, top_k)
    assert result.ids.dtype == ids.dtype and np.array_equal(result.ids, ids), label
    assert result.distances.dtype == distances.dtype, label
    assert np.array_equal(result.distances, distances, equal_nan=True), label
    assert astuple(result.stats) == astuple(stats), label
    assert [astuple(s) for s in result.shard_stats] == [astuple(s) for s in shard_stats], label
    return result


def mixed_state_collection(metric: str, shards: int, permuted: bool, duplicates: bool):
    """Built FLAT segments, tombstoned ones, a freshly sealed one and a growing tail."""
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(ROWS, DIMENSION)).astype(np.float32)
    if duplicates:
        # 60 exact copies scattered over the second half: most pairs straddle
        # a segment boundary, many a shard boundary.
        sources = rng.choice(ROWS // 2, size=60, replace=False)
        targets = rng.choice(np.arange(ROWS // 2, ROWS), size=60, replace=False)
        vectors[targets] = vectors[sources]
        vectors[5] = 0.0
    ids = rng.permutation(ROWS * 3)[:ROWS].astype(np.int64) if permuted else np.arange(ROWS)
    config = SystemConfig(shard_num=shards, **SMALL_SEGMENTS)
    collection = Collection(
        "fused", DIMENSION, metric=metric, system_config=config, auto_maintenance=False
    )
    collection.insert(vectors[:600], ids=ids[:600] if permuted else None)
    collection.flush()
    collection.create_index("FLAT", {})
    collection.delete(ids[100:140])
    collection.insert(vectors[600:], ids=ids[600:] if permuted else None)
    collection.flush()
    return collection, vectors


@pytest.mark.parametrize("duplicates", (False, True), ids=("distinct", "duplicates"))
@pytest.mark.parametrize("permuted", (False, True), ids=("auto-ids", "permuted-ids"))
@pytest.mark.parametrize("shards", (1, 3))
@pytest.mark.parametrize("metric", METRICS)
def test_fused_runs_are_bit_identical_to_the_per_segment_path(
    metric, shards, permuted, duplicates
):
    collection, vectors = mixed_state_collection(metric, shards, permuted, duplicates)
    segments = [s for shard in collection.shards for s in shard.segments.sealed_segments]
    assert any(s.tombstones is not None for s in segments), "no tombstoned segment"
    assert any(shard.segments.growing_segments for shard in collection.shards), "no growing tail"
    for shard in collection.shards:
        views = shard.snapshot(metric)
        assert len(views) > 2
        assert_one_piece(views)

    rng = np.random.default_rng(5)
    for q in (1, 33, DEFAULT_QUERY_BLOCK + 6):
        queries = rng.normal(size=(q, DIMENSION)).astype(np.float32)
        if duplicates:
            # Queries sitting exactly on stored (and copied) rows: exact-zero ties.
            queries[: min(q, 8)] = vectors[: min(q, 8)]
        for top_k in (1, 10, ROWS + 50):
            assert_same_as_reference(collection, queries, top_k, f"q={q} k={top_k}")


def tied_collection(ids_by_segment: list[list[int]]) -> tuple[Collection, np.ndarray]:
    """One shard; segment *i* starts with copies of one vector under ``ids_by_segment[i]``."""
    rng = np.random.default_rng(3)
    target = rng.normal(size=DIMENSION).astype(np.float32)
    collection = Collection(
        "tied", DIMENSION, metric="l2", system_config=SystemConfig(**SMALL_SEGMENTS),
        auto_maintenance=False,
    )
    rows_per_segment = collection.system_config.sealed_segment_rows(DIMENSION)
    next_id = 1000
    for copies in ids_by_segment:
        vectors = rng.normal(size=(rows_per_segment, DIMENSION)).astype(np.float32)
        vectors[: len(copies)] = target
        ids = np.arange(next_id, next_id + rows_per_segment)
        ids[: len(copies)] = copies
        next_id += rows_per_segment
        collection.insert(vectors, ids=ids)
    collection.flush()
    collection.create_index("FLAT", {})
    views = collection.shards[0].snapshot("l2")
    assert_one_piece(views)
    assert len(views) >= len(ids_by_segment)
    return collection, target


@pytest.mark.parametrize(
    "ids_by_segment, expected",
    [
        # The tie straddles two segments.  Per segment, positions 0-1 survive
        # the top-2; the merge then prefers the smaller ids.  One select over
        # the whole run would keep global positions 0-1: ids 40, 50.
        ([[50, 40], [30, 20]], [20, 30]),
        # The tie sits in one segment.  Its top-2 keeps *positions* 0-1
        # (ids 50, 40) and never shows 30 or 20 to the merge — which a
        # global (distance, id) select would have returned.
        ([[50, 40, 30, 20], []], [40, 50]),
    ],
)
def test_boundary_tie_is_answered_by_the_per_segment_fallback(
    ids_by_segment, expected, monkeypatch
):
    collection, target = tied_collection(ids_by_segment)
    searched: list[int] = []
    search = FlatIndex.search

    def counting_search(index, queries, top_k, **kwargs):
        searched.append(queries.shape[0])
        return search(index, queries, top_k, **kwargs)

    rng = np.random.default_rng(8)
    queries = rng.normal(size=(5, DIMENSION)).astype(np.float32)
    queries[2] = target
    views = len(collection.shards[0].snapshot("l2"))

    monkeypatch.setattr(FlatIndex, "search", counting_search)
    result = collection.search(queries, 2)
    monkeypatch.undo()
    # Only the tied query was re-run, once through every index of the run.
    assert searched == [1] * views
    assert result.ids[2].tolist() == expected
    assert result.distances[2].tolist() == [0.0, 0.0]
    assert_same_as_reference(collection, queries, 2)

    # Without a tie at the boundary (k covers all four copies) nothing is re-run.
    monkeypatch.setattr(FlatIndex, "search", counting_search)
    del searched[:]
    collection.search(queries, 4)
    assert searched == []


def test_ivf_views_keep_the_per_segment_loop_beside_a_fused_run(monkeypatch):
    # A quantized IVF type: IVF_FLAT views fuse into a run of their own
    # (tests/vdms/test_ivf.py::TestRuns), the quantized three never do.
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(ROWS, DIMENSION)).astype(np.float32)
    collection = Collection(
        "mixed", DIMENSION, metric="angular", system_config=SystemConfig(**SMALL_SEGMENTS),
        auto_maintenance=False,
    )
    collection.insert(vectors[:500])
    collection.flush()
    collection.create_index("IVF_SQ8", {"nlist": 4, "nprobe": 2})
    collection.insert(vectors[500:540])
    collection.flush()  # one freshly sealed, unindexed segment + a growing tail
    views = collection.shards[0].snapshot("angular")
    flat_served = [view for view in views if type(view.index) is FlatIndex]
    assert len(flat_served) == 2 and not any(view.indexed for view in flat_served)
    assert len(views) - len(flat_served) >= 10

    searched: list[str] = []
    for cls in {type(view.index) for view in views}:
        def counting_search(index, queries, top_k, _search=cls.search, **kwargs):
            searched.append(index.index_type)
            return _search(index, queries, top_k, **kwargs)

        monkeypatch.setattr(cls, "search", counting_search)
    queries = rng.normal(size=(9, DIMENSION)).astype(np.float32)
    result = collection.search(queries, 10)
    monkeypatch.undo()
    assert searched == ["IVF_SQ8"] * (len(views) - 2)  # the FLAT pair went fused
    assert result.stats.segments_searched == 9 * len(views)
    for top_k in (1, 10, ROWS):
        assert_same_as_reference(collection, queries, top_k)


def test_filtered_request_never_takes_the_fused_path(monkeypatch):
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(400, DIMENSION)).astype(np.float32)
    collection = Collection(
        "filtered", DIMENSION, metric="l2", system_config=SystemConfig(**SMALL_SEGMENTS),
        auto_maintenance=False,
    )
    collection.insert(vectors, attributes={"parity": (np.arange(400) % 2).astype(np.int64)})
    collection.flush()
    collection.create_index("FLAT", {})
    fused_calls = recording_pieces(monkeypatch)
    queries = rng.normal(size=(4, DIMENSION)).astype(np.float32)
    for strategy in ("pre", "post", "auto"):
        request = SearchRequest(
            queries, 5, filter=AttributeFilter("parity", "eq", 1), filter_strategy=strategy
        )
        result = collection.search(request)
        assert (result.ids % 2 == 1).all()
    assert fused_calls == []
    collection.search(queries, 5)  # the control: unfiltered, the same snapshot does fuse
    assert len(fused_calls) == 1 and len(fused_calls[0]) > 2


def test_a_run_is_cut_at_the_row_cap(monkeypatch):
    collection, _ = mixed_state_collection("l2", 1, True, True)
    views = collection.shards[0].snapshot("l2")
    queries = np.random.default_rng(6).normal(size=(7, DIMENSION)).astype(np.float32)
    # 25-row segments: a cap of 60 pairs them up (13 fused pieces cover every
    # view), a cap of 40 leaves each full segment to its own search beside two
    # short fused pieces.
    for cap, every_view_fused in ((60, True), (40, False)):
        monkeypatch.setattr("repro.vdms.index.flat.MAX_RUN_ROWS", cap)
        pieces = recording_pieces(monkeypatch)
        collection.search(queries, 10, use_cache=False)
        assert len(pieces) > 1 and sum(map(len, pieces)) == len(views)
        assert all(len(piece) == 1 or sum(piece) <= cap for piece in pieces)
        assert sum(len(piece) > 1 for piece in pieces) > 1
        assert all(len(piece) > 1 for piece in pieces) is every_view_fused
        for top_k in (1, 10, ROWS):
            assert_same_as_reference(collection, queries, top_k, f"cap={cap} k={top_k}")


class TestScanTopk:
    @pytest.mark.parametrize("metric", METRICS)
    def test_sequence_of_operands_equals_side_by_side_scans(self, metric):
        """Across scratch-tile boundaries: runs that overflow one
        ``row_block`` group, an operand larger than a group, an empty one."""
        rng = np.random.default_rng(1)
        sizes = (3000, 3000, 3000, 0, DEFAULT_ROW_BLOCK + 808, 17)
        operands = [
            ScanOperand.prepare(rng.normal(size=(rows, 8)).astype(np.float32), metric)
            for rows in sizes
        ]
        queries = rng.normal(size=(DEFAULT_QUERY_BLOCK + 3, 8)).astype(np.float32)
        side_by_side = np.concatenate(
            [pairwise_distances(queries, operand, metric) for operand in operands], axis=1
        )
        for top_k in (1, 10, sum(sizes) + 1):
            positions, ordered, settled = scan_topk(queries, operands, top_k, metric)
            expected_positions, expected = top_k_select(side_by_side, top_k)
            assert ordered.dtype == np.float32
            assert np.array_equal(ordered, expected)
            assert np.array_equal(positions, expected_positions)
            assert settled.all()

    def test_settled_flags_exactly_the_tied_and_non_finite_boundaries(self):
        stored = np.zeros((6, 2), dtype=np.float32)
        stored[:, 0] = [0.0, 1.0, 1.0, 2.0, 3.0, 3.0]
        operands = [ScanOperand.prepare(stored[:3], "l2"), ScanOperand.prepare(stored[3:], "l2")]
        queries = np.zeros((2, 2), dtype=np.float32)
        queries[1] = np.nan
        for top_k, unique in ((1, True), (2, False), (3, True), (4, True), (5, False), (6, True)):
            positions, _, settled = scan_topk(queries, operands, top_k, "l2")
            assert settled.tolist() == [unique, False], top_k
            assert positions[0].tolist() == list(range(top_k))
