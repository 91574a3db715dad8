"""Kernel-rework properties: blocked scans, cached operands, masked modes.

The distance-kernel rework trades per-call casts for cached state and tiled
GEMMs, which is only admissible because every variant is *bit-identical* to
the reference kernel (the determinism contract in
:mod:`repro.vdms.distance`).  These tests pin that contract:

- blocked scans equal the unblocked kernel for every metric across tile
  shapes (including degenerate 1-row tiles);
- :class:`ScanOperand` caching and gathering (``take``) never change a bit;
- :class:`QueryOperand` (the query side prepared once for many hops) scores
  gathered rows with the bits of a one-query kernel call, from one operand
  or from a stack of several, each query against its own;
- cached norms survive the segment lifecycle (seal -> tombstone ->
  compaction) with searches bit-identical to a freshly built collection;
- masked scans agree between gather-then-GEMM and dense-scan-then-mask;
- ``top_k_select``'s ambiguous-boundary band re-fill matches a full stable
  sort on duplicate-heavy inputs;
- ``merge_topk`` preserves float32 through the merge;
- zero-copy snapshots serve frozen sealed arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.ground_truth import masked_brute_force_neighbors
from repro.vdms import distance
from repro.vdms.collection import Collection
from repro.vdms.distance import (
    MASK_DENSE_SCAN_SELECTIVITY,
    METRICS,
    QueryOperand,
    ScanOperand,
    masked_topk,
    nonempty_spans,
    pairwise_distances,
    pairwise_distances_blocked,
    prepare_vectors,
    top_k_select,
)
from repro.vdms.index.flat import FlatIndex
from repro.vdms.index.ivf_sq8 import IVFSQ8Index
from repro.vdms.request import AttributeFilter, SearchRequest
from repro.vdms.sharding import merge_topk
from repro.vdms.system_config import SystemConfig


def _corpus(metric: str, rows: int = 400, dim: int = 24, seed: int = 0):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((rows, dim)).astype(np.float32)
    queries = rng.standard_normal((7, dim)).astype(np.float32)
    return prepare_vectors(vectors, metric), prepare_vectors(queries, metric)


class TestBlockedScan:
    @pytest.mark.parametrize("metric", METRICS)
    def test_blocked_bit_identical_across_tile_shapes(self, metric):
        stored, queries = _corpus(metric)
        reference = pairwise_distances(queries, stored, metric)
        n = stored.shape[0]
        for query_block in (1, 7, 64, queries.shape[0]):
            for row_block in (1, 7, 64, n):
                tiled = pairwise_distances_blocked(
                    queries, stored, metric,
                    query_block=query_block, row_block=row_block,
                )
                assert tiled.dtype == reference.dtype
                assert np.array_equal(tiled, reference), (metric, query_block, row_block)

    @pytest.mark.parametrize("metric", METRICS)
    def test_blocked_accepts_operand_and_out(self, metric):
        stored, queries = _corpus(metric)
        reference = pairwise_distances(queries, stored, metric)
        operand = ScanOperand.prepare(stored, metric)
        out = np.empty_like(reference)
        result = pairwise_distances_blocked(queries, operand, metric, out=out)
        assert result is out
        assert np.array_equal(out, reference)


class TestScanOperand:
    @pytest.mark.parametrize("metric", METRICS)
    def test_operand_matches_raw_kernel(self, metric):
        stored, queries = _corpus(metric)
        operand = ScanOperand.prepare(stored, metric)
        assert np.array_equal(
            pairwise_distances(queries, operand, metric),
            pairwise_distances(queries, stored, metric),
        )
        # Materialization is idempotent and does not change results.
        operand.materialize()
        assert operand.is_materialized
        assert np.array_equal(
            pairwise_distances(queries, operand, metric),
            pairwise_distances(queries, stored, metric),
        )

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("materialize_first", [False, True])
    def test_take_matches_fresh_gather(self, metric, materialize_first):
        stored, queries = _corpus(metric)
        operand = ScanOperand.prepare(stored, metric)
        if materialize_first:
            operand.materialize()
        positions = np.array([3, 3, 0, 399, 17], dtype=np.int64)
        gathered = operand.take(positions)
        assert np.array_equal(
            pairwise_distances(queries, gathered, metric),
            pairwise_distances(queries, stored[positions], metric),
        )


class TestQueryOperand:
    @pytest.mark.parametrize("metric", METRICS)
    def test_gather_scan_matches_one_query_kernel_call(self, metric):
        # What a graph hop was: one query against operand.take(positions).
        stored, queries = _corpus(metric)
        stored[7] = stored[3]
        stored[11] = 0.0
        queries[2] = stored[3]
        operand = ScanOperand.prepare(stored, metric)
        prepared = QueryOperand(queries, metric)
        for positions in ([5], np.array([3, 7, 11, 0, 399, 17, 250], dtype=np.int64)):
            for row in range(queries.shape[0]):
                hop = prepared.gather_scan(row, operand, positions)
                reference = pairwise_distances(queries[row][None, :], operand.take(positions), metric)[0]
                assert hop.dtype == reference.dtype == np.float32
                assert hop.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dimension", [1, 2, 3, 32, 100, 128])
    @pytest.mark.parametrize("metric", METRICS)
    def test_gather_products_match_one_query_kernel_calls(self, metric, dimension):
        # Each query's GEMV (an ``ndarray.dot`` of its gathered rows) is the
        # product, and after the finish the distance, of one kernel call on
        # that query and ``operand.take`` of its rows — for runs of 0, 1 and
        # many rows, written at the offsets asked for.
        stored, queries = _corpus(metric, rows=60, dim=dimension)
        stored[7] = stored[3]
        queries[2] = stored[3]
        operand = ScanOperand.prepare(stored, metric)
        prepared = QueryOperand(queries, metric)
        rng = np.random.default_rng(dimension)
        counts = [0, 1, 23, 0, 1, 60, 2]
        runs = [rng.integers(0, 60, size=count) for count in counts]
        positions = np.concatenate(runs)
        starts = np.cumsum([0] + counts[:-1]) + np.arange(len(counts))  # a gap after each run
        products = np.full((1, int(starts[-1]) + counts[-1] + 1), np.nan)
        prepared.gather_products(range(len(counts)), counts, operand, positions, products, starts.tolist())
        flat = prepared.gather_scan_runs(range(len(counts)), counts, operand, positions)
        stop = 0
        for row, (run, start) in enumerate(zip(runs, starts.tolist())):
            begin, stop = stop, stop + run.size
            taken = operand.take(run)
            product = prepared.queries64[row : row + 1] @ taken.vectors64.T
            assert products[0, start : start + run.size].tobytes() == product[0].tobytes()
            reference = pairwise_distances(queries[row][None, :], taken, metric)[0]
            assert flat[begin:stop].tobytes() == reference.tobytes()
        assert np.isnan(products[0, starts[1:] - 1]).all()  # the gaps stay unwritten

    @pytest.mark.parametrize("metric", METRICS)
    def test_gathers_from_a_stack_match_each_operands_own_scan(self, metric):
        # Three ragged operands stacked as one with zero rows between them;
        # queries owning runs of each, in mixed order and in operand order.
        rng = np.random.default_rng(5)
        operands = []
        for rows in (40, 7, 25):
            stored, _ = _corpus(metric, rows=rows, dim=32, seed=rows)
            operands.append(ScanOperand.prepare(stored, metric))
        starts = [0, 45, 52]
        stacked = ScanOperand.stack(operands, starts, 80)
        assert stacked.vectors64.shape == (80, 32) and not stacked.vectors64[40:45].any()
        _, queries = _corpus(metric, dim=32)
        prepared = QueryOperand(queries, metric)
        for owners in ([2, 0, 1, 0, 2, 1, 0], [0, 0, 1, 1, 1, 2, 2]):
            counts = [3, 0, 7, 1, 12, 2, 5]
            runs = [rng.integers(0, operands[owner].shape[0], size=count) for owner, count in zip(owners, counts)]
            positions = np.concatenate([run + starts[owner] for owner, run in zip(owners, runs)])
            flat = prepared.gather_scan_runs(range(len(owners)), counts, stacked, positions)
            stop = 0
            for row, (owner, run) in enumerate(zip(owners, runs)):
                begin, stop = stop, stop + run.size
                reference = pairwise_distances(queries[row][None, :], operands[owner].take(run), metric)[0]
                assert flat[begin:stop].tobytes() == reference.tobytes()
            assert stop == flat.size

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            QueryOperand(np.zeros((1, 4), dtype=np.float32), "cosine")


@pytest.fixture
def dense_scans(monkeypatch):
    """Count the masked scans that go dense: only that path calls the blocked kernel."""
    calls = []
    blocked = distance.pairwise_distances_blocked

    def counted(*args, **kwargs):
        calls.append(1)
        return blocked(*args, **kwargs)

    monkeypatch.setattr(distance, "pairwise_distances_blocked", counted)
    return calls


def _masked_topk_with_mode(dense_scans, *args):
    """``masked_topk``'s result and the mode it took, ``"select"`` or ``"dense"``."""
    before = len(dense_scans)
    positions, ordered = masked_topk(*args)
    return positions, ordered, "dense" if len(dense_scans) > before else "select"


class TestMaskedScanModes:
    @pytest.mark.parametrize("metric", METRICS)
    def test_select_and_dense_modes_bit_identical(self, metric, dense_scans):
        stored, queries = _corpus(metric)
        rng = np.random.default_rng(1)
        operand = ScanOperand.prepare(stored, metric)
        for selectivity in (0.02, 0.3, 0.8, 1.0):
            mask = rng.random(stored.shape[0]) < selectivity
            if not mask.any():
                mask[0] = True
            positions, ordered, mode = _masked_topk_with_mode(
                dense_scans, queries, operand, mask, 10, metric
            )
            assert mode == ("dense" if selectivity >= MASK_DENSE_SCAN_SELECTIVITY else "select")
            # Either mode agrees with the seed approach: full scan, then drop.
            full = pairwise_distances(queries, stored, metric)
            full[:, ~mask] = np.inf
            keep = min(10, int(np.count_nonzero(mask)))
            ref_pos, ref_ord = top_k_select(full, keep)
            assert np.array_equal(positions, ref_pos)
            assert np.array_equal(ordered, ref_ord)

    def test_auto_mode_follows_crossover(self, dense_scans):
        stored, queries = _corpus("l2")
        operand = ScanOperand.prepare(stored, "l2")
        sparse = np.zeros(stored.shape[0], dtype=bool)
        sparse[:5] = True
        _, _, mode = _masked_topk_with_mode(dense_scans, queries, operand, sparse, 3, "l2")
        assert mode == "select"
        dense = np.ones(stored.shape[0], dtype=bool)
        _, _, mode = _masked_topk_with_mode(dense_scans, queries, operand, dense, 3, "l2")
        assert mode == "dense"
        assert 0.0 < MASK_DENSE_SCAN_SELECTIVITY <= 1.0

    def test_empty_mask_returns_empty(self, dense_scans):
        stored, queries = _corpus("l2")
        operand = ScanOperand.prepare(stored, "l2")
        positions, ordered, mode = _masked_topk_with_mode(
            dense_scans, queries, operand, np.zeros(stored.shape[0], dtype=bool), 5, "l2"
        )
        assert positions.shape == (queries.shape[0], 0)
        assert ordered.shape == (queries.shape[0], 0)
        assert mode == "select"


class TestTopKSelectBoundary:
    def test_duplicate_heavy_matches_full_stable_sort(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = int(rng.integers(1, 6))
            n = int(rng.integers(1, 40))
            top_k = int(rng.integers(1, n + 4))
            # Few distinct values => boundary ties are the common case.
            distances = rng.integers(0, 4, size=(rows, n)).astype(np.float32)
            positions, ordered = top_k_select(distances, top_k)
            reference = np.argsort(distances, axis=1, kind="stable")[:, : min(top_k, n)]
            assert np.array_equal(positions, reference)
            assert np.array_equal(
                ordered, np.take_along_axis(distances, reference, axis=1)
            )

    def test_all_equal_resolves_by_position(self):
        distances = np.full((3, 9), 2.5, dtype=np.float32)
        positions, ordered = top_k_select(distances, 4)
        assert np.array_equal(positions, np.tile(np.arange(4), (3, 1)))
        assert np.all(ordered == 2.5)


class TestMergeTopkDtype:
    def test_float32_preserved_through_merge(self):
        ids = [np.array([[1, 3]], dtype=np.int64), np.array([[2, -1]], dtype=np.int64)]
        distances = [
            np.array([[0.25, 0.5]], dtype=np.float32),
            np.array([[0.125, np.inf]], dtype=np.float32),
        ]
        merged_ids, merged = merge_topk(ids, distances, 3)
        assert merged.dtype == np.float32
        assert np.array_equal(merged_ids, [[2, 1, 3]])
        assert np.array_equal(merged, np.array([[0.125, 0.25, 0.5]], dtype=np.float32))

    def test_float64_inputs_still_merge(self):
        ids = [np.array([[1]], dtype=np.int64)]
        distances = [np.array([[0.5]], dtype=np.float64)]
        merged_ids, merged = merge_topk(ids, distances, 2)
        assert merged.dtype == np.float64
        assert merged_ids[0, 1] == -1
        assert np.isinf(merged[0, 1])


def _build_collection(metric: str, vectors: np.ndarray, ids: np.ndarray, colors: np.ndarray) -> Collection:
    collection = Collection(
        "kernels",
        dimension=vectors.shape[1],
        metric=metric,
        system_config=SystemConfig(shard_num=2, segment_max_size=64),
        auto_maintenance=False,
    )
    collection.insert(vectors, ids, attributes={"color": colors})
    collection.flush()
    collection.create_index("IVF_FLAT", {"nlist": 8})
    return collection


class TestOperandLifecycle:
    @pytest.mark.parametrize("metric", ["l2", "angular"])
    def test_cached_norms_survive_seal_tombstone_compaction(self, metric):
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((300, 16)).astype(np.float32)
        ids = np.arange(300, dtype=np.int64)
        colors = rng.integers(0, 3, 300)
        queries = rng.standard_normal((6, 16)).astype(np.float32)

        collection = _build_collection(metric, vectors, ids, colors)
        before = collection.search(queries, top_k=12, use_cache=False)

        # Tombstone a third of the rows: the per-segment operand caches keyed
        # on array identity must invalidate (tombstones replace the arrays).
        deleted = ids[::3]
        collection.delete(deleted)
        after_delete = collection.search(queries, top_k=12, use_cache=False)
        assert not np.intersect1d(after_delete.ids.ravel(), deleted).size

        # Compaction rewrites segments; cached operands follow the new arrays.
        collection.run_maintenance()
        after_compact = collection.search(queries, top_k=12, use_cache=False)

        # A collection built directly from the surviving rows must agree
        # bit for bit: the lifecycle never leaks a stale norm cache.
        keep = ~np.isin(ids, deleted)
        fresh = _build_collection(metric, vectors[keep], ids[keep], colors[keep])
        reference = fresh.search(queries, top_k=12, use_cache=False)
        for result in (after_delete, after_compact):
            assert np.array_equal(result.ids, reference.ids)
            assert np.array_equal(result.distances, reference.distances)

    def test_filtered_search_modes_agree_through_lifecycle(self):
        rng = np.random.default_rng(13)
        vectors = rng.standard_normal((300, 16)).astype(np.float32)
        ids = np.arange(300, dtype=np.int64)
        colors = rng.integers(0, 3, 300)
        queries = rng.standard_normal((4, 16)).astype(np.float32)
        collection = _build_collection("l2", vectors, ids, colors)
        # One low-selectivity filter and one that allows every row.
        for op, value in (("eq", 1), ("ge", 0)):
            request = SearchRequest(
                queries=queries, top_k=8, filter=AttributeFilter("color", op, value)
            )
            result = collection.search(request, use_cache=False)
            matching = ids[
                colors >= value if op == "ge" else colors == value
            ]
            returned = result.ids[result.ids >= 0]
            assert np.isin(returned, matching).all()

    def test_masked_scans_of_every_segment_match_the_masked_oracle(self, dense_scans):
        rng = np.random.default_rng(19)
        vectors = rng.standard_normal((340, 16)).astype(np.float32)
        colors = rng.integers(0, 3, 340)
        queries = rng.standard_normal((3, 16)).astype(np.float32)
        # No index: every segment takes the masked exact scan.
        collection = Collection(
            "kernels",
            dimension=16,
            metric="l2",
            system_config=SystemConfig(shard_num=2, segment_max_size=64),
            auto_maintenance=False,
        )
        collection.insert(vectors, np.arange(340), attributes={"color": colors})
        collection.flush()
        allowed = {
            ("eq", 1): colors == 1,
            ("ge", 1): colors >= 1,
            ("ge", 0): colors >= 0,
            ("lt", 2): colors < 2,
            ("eq", 7): colors == 7,
        }
        for (op, value), mask in allowed.items():
            request = SearchRequest(queries, 5, filter=AttributeFilter("color", op, value))
            result = collection.search(request, use_cache=False)
            expected = masked_brute_force_neighbors(vectors, queries, 5, "l2", mask=mask)
            assert np.array_equal(result.ids, expected), (op, value)
        # The one-third filter gathers rows; the two-thirds ones scan dense.
        assert dense_scans


class TestZeroCopySnapshots:
    def test_sealed_snapshot_arrays_are_frozen_views(self):
        rng = np.random.default_rng(17)
        vectors = rng.standard_normal((150, 8)).astype(np.float32)
        collection = Collection(
            "frozen",
            dimension=8,
            metric="l2",
            system_config=SystemConfig(shard_num=1, segment_max_size=8),
            auto_maintenance=False,
        )
        collection.insert(vectors, np.arange(150, dtype=np.int64))
        collection.flush()
        shard = collection._shards[0]
        views = shard.snapshot(collection.metric)
        assert len(views) == len(shard.segments.segments)
        sealed = [segment for segment in shard.segments.sealed_segments]
        assert sealed
        for segment in sealed:
            assert not segment.vectors.flags.writeable
            assert not segment.ids.flags.writeable
            with pytest.raises(ValueError):
                segment.vectors[0, 0] = 0.0

    def test_unindexed_segments_are_served_through_a_zero_copy_flat_index(self):
        rng = np.random.default_rng(23)
        collection = Collection(
            "views",
            dimension=8,
            metric="l2",
            system_config=SystemConfig(shard_num=1, segment_max_size=8),
            auto_maintenance=False,
        )
        collection.insert(rng.standard_normal((150, 8)).astype(np.float32))
        collection.flush()
        shard = collection._shards[0]
        segments = shard.segments.segments
        views = shard.snapshot("l2")
        # Exactly one view per live segment, sealed then growing.
        assert [view.segment_id for view in views] == [s.segment_id for s in segments]
        assert len({segment.state for segment in segments}) == 2
        for view, segment in zip(views, segments):
            assert not view.indexed
            assert isinstance(view.index, FlatIndex)
            assert np.shares_memory(view.index._vectors, segment.vectors)
        # Cached across snapshots until the live array is replaced.
        assert shard.snapshot("l2")[0].index is views[0].index
        victim = segments[0]
        assert not victim.vectors.flags.writeable
        collection.delete(victim.ids[:2])
        replaced = shard.snapshot("l2")[0]
        assert replaced.segment_id == victim.segment_id
        assert replaced.index is not views[0].index
        assert replaced.index.size == victim.num_rows == victim.physical_rows - 2
        # The snapshot taken before the delete still serves what it captured.
        assert views[0].index.size == victim.physical_rows

    def test_growing_segments_stay_writable(self):
        collection = Collection(
            "growing",
            dimension=4,
            metric="l2",
            system_config=SystemConfig(shard_num=1, segment_max_size=1000),
            auto_maintenance=False,
        )
        collection.insert(np.ones((5, 4), dtype=np.float32), np.arange(5, dtype=np.int64))
        collection.flush()
        growing = collection._shards[0].segments.growing_segments
        assert growing
        assert all(segment.vectors.flags.writeable for segment in growing)


class DecodeIVFSQ8(IVFSQ8Index):
    """IVF_SQ8 scoring its candidates by decoding them to float32 and running
    the bit-exact float64 kernel: the oracle the int8 scorer is gated against."""

    def _tile_scorer(self, queries, query_side, stats):
        def score_tile(first, bounds, rows):
            counts = np.diff(bounds)
            stats.add("code_evaluations", counts, slice(first, first + counts.shape[0]))
            decoded = self._codes[rows].astype(np.float32) / 255.0 * self._scales + self._minimums
            scores = np.empty(rows.shape[0], dtype=np.float32)
            for query, start, stop in nonempty_spans(first, bounds):
                scores[start:stop] = pairwise_distances(
                    queries[query : query + 1], decoded[start:stop], self.metric
                )[0]
            return scores, rows, bounds

        return score_tile


class TestSQ8FastScan:
    def test_int8_overlaps_the_decode_oracle(self):
        rng = np.random.default_rng(19)
        vectors = rng.standard_normal((600, 16)).astype(np.float32)
        queries = rng.standard_normal((8, 16)).astype(np.float32)
        decode = DecodeIVFSQ8(metric="l2", nlist=8, nprobe=4)
        decode.build(vectors)
        int8 = IVFSQ8Index(metric="l2", nlist=8, nprobe=4)
        int8.build(vectors)
        ids_decode, _, _ = decode.search(queries, 10)
        ids_int8, _, _ = int8.search(queries, 10)
        # Recall-identical, not bit-identical: the candidate *sets* must
        # overlap within the masked-oracle gate on this easy corpus.
        overlap = np.mean([
            len(set(a.tolist()) & set(b.tolist())) / len(a)
            for a, b in zip(ids_decode, ids_int8)
        ])
        assert overlap >= 0.9

    def test_int8_recall_close_to_the_decode_oracle(self):
        rng = np.random.default_rng(23)
        vectors = rng.standard_normal((1200, 24)).astype(np.float32)
        queries = rng.standard_normal((32, 24)).astype(np.float32)
        stored = prepare_vectors(vectors, "l2")
        truth, _ = top_k_select(
            pairwise_distances(prepare_vectors(queries, "l2"), stored, "l2"), 10
        )

        def recall(index: IVFSQ8Index) -> float:
            index.build(vectors)
            ids, _, _ = index.search(queries, 10)
            hits = sum(
                len(set(a.tolist()) & set(b.tolist())) for a, b in zip(ids, truth)
            )
            return hits / truth.size

        base = recall(DecodeIVFSQ8(metric="l2", nlist=16, nprobe=8))
        fast = recall(IVFSQ8Index(metric="l2", nlist=16, nprobe=8))
        assert base - fast <= 0.005
