"""The inverted-file family's query path against the seed's, kept here as the
reference: one Python list of candidate arrays per batch, one gather, one
kernel call and one select per (query, segment).  And a shard's run of
IVF_FLAT segments, answered as one, against searching each and merging."""

import copy
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

from repro.vdms import Collection, distance
from repro.vdms.distance import (
    DEFAULT_QUERY_BLOCK,
    pairwise_distances,
    pairwise_distances_blocked,
)
from repro.vdms.index import FlatIndex, create_index
from repro.vdms.index import ivf_flat
from repro.vdms.index.base import SearchStats
from repro.vdms.index.ivf_flat import IVFFlatIndex
from repro.vdms.index.ivf_pq import IVFPQIndex
from repro.vdms.index.ivf_sq8 import IVFSQ8Index
from repro.vdms.index.kmeans import kmeans
from repro.vdms.index.scann import ScannIndex
from repro.vdms.request import SearchPlan, SegmentPlan
from repro.vdms.sharding import SegmentView, merge_topk


class SeedIVFFlat(IVFFlatIndex):
    """The seed's probe and full-precision scoring loop (``_lists`` is the
    seed's list of per-cluster position arrays, filled in by ``seed_twin``),
    charging each query's work to its own row of the stats."""

    def _probed_candidates(self, queries, nprobe):
        coarse = pairwise_distances(queries, self._centroid_operand, self.metric)
        nprobe = max(1, min(nprobe, self._centroids.shape[0]))
        probed = np.argpartition(coarse, nprobe - 1, axis=1)[:, :nprobe]
        stats = SearchStats(queries.shape[0], coarse_evaluations=self._centroids.shape[0])
        candidates = []
        for row in probed:
            lists = [self._lists[list_id] for list_id in row if self._lists[list_id].size]
            if lists:
                candidates.append(np.concatenate(lists))
            else:
                candidates.append(np.empty(0, dtype=np.int64))
        return candidates, stats

    def _score_candidates(self, queries, candidates, top_k, stats):
        num_queries = queries.shape[0]
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        for query_index, candidate_positions in enumerate(candidates):
            if candidate_positions.size == 0:
                continue
            query = queries[query_index : query_index + 1]
            scores = pairwise_distances_blocked(
                query, self._operand.take(candidate_positions), self.metric
            )[0]
            stats.add("distance_evaluations", candidate_positions.size, query_index)
            keep = min(top_k, candidate_positions.size)
            order = np.lexsort((candidate_positions, scores))[:keep]
            positions[query_index, :keep] = candidate_positions[order]
            distances[query_index, :keep] = scores[order]
        stats.add("segments_searched", 1)
        return positions, distances, stats

    def _search(self, queries, top_k):
        candidates, stats = self._probed_candidates(queries, self.nprobe)
        return self._score_candidates(queries, candidates, top_k, stats)

    def _search_filtered(self, queries, top_k, allow_mask):
        candidates, stats = self._probed_candidates(queries, self.nprobe)
        filtered = [
            candidate_positions[allow_mask[candidate_positions]]
            for candidate_positions in candidates
        ]
        return self._score_candidates(queries, filtered, top_k, stats)


class SeedIVFSQ8(SeedIVFFlat, IVFSQ8Index):
    def _approximate_scores(self, query, candidate_positions):
        query = np.asarray(query, dtype=np.float32)
        if self.metric == "angular":
            norm = float(np.linalg.norm(query))
            query = query / np.float32(norm if norm != 0.0 else 1.0)
        dots = self._codes_f32[candidate_positions] @ (query * self._code_scales)
        dots += np.float32(query @ self._minimums)
        if self.metric == "ip":
            return -dots
        query_norm = np.float32(query @ query)
        if self.metric == "angular":
            inverse = self._decoded_inv_norms[candidate_positions]
            scores = query_norm + self._unit_norms_sq[candidate_positions] - 2.0 * dots * inverse
        else:
            scores = query_norm - 2.0 * dots + self._decoded_norms[candidate_positions]
        return np.maximum(scores, 0.0, out=scores).astype(np.float32, copy=False)

    def _score_candidates(self, queries, candidates, top_k, stats):
        num_queries = queries.shape[0]
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        for query_index, candidate_positions in enumerate(candidates):
            if candidate_positions.size == 0:
                continue
            scores = self._approximate_scores(queries[query_index], candidate_positions)
            stats.add("code_evaluations", candidate_positions.size, query_index)
            keep = min(top_k, candidate_positions.size)
            order = np.argpartition(scores, keep - 1)[:keep] if keep < scores.size else np.arange(scores.size)
            order = order[np.argsort(scores[order])]
            positions[query_index, :keep] = candidate_positions[order]
            distances[query_index, :keep] = scores[order]
        stats.add("segments_searched", 1)
        return positions, distances, stats


class SeedIVFPQ(SeedIVFFlat, IVFPQIndex):
    def _score_candidates(self, queries, candidates, top_k, stats):
        num_queries = queries.shape[0]
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        m, codewords, _ = self._codebooks.shape
        subspace_index = np.arange(m)
        batch_tables = self._adc_tables_batch(queries)
        for query_index, candidate_positions in enumerate(candidates):
            if candidate_positions.size == 0:
                continue
            tables = batch_tables[query_index]
            stats.add("coarse_evaluations", m * codewords, query_index)
            candidate_codes = self._codes[candidate_positions]
            scores = tables[subspace_index[None, :], candidate_codes].sum(axis=1)
            stats.add("code_evaluations", candidate_positions.size, query_index)
            keep = min(top_k, candidate_positions.size)
            order = np.argpartition(scores, keep - 1)[:keep] if keep < scores.size else np.arange(scores.size)
            order = order[np.argsort(scores[order])]
            positions[query_index, :keep] = candidate_positions[order]
            distances[query_index, :keep] = scores[order]
        stats.add("segments_searched", 1)
        return positions, distances, stats


class SeedScann(SeedIVFSQ8, ScannIndex):
    def _score_candidates(self, queries, candidates, top_k, stats):
        num_queries = queries.shape[0]
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        for query_index, candidate_positions in enumerate(candidates):
            if candidate_positions.size == 0:
                continue
            query = queries[query_index : query_index + 1]
            approximate = self._approximate_scores(queries[query_index], candidate_positions)
            stats.add("code_evaluations", candidate_positions.size, query_index)
            shortlist_size = min(self.reorder_k, candidate_positions.size)
            if shortlist_size < approximate.size:
                shortlist = np.argpartition(approximate, shortlist_size - 1)[:shortlist_size]
            else:
                shortlist = np.arange(approximate.size)
            shortlist_positions = candidate_positions[shortlist]
            exact = pairwise_distances(
                query, self._operand.take(shortlist_positions), self.metric
            )[0]
            stats.add("reorder_evaluations", shortlist_positions.size, query_index)
            keep = min(top_k, shortlist_positions.size)
            order = np.argpartition(exact, keep - 1)[:keep] if keep < exact.size else np.arange(exact.size)
            order = order[np.argsort(exact[order])]
            positions[query_index, :keep] = shortlist_positions[order]
            distances[query_index, :keep] = exact[order]
        stats.add("segments_searched", 1)
        return positions, distances, stats


SEED_CLASSES = {
    "IVF_FLAT": SeedIVFFlat,
    "IVF_SQ8": SeedIVFSQ8,
    "IVF_PQ": SeedIVFPQ,
    "SCANN": SeedScann,
}


def seed_lists(index):
    """The seed's per-cluster lists, cut from the cluster-major order array."""
    ends = np.cumsum(index._list_sizes)
    return [
        index._list_order[stop - size : stop] for size, stop in zip(index._list_sizes, ends)
    ]


def seed_twin(index):
    """``index``'s built structures, searched by the seed's query path."""
    twin = copy.copy(index)
    twin.__class__ = SEED_CLASSES[index.index_type]
    twin._lists = seed_lists(index)
    return twin


def seed_search(index, queries, top_k, **search_options):
    return seed_twin(index).search(queries, top_k, **search_options)


def assert_same_search(index, queries, top_k, seed_result=None, **search_options):
    """``index.search`` equals the seed path on ids, distance bytes + dtype, stats."""
    ids, distances, stats = index.search(queries, top_k, **search_options)
    seed_ids, seed_distances, seed_stats = seed_result or seed_search(
        index, queries, top_k, **search_options
    )
    assert np.array_equal(ids, seed_ids)
    assert distances.dtype == seed_distances.dtype
    assert distances.tobytes() == seed_distances.tobytes()
    assert stats == seed_stats
    return ids, distances, stats


ROWS = 240


def matrix_corpus(dimension, seed=7):
    """Stored rows with duplicates and a zero row, and 37 queries of which the
    first five sit exactly on stored (duplicated) rows: exact-zero distances,
    distance ties between candidates of different lists' order, a zero norm."""
    rng = np.random.default_rng(seed + dimension)
    vectors = rng.normal(size=(ROWS, dimension)).astype(np.float32)
    vectors[ROWS - 60 :] = vectors[:60]
    vectors[ROWS // 3] = 0.0
    queries = rng.normal(size=(37, dimension)).astype(np.float32)
    queries[:5] = vectors[[0, 1, 2, ROWS // 3, 200]]
    return vectors, queries


def masks():
    rng = np.random.default_rng(41)
    sparse = np.zeros(ROWS, dtype=bool)
    sparse[rng.choice(ROWS, size=ROWS // 10, replace=False)] = True
    return {
        "none": None,
        "sparse": sparse,
        "dense": rng.random(ROWS) < 0.9,
        "empty": np.zeros(ROWS, dtype=bool),
    }


#: (index type, build parameters) of every variant the family ships.
VARIANTS = [
    ("IVF_FLAT", {}),
    ("IVF_SQ8", {}),
    ("IVF_PQ", {"pq_m": 4, "pq_nbits": 4}),
    # One-dimensional subspaces, and more codewords asked for than rows.
    ("IVF_PQ", {"pq_m": 16, "pq_nbits": 8}),
    ("SCANN", {"reorder_k": 1}),  # a shortlist shorter than every k > 1
    ("SCANN", {"reorder_k": 12}),  # below most candidate counts
    ("SCANN", {"reorder_k": 500}),  # above every candidate count
]
VARIANT_IDS = [
    "-".join([index_type, *map(str, params.values())]) for index_type, params in VARIANTS
]
NLIST = 12


def check_matrix(index, queries, seed_results):
    """Every (nprobe, q, k, mask, strategy) cell of one built index.

    ``seed_results`` keeps the seed path's answer per cell: it does not depend
    on the tile size, so the small-tile runs of the matrix reuse it.
    """
    for nprobe in (1, 4, NLIST):
        index.set_search_params(nprobe=nprobe)
        for num_queries in (1, 8, 37):
            batch = queries[:num_queries]
            for top_k in (1, 10, ROWS + 5):
                for mask_name, allow_mask in masks().items():
                    for strategy in ("pre", "post") if allow_mask is not None else ("pre",):
                        options = {}
                        if allow_mask is not None:
                            options = {"allow_mask": allow_mask, "strategy": strategy}
                        cell = (nprobe, num_queries, top_k, mask_name, strategy)
                        if cell not in seed_results:
                            seed_results[cell] = seed_search(index, batch, top_k, **options)
                        assert_same_search(index, batch, top_k, seed_results[cell], **options)


@pytest.fixture(scope="module")
def built():
    """Built indexes and their seed answers, shared between the tile-size runs."""
    cache = {}

    def build(variant, metric, dimension):
        key = (VARIANT_IDS[VARIANTS.index(variant)], metric, dimension)
        if key not in cache:
            index_type, params = variant
            vectors, _ = matrix_corpus(dimension)
            index = create_index(index_type, metric=metric, nlist=NLIST, nprobe=4, **params)
            index.build(vectors)
            cache[key] = (index, {})
        return cache[key]

    return build


class TestSeedEquivalence:
    """Tile-at-a-time scoring returns the seed's results bit for bit."""

    @pytest.mark.parametrize("dimension", [7, 16], ids=["odd", "even"])
    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_matrix(self, built, variant, metric, dimension):
        index, seed_results = built(variant, metric, dimension)
        check_matrix(index, matrix_corpus(dimension)[1], seed_results)

    @pytest.mark.parametrize("row_block, query_block", [(1, 64), (7, 64), (64, 64), (8192, 3)])
    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_matrix_in_small_tiles(
        self, built, monkeypatch, variant, metric, row_block, query_block
    ):
        # Row block 1: every query its own tile, each larger than the bound;
        # 7 and 64: several queries per tile, tiles cut where a query would
        # overflow, and (sparse / empty masks) boundaries falling on empty
        # queries; query block 3: tiles cut by their query count.
        # The odd dimension only: where a tile is cut does not depend on d,
        # and odd rows are the ones a slice of a gather leaves misaligned.
        monkeypatch.setattr("repro.vdms.index.ivf_flat.DEFAULT_ROW_BLOCK", row_block)
        monkeypatch.setattr("repro.vdms.index.ivf_flat.DEFAULT_QUERY_BLOCK", query_block)
        index, seed_results = built(variant, metric, 7)
        check_matrix(index, matrix_corpus(7)[1], seed_results)

    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_wide_rows_and_many_lists(self, variant, metric):
        # d = 100 (the kernels' unrolled GEMV paths), lists of one or two
        # rows, and empty lists among the probed ones.
        index_type, params = variant
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(ROWS, 100)).astype(np.float32)
        vectors[100:140] = vectors[:40]
        queries = rng.normal(size=(9, 100)).astype(np.float32)
        queries[:2] = vectors[:2]
        index = create_index(index_type, metric=metric, nlist=200, nprobe=7, **params)
        index.build(vectors)
        # k-means re-seeds empty clusters, so empty some lists by hand: each
        # list at a multiple of three hands its rows to the next one.
        sizes = index._list_sizes.copy()
        sizes[3::3] += sizes[2:-1:3]
        sizes[2:-1:3] = 0
        index._list_sizes = sizes
        assert index._list_order.size == sizes.sum() and np.count_nonzero(sizes == 0) > 50
        sparse = masks()["sparse"]
        for top_k in (1, 10, ROWS + 5):
            assert_same_search(index, queries, top_k)
            assert_same_search(index, queries, top_k, allow_mask=sparse, strategy="pre")
            assert_same_search(index, queries, top_k, allow_mask=sparse, strategy="post")

    def test_nan_distances_order_last(self):
        # A query with a NaN component: every distance is NaN, and the select
        # must return what ``lexsort`` returned — ascending stored position.
        vectors, queries = matrix_corpus(8)
        queries = queries[:4].copy()
        queries[1, 3] = np.nan
        for metric in ("l2", "ip"):
            index = IVFFlatIndex(metric=metric, nlist=NLIST, nprobe=4)
            index.build(vectors)
            for top_k in (1, 10, ROWS + 5):
                _, distances, _ = assert_same_search(index, queries, top_k)
            assert np.isnan(distances[1]).any()

    def test_empty_batch(self):
        vectors, queries = matrix_corpus(8)
        index = IVFFlatIndex(metric="l2", nlist=NLIST, nprobe=4)
        index.build(vectors)
        ids, distances, stats = assert_same_search(index, queries[:0], 5)
        assert ids.shape == distances.shape == (0, 5)
        assert stats.total_work() == 0


class TestInvertedLists:
    @pytest.mark.parametrize("nlist", [1, 12, 500])
    def test_argsort_lists_equal_flatnonzero_lists(self, nlist):
        vectors, _ = matrix_corpus(16)
        index = IVFFlatIndex(metric="angular", nlist=nlist, nprobe=4, seed=5)
        index.build(vectors)
        clustering = kmeans(index._vectors, min(nlist, ROWS), seed=5)
        lists = seed_lists(index)
        assert len(lists) == clustering.centroids.shape[0]
        for list_id, positions in enumerate(lists):
            expected = np.flatnonzero(clustering.assignments == list_id).astype(np.int64)
            assert positions.dtype == expected.dtype
            assert np.array_equal(positions, expected)
        assert index.memory_bytes() == index._centroids.size * 4 + ROWS * 8


RUN_DIMENSION = 7
#: Row indexes of the queries placed exactly on a stored row that later
#: segments copy: exact-zero distances tied across segments.
ON_COPIED_ROWS = (0, 3, 5)


def build_run(metric, segments, duplicates=True, seed=0):
    """``segments`` built IVF_FLAT indexes of 12-39 rows under distinct
    permuted ids, each probing its own number of its four lists; with
    ``duplicates``, a fifth of the later segments' rows copy first-segment rows."""
    rng = np.random.default_rng([seed, segments])
    sizes = rng.integers(12, 40, size=segments)
    ends = np.cumsum(sizes)
    vectors = rng.normal(size=(ends[-1], RUN_DIMENSION)).astype(np.float32)
    if duplicates:
        last = ends[-1] - len(ON_COPIED_ROWS)
        targets = rng.choice(np.arange(sizes[0], last), size=(ends[-1] - sizes[0]) // 5, replace=False)
        vectors[targets] = vectors[rng.integers(0, sizes[0], size=targets.size)]
        vectors[last:] = vectors[list(ON_COPIED_ROWS)]
    ids = rng.permutation(ends[-1] * 3)[: ends[-1]]
    run = []
    for segment, (start, stop) in enumerate(zip(ends - sizes, ends)):
        index = IVFFlatIndex(metric=metric, nlist=4, nprobe=1 + segment % 4, seed=segment)
        index.build(vectors[start:stop], ids[start:stop])
        run.append(index)
    return run, vectors


def run_queries(vectors, num_queries, seed=3):
    """Queries on copied stored rows first, then a NaN query, then random ones."""
    rng = np.random.default_rng([seed, num_queries])
    queries = rng.normal(size=(num_queries, RUN_DIMENSION)).astype(np.float32)
    on_rows = min(num_queries, len(ON_COPIED_ROWS))
    queries[:on_rows] = vectors[list(ON_COPIED_ROWS[:on_rows])]
    if num_queries > on_rows:
        queries[on_rows, 2] = np.nan
    return queries


def run_masks(run, layout, seed=5):
    """``(masks, strategies)`` of the views, or ``(None, None)`` unfiltered.

    A run of more than two views also gets one all-false view and one
    planned ``post``: both keep their own search beside the run."""
    if layout == "none":
        return None, None
    rng = np.random.default_rng([seed, len(run)])
    share = {"10%": 0.1, "90%": 0.9}[layout]
    masks = [rng.random(index.size) < share for index in run]
    for mask in masks:
        mask[rng.integers(mask.size)] = True
    strategies = ["pre"] * len(run)
    if len(run) > 2:
        masks[1][:] = False
        strategies[3] = "post"
    return masks, strategies


def snapshot_search(run, queries, top_k, masks=None, strategies=None):
    """``Collection._search_snapshot`` over one view per index of ``run``."""
    collection = Collection("run", RUN_DIMENSION, metric=run[0].metric, auto_maintenance=False)
    views = [SegmentView(number, index, {}, True) for number, index in enumerate(run)]
    plan = planned = None
    if masks is not None:
        plan = SearchPlan(strategy="auto", overfetch_factor=2.0)
        planned = [
            (mask, SegmentPlan(0, number, strategy, mask.mean(), int(mask.sum()), mask.size, True))
            for number, (mask, strategy) in enumerate(zip(masks, strategies))
        ]
    return collection._search_snapshot(views, queries, top_k, plan, planned)


def per_index_search(run, queries, top_k, masks=None, strategies=None):
    """The per-segment path spelled out: each index's search, then one merge."""
    stats = SearchStats(num_queries=queries.shape[0])
    lists = []
    for number, index in enumerate(run):
        options = {}
        if masks is not None:
            options = {"allow_mask": masks[number], "strategy": strategies[number]}
        ids, distances, index_stats = index.search(queries, top_k, **options)
        stats.merge(index_stats)
        lists.append((ids, distances))
    ids, distances = merge_topk([ids for ids, _ in lists], [distances for _, distances in lists], top_k)
    return ids, distances, stats


def assert_same_as_per_index(run, queries, top_k, masks=None, strategies=None):
    """Equal ids, distance bytes and dtype, and stats, once the shard's list
    goes through the collection's merge over shards, as every answer does.
    (That merge is where a NaN distance, which a shard lists under id -1 —
    as NaN when merged per segment, as inf when merged within the run's tie
    fallback first — becomes inf on both paths.)"""
    ids, distances, stats = snapshot_search(run, queries, top_k, masks, strategies)
    ids, distances = merge_topk([ids], [distances], top_k)
    expected_ids, expected_distances, expected_stats = per_index_search(
        run, queries, top_k, masks, strategies
    )
    expected_ids, expected_distances = merge_topk([expected_ids], [expected_distances], top_k)
    assert np.array_equal(ids, expected_ids)
    assert distances.dtype == expected_distances.dtype
    assert distances.tobytes() == expected_distances.tobytes()
    assert astuple(stats) == astuple(expected_stats)


class CountingSearch:
    """Counts ``IVFFlatIndex.search`` calls (the tie fallback's) and fused runs."""

    def __init__(self, monkeypatch):
        self.searched = []
        self.runs = []
        search, fuse = IVFFlatIndex.search, IVFFlatIndex._fuse

        def counting_search(index, queries, top_k, **options):
            self.searched.append(int(np.asarray(queries).shape[0]))
            return search(index, queries, top_k, **options)

        def counting_fuse(run, *args):
            self.runs.append(len(run))
            return fuse(run, *args)

        monkeypatch.setattr(IVFFlatIndex, "search", counting_search)
        monkeypatch.setattr(IVFFlatIndex, "_fuse", staticmethod(counting_fuse))


class TestRuns:
    """A run of IVF_FLAT views is one candidate list — and nobody can tell."""

    @pytest.mark.parametrize("masks", ["none", "10%", "90%"])
    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    @pytest.mark.parametrize("segments", [2, 5, 24])
    def test_run_equals_per_index_search_and_merge(self, monkeypatch, segments, metric, masks):
        run, vectors = build_run(metric, segments)
        allow, strategies = run_masks(run, masks)
        for num_queries in (1, 8, 70):  # 70 spans two query blocks
            queries = run_queries(vectors, num_queries)
            for top_k in (1, 10, sum(index.size for index in run) + 5):
                assert_same_as_per_index(run, queries, top_k, allow, strategies)
        # The same cells went through a run, and the tie fallback was reached
        # (the NaN query's boundary is never settled).
        counting = CountingSearch(monkeypatch)
        for top_k in (1, 10):
            snapshot_search(run, run_queries(vectors, 8), top_k, allow, strategies)
        own = 2 if allow is not None and segments > 2 else 0  # all-false + post
        assert counting.runs == [segments - own] * 2
        assert counting.searched.count(8) == 2 * own
        fallback = [size for size in counting.searched if size != 8]
        assert len(fallback) >= 2 * (segments - own) and max(fallback) < 8

    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    @pytest.mark.parametrize("row_block", [1, 7, 64])
    def test_tiles_cut_below_the_union_bound(self, monkeypatch, metric, row_block):
        # The union bound (4 x DEFAULT_ROW_BLOCK) and each index's gather bound
        # (DEFAULT_ROW_BLOCK) patched down: tiles of one query, of a few, and
        # an index's rows gathered in several pieces.
        monkeypatch.setattr("repro.vdms.index.ivf_flat.DEFAULT_ROW_BLOCK", row_block)
        # A fused tile is one select (an index's own search selects through
        # ``_select``, bound on the class): its cuts count the tile's queries.
        tiles = []
        select = ivf_flat.lexicographic_select

        def counting_select(scores, rows, cuts, *args):
            tiles.append(cuts.shape[0] - 1)
            return select(scores, rows, cuts, *args)

        monkeypatch.setattr(ivf_flat, "lexicographic_select", counting_select)
        gathers = []
        gather_products = distance.QueryOperand.gather_products

        def recording_gather_products(query_side, rows, counts, operand, positions, *args):
            gathers.append((len(rows), positions.shape[0]))
            return gather_products(query_side, rows, counts, operand, positions, *args)

        monkeypatch.setattr(distance.QueryOperand, "gather_products", recording_gather_products)
        run, vectors = build_run(metric, 5)
        queries = run_queries(vectors, 70)
        searches = 0
        for layout in ("none", "90%"):
            allow, strategies = run_masks(run, layout)
            for top_k in (1, 10, 500):
                assert_same_as_per_index(run, queries, top_k, allow, strategies)
                searches += 1
        # More tiles than the two query blocks of each search.
        assert len(tiles) > 2 * searches and max(tiles) < DEFAULT_QUERY_BLOCK
        if row_block == 1:
            assert max(tiles) == 1
        # An index's gather exceeds the row block only for a query that alone does.
        assert all(size <= row_block or queries == 1 for queries, size in gathers)
        if row_block == 64:
            assert max(queries for queries, _ in gathers) > 1

    def test_a_tie_across_segments_is_rerun_per_segment(self, monkeypatch):
        run, vectors = build_run("l2", 5)
        for index in run:
            index.set_search_params(nprobe=4)  # every list: both copies are candidates
        queries = run_queries(vectors, 6)
        counting = CountingSearch(monkeypatch)
        ids, distances, _ = snapshot_search(run, queries, 1)
        # The three queries on copied rows and the NaN query, once per index.
        assert sorted(counting.searched) == [4] * len(run)
        assert (distances[:3] == 0).all()
        monkeypatch.undo()
        assert_same_as_per_index(run, queries, 1)

    def test_only_exact_ivf_flat_indexes_form_a_run(self, monkeypatch):
        run, vectors = build_run("l2", 3)
        others = []
        for number, index in enumerate(
            [create_index("IVF_SQ8", metric="l2", nlist=4), FlatIndex(metric="l2"),
             create_index("IVF_SQ8", metric="l2", nlist=4)]
        ):
            index.build(vectors[number * 8 : number * 8 + 8], np.arange(8) + 1000 * (number + 1))
            others.append(index)
        mixed = [run[0], others[0], others[1], run[1], others[2], run[2]]
        queries = run_queries(vectors, 8)
        counting = CountingSearch(monkeypatch)
        snapshot_search(mixed, queries, 10)
        snapshot_search([run[0], others[0], others[1]], queries, 10)
        IVFSQ8Index.search_run([others[0], others[2]], queries, 10)
        assert counting.runs == [3]
        monkeypatch.undo()
        assert_same_as_per_index(mixed, queries, 10)

    @pytest.mark.parametrize("masks", ["none", "10%", "90%"])
    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    def test_indexes_of_different_effective_nlist(self, monkeypatch, metric, masks):
        # (rows, nlist, nprobe): three indexes hold fewer rows than their nlist.
        shapes = [(3, 4, 2), (25, 8, 3), (40, 2, 1), (7, 16, 5), (30, 4, 4), (12, 6, 6)]
        rng = np.random.default_rng(41)
        vectors = rng.normal(size=(sum(rows for rows, _, _ in shapes), RUN_DIMENSION)).astype(np.float32)
        ids = rng.permutation(vectors.shape[0] * 3)[: vectors.shape[0]]
        run, start = [], 0
        for segment, (rows, nlist, nprobe) in enumerate(shapes):
            index = IVFFlatIndex(metric=metric, nlist=nlist, nprobe=nprobe, seed=segment)
            index.build(vectors[start : start + rows], ids[start : start + rows])
            run.append(index)
            start += rows
        assert [index._centroid_operand.shape[0] for index in run] == [3, 8, 2, 7, 4, 6]
        allow, strategies = run_masks(run, masks)
        for num_queries in (1, 8, 70):
            queries = run_queries(vectors, num_queries)
            for top_k in (1, 10, vectors.shape[0] + 5):
                assert_same_as_per_index(run, queries, top_k, allow, strategies)
        counting = CountingSearch(monkeypatch)
        snapshot_search(run, run_queries(vectors, 8), 10, allow, strategies)
        assert counting.runs == [len(run) - (2 if allow is not None else 0)]

    def test_an_index_whose_probed_lists_are_all_masked_out(self, monkeypatch):
        run, vectors = build_run("l2", 5, duplicates=False)
        rng = np.random.default_rng(8)
        masks = [rng.random(index.size) < 0.9 for index in run]
        # Index 2 probes one list and allows only the rows of its list 0:
        # the queries that probe another list get nothing from it.
        sparse = run[2]
        sparse.set_search_params(nprobe=1)
        masks[2][:] = False
        masks[2][sparse._list_order[: sparse._list_sizes[0]]] = True
        queries = rng.normal(size=(40, RUN_DIMENSION)).astype(np.float32)
        alone, _, _ = sparse.search(queries, 10, allow_mask=masks[2])
        empty = (alone == -1).all(axis=1)
        assert empty.any() and not empty.all()
        for top_k in (1, 10, 200):
            assert_same_as_per_index(run, queries, top_k, masks, ["pre"] * len(run))
        counting = CountingSearch(monkeypatch)
        snapshot_search(run, queries, 10, masks, ["pre"] * len(run))
        assert counting.runs == [len(run)]

    @pytest.mark.parametrize("row_block", [7, None])
    @pytest.mark.parametrize("segments", [2, 24])
    def test_a_run_finishes_once_to_probe_and_once_per_tile(self, monkeypatch, segments, row_block):
        # However many indexes a run holds: one finish of every index's
        # coarse products, then one finish (and one select) per tile.
        if row_block is not None:
            monkeypatch.setattr("repro.vdms.index.ivf_flat.DEFAULT_ROW_BLOCK", row_block)
        run, vectors = build_run("angular", segments, duplicates=False)
        queries = np.random.default_rng(4).normal(size=(8, RUN_DIMENSION)).astype(np.float32)
        counting = CountingSearch(monkeypatch)
        finishes, tiles = [], []
        finish_tile, select = distance._finish_tile, ivf_flat.lexicographic_select

        def counting_finish(*args, **kwargs):
            finishes.append(1)
            return finish_tile(*args, **kwargs)

        def counting_select(*args):
            tiles.append(1)
            return select(*args)

        monkeypatch.setattr(distance, "_finish_tile", counting_finish)
        monkeypatch.setattr(ivf_flat, "lexicographic_select", counting_select)
        IVFFlatIndex.search_run(run, queries, 10)
        assert counting.runs == [segments] and counting.searched == []  # no tie fallback
        assert len(finishes) == 1 + len(tiles)
        assert len(tiles) == 1 if row_block is None else len(tiles) > 1

    def test_a_mask_search_rejects_is_rejected_by_the_run(self):
        # No ties and no NaN: nothing reaches the per-index fallback.
        run, _ = build_run("l2", 3, duplicates=False)
        queries = np.random.default_rng(6).normal(size=(8, RUN_DIMENSION)).astype(np.float32)
        options = [{"allow_mask": np.ones(index.size, dtype=bool)} for index in run]
        options[1] = {"allow_mask": np.ones(run[1].size + 5, dtype=bool)}
        with pytest.raises(ValueError, match="allow_mask must cover every stored row"):
            run[1].search(queries, 10, **options[1])
        with pytest.raises(ValueError, match="allow_mask must cover every stored row"):
            IVFFlatIndex.search_run(run, queries, 10, options)

    def test_an_integer_mask_is_read_as_its_boolean_cast(self):
        run, vectors = build_run("l2", 3)
        masks = [(np.arange(index.size) % 5 == 0).astype(np.int64) for index in run]
        for num_queries in (1, 8):
            queries = run_queries(vectors, num_queries)
            for top_k in (1, 10):
                assert_same_as_per_index(run, queries, top_k, masks, ["pre"] * len(run))

    def test_empty_batch(self):
        run, _ = build_run("l2", 3)
        ids, distances, stats = IVFFlatIndex.search_run(
            run, np.empty((0, RUN_DIMENSION), dtype=np.float32), 5
        )
        assert ids.shape == distances.shape == (0, 5)
        assert stats.total_work() == 0


class TestConcurrency:
    def test_a_run_writes_nothing_on_its_indexes(self, monkeypatch):
        monkeypatch.setattr("repro.vdms.index.ivf_flat.DEFAULT_ROW_BLOCK", 16)
        run, vectors = build_run("angular", 6)
        before = [dict(vars(index)) for index in run]
        allow, _ = run_masks(run, "90%")
        allow[1][0] = True  # every view allows a row: all six are in the run
        options = [{"allow_mask": mask} for mask in allow]
        batches = [run_queries(vectors, 5 + slot, seed=slot) for slot in range(6)]
        serial = [IVFFlatIndex.search_run(run, batch, 10, options) for batch in batches]
        concurrent = [None] * len(batches)

        def worker(slot):
            for _ in range(5):
                concurrent[slot] = IVFFlatIndex.search_run(run, batches[slot], 10, options)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (ids, distances, stats), got in zip(serial, concurrent):
            assert np.array_equal(ids, got[0])
            assert distances.tobytes() == got[1].tobytes()
            assert astuple(stats) == astuple(got[2])
        for index, attributes in zip(run, before):
            after = vars(index)
            assert after.keys() == attributes.keys()
            assert all(after[name] is attributes[name] for name in attributes)

    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_concurrent_searches_share_no_scratch(self, monkeypatch, variant):
        # Admission workers share one index object: two tiles in flight on
        # different threads must not see each other's scratch.
        monkeypatch.setattr("repro.vdms.index.ivf_flat.DEFAULT_ROW_BLOCK", 64)
        index_type, params = variant
        vectors, _ = matrix_corpus(16)
        index = create_index(index_type, metric="angular", nlist=NLIST, nprobe=4, **params)
        index.build(vectors)
        before = dict(vars(index))
        rng = np.random.default_rng(17)
        batches = [rng.normal(size=(5 + slot, 16)).astype(np.float32) for slot in range(6)]
        serial = [index.search(batch, 10) for batch in batches]
        concurrent = [None] * len(batches)

        def worker(slot):
            for _ in range(5):
                concurrent[slot] = index.search(batches[slot], 10)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (ids, distances, stats), got in zip(serial, concurrent):
            assert np.array_equal(ids, got[0])
            assert distances.tobytes() == got[1].tobytes()
            assert astuple(stats) == astuple(got[2])
        # No attribute is written on the index object during a search.
        after = vars(index)
        assert after.keys() == before.keys()
        assert all(after[name] is before[name] for name in before)


def test_the_tile_bounds_are_the_blocked_kernels():
    from repro.vdms.index import ivf_flat

    assert ivf_flat.DEFAULT_ROW_BLOCK is distance.DEFAULT_ROW_BLOCK
    assert ivf_flat.DEFAULT_QUERY_BLOCK is distance.DEFAULT_QUERY_BLOCK
