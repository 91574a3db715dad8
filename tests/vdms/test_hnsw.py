"""HNSW-specific tests (graph structure, parameter behaviour, and the query
path and the graph build against the seed's per-query search and per-node
build, both kept here as the references)."""

import copy
import heapq
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

from repro.datasets.ground_truth import brute_force_neighbors, recall_at_k
from repro.vdms.distance import pairwise_distances
from repro.vdms.index.autoindex import AutoIndex
from repro.vdms.index.base import SearchStats
from repro.vdms.index.hnsw import HNSWIndex
from repro.vdms.index.kmeans import kmeans


@pytest.fixture(scope="module")
def corpus():
    generator = np.random.default_rng(23)
    centers = generator.normal(size=(8, 12)).astype(np.float32)
    assignment = generator.integers(0, 8, size=400)
    vectors = centers[assignment] + generator.normal(scale=0.12, size=(400, 12)).astype(np.float32)
    queries = vectors[generator.integers(0, 400, size=16)] + generator.normal(
        scale=0.04, size=(16, 12)
    ).astype(np.float32)
    truth = brute_force_neighbors(vectors, queries, top_k=5, metric="angular")
    return vectors.astype(np.float32), queries.astype(np.float32), truth


class TestGraphStructure:
    def test_every_node_present_in_bottom_layer(self, corpus):
        vectors, _, _ = corpus
        index = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=32, seed=0)
        index.build(vectors)
        assert len(index._layers[0]) == vectors.shape[0]

    def test_degree_bounded_by_twice_m_on_bottom_layer(self, corpus):
        vectors, _, _ = corpus
        m = 6
        index = HNSWIndex(metric="angular", hnsw_m=m, ef_construction=64, ef_search=32, seed=0)
        index.build(vectors)
        degrees = [len(neighbours) for neighbours in index._layers[0]]
        assert max(degrees) <= 2 * m
        assert min(degrees) >= 1

    def test_upper_layers_are_subsets(self, corpus):
        vectors, _, _ = corpus
        index = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=32, seed=0)
        index.build(vectors)
        bottom = set(range(len(index._layers[0])))
        for layer in index._layers[1:]:
            assert set(layer) <= bottom

    def test_entry_point_in_top_layer(self, corpus):
        vectors, _, _ = corpus
        index = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=32, seed=0)
        index.build(vectors)
        assert index._entry_point in index._layers[-1]

    def test_build_counts_distance_evaluations(self, corpus):
        vectors, _, _ = corpus
        index = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=32, seed=0)
        stats = index.build(vectors)
        assert stats.distance_evaluations > 0
        assert stats.extra["levels"] >= 1


class TestSearchBehaviour:
    def test_higher_ef_search_improves_recall(self, corpus):
        vectors, queries, truth = corpus
        low = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=5, seed=0)
        high = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=128, seed=0)
        low.build(vectors)
        high.build(vectors)
        low_recall = recall_at_k(low.search(queries, 5)[0], truth, 5)
        high_recall = recall_at_k(high.search(queries, 5)[0], truth, 5)
        assert high_recall >= low_recall

    def test_higher_ef_search_costs_more_work(self, corpus):
        vectors, queries, _ = corpus
        low = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=5, seed=0)
        high = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=128, seed=0)
        low.build(vectors)
        high.build(vectors)
        assert high.search(queries, 5)[2].total_work() > low.search(queries, 5)[2].total_work()

    def test_graph_hops_counted(self, corpus):
        vectors, queries, _ = corpus
        index = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=32, seed=0)
        index.build(vectors)
        stats = index.search(queries, 5)[2]
        assert stats.graph_hops >= queries.shape[0]

    def test_ef_search_below_top_k_is_raised_internally(self, corpus):
        vectors, queries, _ = corpus
        index = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=1, seed=0)
        index.build(vectors)
        ids, _, _ = index.search(queries, 5)
        assert np.all((ids[:, 0] >= 0))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HNSWIndex(hnsw_m=1)
        with pytest.raises(ValueError):
            HNSWIndex(ef_construction=0)
        with pytest.raises(ValueError):
            HNSWIndex(ef_search=0)


class TestAutoIndex:
    def test_autoindex_delegates_to_hnsw(self, corpus):
        vectors, queries, truth = corpus
        index = AutoIndex(metric="angular", seed=0)
        stats = index.build(vectors)
        assert stats.extra["delegate"] == "HNSW"
        ids, _, _ = index.search(queries, 5)
        assert recall_at_k(ids, truth, 5) > 0.5

    def test_autoindex_has_no_tunable_search_params(self, corpus):
        vectors, _, _ = corpus
        index = AutoIndex(metric="angular", seed=0)
        index.build(vectors)
        index.set_search_params(ef_search=500, nprobe=500)
        # The delegate keeps its fixed internal configuration.
        assert index._inner.ef_search == 72


class SeedSearchHNSW(HNSWIndex):
    """The seed's query path, kept as the oracle: one ``pairwise_distances``
    call per hop on a one-query batch, a Python ``set`` of visited nodes, every
    neighbour pushed through the heaps one at a time.  ``layer[node]`` reads
    the bottom list and the upper dicts alike.  Each query counts its work
    in its own one-row record."""

    def _distance_to(self, query, positions):
        return pairwise_distances(query[None, :], self._operand.take(positions), self.metric)[0]

    def _greedy_descent(self, query, start, layer, stats):
        current = start
        current_distance = float(self._distance_to(query, np.array([current]))[0])
        stats.add("coarse_evaluations", 1)
        improved = True
        while improved:
            improved = False
            neighbours = layer[current]
            if neighbours.size == 0:
                break
            distances = self._distance_to(query, neighbours)
            stats.add("coarse_evaluations", neighbours.size)
            stats.add("graph_hops", 1)
            best = int(np.argmin(distances))
            if distances[best] < current_distance:
                current = int(neighbours[best])
                current_distance = float(distances[best])
                improved = True
        return current

    def _beam_search(self, query, start, ef, top_k, stats):
        layer = self._layers[0]
        start_distance = float(self._distance_to(query, np.array([start]))[0])
        stats.add("distance_evaluations", 1)
        visited = {start}
        candidates = [(start_distance, start)]
        results = [(-start_distance, start)]
        while candidates:
            distance, node = heapq.heappop(candidates)
            worst = -results[0][0]
            if distance > worst and len(results) >= ef:
                break
            stats.add("graph_hops", 1)
            neighbours = layer[node]
            if neighbours.size == 0:
                continue
            fresh = np.array([n for n in neighbours if n not in visited], dtype=np.int64)
            if fresh.size == 0:
                continue
            visited.update(int(n) for n in fresh)
            distances = self._distance_to(query, fresh)
            stats.add("distance_evaluations", fresh.size)
            worst = -results[0][0]
            for neighbour, neighbour_distance in zip(fresh, distances):
                neighbour_distance = float(neighbour_distance)
                if len(results) < ef or neighbour_distance < worst:
                    heapq.heappush(candidates, (neighbour_distance, int(neighbour)))
                    heapq.heappush(results, (-neighbour_distance, int(neighbour)))
                    if len(results) > ef:
                        heapq.heappop(results)
                    worst = -results[0][0]
        keep = sorted((-d, node) for d, node in results)[:top_k]
        positions = np.array([node for _, node in keep], dtype=np.int64)
        distances = np.array([d for d, _ in keep], dtype=np.float32)
        return positions, distances

    def _search(self, queries, top_k):
        stats = SearchStats()
        ef = max(self.ef_search, top_k)
        num_queries = queries.shape[0]
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        for query_index in range(num_queries):
            query = queries[query_index]
            query_stats = SearchStats(1, segments_searched=1)
            entry = self._entry_point
            for level in range(len(self._layers) - 1, 0, -1):
                entry = self._greedy_descent(query, entry, self._layers[level], query_stats)
            found_positions, found_distances = self._beam_search(query, entry, ef, top_k, query_stats)
            positions[query_index, : found_positions.size] = found_positions
            distances[query_index, : found_positions.size] = found_distances
            stats.accumulate(query_stats)
        return positions, distances, stats


def seed_twin(index):
    """``index``'s built graph and operand, searched by the seed's query path."""
    twin = copy.copy(index)
    if isinstance(index, AutoIndex):
        twin._inner = seed_twin(index._inner)
    else:
        twin.__class__ = SeedSearchHNSW
    return twin


class SeedBuildHNSW(HNSWIndex):
    """The seed's graph build, kept as the oracle: a Python loop per node for
    the selection, a double loop and one ``np.unique`` per node for the
    symmetrisation, one one-query ``pairwise_distances`` call per pruned node."""

    def _layer_graph(self, node_ids: np.ndarray, vectors: np.ndarray, degree: int) -> dict[int, np.ndarray]:
        """Build the neighbour lists of one layer via cell-accelerated selection."""
        count = node_ids.size
        if count <= 1:
            return {int(node): np.empty(0, dtype=np.int64) for node in node_ids}
        points = vectors[node_ids]
        degree = max(1, min(degree, count - 1))

        pool_lists: list[np.ndarray]
        if count <= max(256, 4 * degree):
            distances = pairwise_distances(points, points, self.metric)
            self._build_distance_evaluations += count * count
            np.fill_diagonal(distances, np.inf)
            order = np.argsort(distances, axis=1)[:, :degree]
            neighbours = {int(node_ids[i]): node_ids[order[i]] for i in range(count)}
        else:
            cells = max(4, count // 48)
            clustering = kmeans(points, cells, seed=self.seed + 7, max_iterations=6)
            self._build_distance_evaluations += clustering.distance_evaluations
            # Larger ef_construction widens the candidate pool by probing more
            # adjacent cells, which improves neighbour quality.
            probe = 1 + min(cells - 1, self.ef_construction // 64)
            centroid_distances = pairwise_distances(clustering.centroids, clustering.centroids, self.metric)
            np.fill_diagonal(centroid_distances, np.inf)
            nearest_cells = np.argsort(centroid_distances, axis=1)[:, :probe]
            members = [np.flatnonzero(clustering.assignments == c) for c in range(clustering.centroids.shape[0])]
            neighbours = {}
            for cell, cell_members in enumerate(members):
                if cell_members.size == 0:
                    continue
                pool = [cell_members]
                pool.extend(members[other] for other in nearest_cells[cell] if members[other].size)
                pool_positions = np.concatenate(pool)
                block = pairwise_distances(points[cell_members], points[pool_positions], self.metric)
                self._build_distance_evaluations += cell_members.size * pool_positions.size
                for row, position in enumerate(cell_members):
                    scores = block[row]
                    # Exclude the node itself from its own neighbour list.
                    self_mask = pool_positions == position
                    scores = np.where(self_mask, np.inf, scores)
                    keep = min(degree, pool_positions.size - 1)
                    if keep <= 0:
                        neighbours[int(node_ids[position])] = np.empty(0, dtype=np.int64)
                        continue
                    best = np.argpartition(scores, keep - 1)[:keep]
                    best = best[np.argsort(scores[best])]
                    neighbours[int(node_ids[position])] = node_ids[pool_positions[best]]

        # Make the graph symmetric, then prune back to the degree cap keeping
        # the closest neighbours (the same policy as HNSW's neighbour pruning).
        inverse: dict[int, list[int]] = {int(node): [] for node in node_ids}
        for node, adjacent in neighbours.items():
            for other in adjacent:
                inverse[int(other)].append(int(node))
        pruned: dict[int, np.ndarray] = {}
        node_position = {int(node): i for i, node in enumerate(node_ids)}
        for node in node_ids:
            node = int(node)
            merged = np.unique(np.concatenate([neighbours.get(node, np.empty(0, dtype=np.int64)),
                                               np.asarray(inverse[node], dtype=np.int64)]))
            merged = merged[merged != node]
            if merged.size > degree:
                scores = pairwise_distances(
                    points[node_position[node]][None, :], vectors[merged], self.metric
                )[0]
                self._build_distance_evaluations += merged.size
                best = np.argpartition(scores, degree - 1)[:degree]
                merged = merged[best]
            pruned[node] = merged.astype(np.int64)
        return pruned


def assert_same_search(index, queries, top_k, **search_options):
    """``index.search`` equals the seed path on ids, distance bytes + dtype, stats."""
    ids, distances, stats = index.search(queries, top_k, **search_options)
    seed_ids, seed_distances, seed_stats = seed_twin(index).search(queries, top_k, **search_options)
    assert np.array_equal(ids, seed_ids)
    assert distances.dtype == seed_distances.dtype
    assert distances.tobytes() == seed_distances.tobytes()
    assert stats == seed_stats
    return ids, distances, stats


def matrix_corpus(rows, duplicated, dimension=25, seed=3):
    """Stored rows and nine queries, three of them exactly on stored rows.

    ``duplicated`` copies the first half of the rows over the second and zeroes
    one row: exact-zero distances, distance ties, a zero norm.  The odd
    dimension leaves most float64 query rows 8- but not 16-byte aligned.
    """
    rng = np.random.default_rng(seed + rows)
    vectors = rng.normal(size=(rows, dimension)).astype(np.float32)
    if duplicated:
        vectors[rows - rows // 2 :] = vectors[: rows // 2]
        vectors[rows // 3] = 0.0
    queries = rng.normal(size=(9, dimension)).astype(np.float32)
    queries[:3] = vectors[rng.integers(0, rows, size=3)]
    return vectors, queries


GRAPH_PARAMETERS = [(2, 1, 1), (4, 64, 8), (16, 128, 64), (48, 256, 200)]


def forced_tie_index():
    """A hand-wired one-layer graph around a query at the origin, ef = 2."""
    vectors = np.array(
        [[3, 0], [1, 0], [1, 0], [2, 0], [1, 0], [1, 0], [0.5, 0]], dtype=np.float32
    )
    index = HNSWIndex(metric="l2", hnsw_m=2, ef_construction=1, ef_search=2)
    index.build(vectors)
    adjacency = [[1, 3], [0, 2, 4], [1, 5, 6], [0], [1], [2], [2]]
    index._layers = [[np.array(adjacent, dtype=np.int64) for adjacent in adjacency]]
    index._entry_point = 0
    return index, np.zeros(2, dtype=np.float32)


class TestSeedEquivalence:
    """The array-walking query path returns the seed's results bit for bit."""

    @pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
    @pytest.mark.parametrize("rows", [1, 2, 17, 300, 1500])
    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    def test_matrix(self, metric, rows, duplicated):
        # rows 1 and 2: empty / single-entry adjacency; 1500: the
        # cell-accelerated build branch; (2, 1, 1) with k > 1: ef raised to k.
        vectors, queries = matrix_corpus(rows, duplicated)
        for hnsw_m, ef_construction, ef_search in GRAPH_PARAMETERS:
            index = HNSWIndex(
                metric=metric, hnsw_m=hnsw_m, ef_construction=ef_construction, ef_search=ef_search
            )
            index.build(vectors)
            layers = [dict(enumerate(index._layers[0])), *index._layers[1:]]  # the seed's form
            edges = sum(adjacent.size for layer in layers for adjacent in layer.values())
            assert index.memory_bytes() == edges * 8 + sum(len(layer) for layer in layers) * 8
            for top_k in (1, 10, 37, rows + 5):
                assert_same_search(index, queries, top_k)

    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    def test_post_filter_refill(self, metric):
        vectors, queries = matrix_corpus(300, True)
        index = HNSWIndex(metric=metric, hnsw_m=8, ef_construction=64, ef_search=4)
        index.build(vectors)
        allow_mask = np.zeros(300, dtype=bool)
        allow_mask[::11] = True
        # 28 allowed rows of 300: the first fetch of 10 cannot hold 5 allowed
        # rows for every query, so the fetch width doubles past ef_search.
        _, _, stats = assert_same_search(
            index, queries, 5, allow_mask=allow_mask, strategy="post", overfetch_factor=2.0
        )
        assert stats.filter_candidates_dropped > 0
        single_pass = index.search(queries, 10)[2]
        assert stats.graph_hops > single_pass.graph_hops

    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    def test_autoindex(self, metric):
        vectors, queries = matrix_corpus(300, True)
        index = AutoIndex(metric=metric)
        index.build(vectors)
        for top_k in (1, 10, 100):
            assert_same_search(index, queries, top_k)

    def test_forced_admission_tie(self):
        # A hand-wired bottom layer around the query at the origin, ef = 2.
        # Rows 1, 2, 4, 5 are copies at squared distance 1.  Expanding node 1
        # with the heap full at worst 4 admits copy 2 (worst drops to 1) and
        # must then reject copy 4 inside the loop; expanding node 2 with the
        # heap full at worst 1 must reject copy 5 (a tie with the worst) and
        # admit node 6.  Both rejections are the strict "<" of the seed.
        index, origin = forced_tie_index()
        ids, distances, stats = assert_same_search(index, origin[None, :], 2)
        assert ids.tolist() == [[6, 2]]
        assert distances.tolist() == [[0.25, 1.0]]
        assert (stats.graph_hops, stats.distance_evaluations, stats.coarse_evaluations) == (4, 7, 0)

    def test_forced_admission_tie_inside_a_batch(self):
        # The same hand-wired graph, the origin as the third query of five: its
        # walk shares every round's tile with four others and must still admit
        # and reject exactly as it does alone.
        index, origin = forced_tie_index()
        rng = np.random.default_rng(5)
        batch = rng.normal(scale=2.0, size=(5, 2)).astype(np.float32)
        batch[2] = origin
        ids, distances, stats = assert_same_search(index, batch, 2)
        assert ids[2].tolist() == [6, 2]
        assert distances[2].tolist() == [0.25, 1.0]
        others = seed_twin(index).search(np.delete(batch, 2, axis=0), 2)[2]
        assert stats.graph_hops - others.graph_hops == 4
        assert stats.distance_evaluations - others.distance_evaluations == 7

    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    def test_batch_sizes_across_blocks(self, metric):
        # One graph; batches below, at and above the 64-query block, the last
        # spanning three blocks with a short tail.  Every batch is a prefix of
        # the same queries, so a row's result may not depend on the batch.
        vectors, _ = matrix_corpus(700, True)
        queries = np.random.default_rng(41).normal(size=(130, 25)).astype(np.float32)
        queries[::7] = vectors[:19]
        index = HNSWIndex(metric=metric, hnsw_m=8, ef_construction=64, ef_search=24)
        index.build(vectors)
        whole_ids, whole_distances, _ = assert_same_search(index, queries, 10)
        for q in (1, 2, 63, 64, 65):
            ids, distances, _ = assert_same_search(index, queries[:q], 10)
            assert np.array_equal(ids, whole_ids[:q])
            assert distances.tobytes() == whole_distances[:q].tobytes()

    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    @pytest.mark.parametrize("ef_search", [3, 400])
    def test_walks_of_very_different_lengths(self, metric, ef_search):
        # Queries sitting on stored rows beside far-away ones: the walks of a
        # block stop in very different rounds, so late rounds hold one or two
        # queries.  ef_search 400 >= rows: every walk exhausts the graph.
        vectors, _ = matrix_corpus(300, True)
        rng = np.random.default_rng(43)
        queries = np.empty((24, 25), dtype=np.float32)
        queries[::2] = vectors[rng.integers(0, 300, size=12)]
        queries[1::2] = 40.0 * rng.normal(size=(12, 25))
        index = HNSWIndex(metric=metric, hnsw_m=6, ef_construction=64, ef_search=ef_search)
        index.build(vectors)
        for top_k in (1, 10):
            _, _, stats = assert_same_search(index, queries, top_k)
        if ef_search >= 300:
            # Exhausted: every node a walk scored it also expanded.
            assert stats.graph_hops >= stats.distance_evaluations > 24 * 200

    def test_concurrent_searches_share_no_scratch(self):
        vectors, _ = matrix_corpus(300, False, dimension=16)
        index = HNSWIndex(metric="angular", hnsw_m=8, ef_construction=64, ef_search=32)
        index.build(vectors)
        rng = np.random.default_rng(17)
        batches = [rng.normal(size=(12, 16)).astype(np.float32) for _ in range(8)]
        serial = [index.search(batch, 10) for batch in batches]
        concurrent = [None] * len(batches)

        def worker(slot):
            for _ in range(3):
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


#: (hnsw_m, ef_construction): degree 1 at two rows; a probe of one cell; the
#: defaults; a cap of 96 that keeps 300 rows on the all-pairs branch; a probe of
#: every cell at 300 rows (the cell's own members twice in its pool).
BUILD_PARAMETERS = [(2, 1), (4, 64), (16, 128), (48, 256), (24, 361)]


def graph_of(index):
    """The HNSW graph an index searches (AUTOINDEX keeps one inside)."""
    return index._inner if isinstance(index, AutoIndex) else index


def seed_built(index):
    """``index``, unbuilt, with the seed's build making its graph."""
    graph_of(index).__class__ = SeedBuildHNSW
    return index


def assert_same_graph(index, seed):
    """Layer count, key order, every neighbour array, entry point, accounting."""
    graph, seed_graph = graph_of(index), graph_of(seed)
    assert isinstance(graph._layers[0], list)
    layers, seed_layers = (
        [dict(enumerate(built._layers[0])), *built._layers[1:]] for built in (graph, seed_graph)
    )
    assert len(layers) == len(seed_layers)
    for layer, seed_layer in zip(layers, seed_layers):
        assert list(layer) == list(seed_layer)  # the upper layers' key order
        for adjacent, seed_adjacent in zip(layer.values(), seed_layer.values()):
            assert adjacent.dtype == seed_adjacent.dtype == np.int64
            assert adjacent.tolist() == seed_adjacent.tolist()  # values and order
            assert adjacent.base is None  # owns its memory
    assert graph._entry_point == seed_graph._entry_point
    assert astuple(index.build_stats) == astuple(seed.build_stats)
    assert index.memory_bytes() == seed.memory_bytes()


def cell_accelerated_levels(graph):
    """Levels of a built graph large enough for the cell-accelerated branch."""
    levels = set()
    for level, layer in enumerate(graph._layers):
        degree = max(1, min(2 * graph.hnsw_m if level == 0 else graph.hnsw_m, len(layer) - 1))
        if len(layer) > max(256, 4 * degree):
            levels.add(level)
    return levels


class TestSeedBuildEquivalence:
    """The array-at-a-time graph build makes the seed's graph, array for array."""

    @pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
    @pytest.mark.parametrize("rows", [1, 2, 17, 300, 700, 1500, 3000])
    @pytest.mark.parametrize("metric", ["angular", "l2", "ip"])
    def test_matrix(self, metric, rows, duplicated):
        vectors, _ = matrix_corpus(rows, duplicated)
        cases = [
            (HNSWIndex, {"hnsw_m": hnsw_m, "ef_construction": ef_construction})
            for hnsw_m, ef_construction in BUILD_PARAMETERS
        ]
        cases.append((AutoIndex, {}))
        reached = set()
        for index_type, parameters in cases:
            index = index_type(metric=metric, **parameters)
            seed = seed_built(index_type(metric=metric, **parameters))
            index.build(vectors)
            seed.build(vectors)
            assert_same_graph(index, seed)
            reached |= cell_accelerated_levels(graph_of(index))
        # The matrix is only an oracle for the branch it reaches: the bottom
        # layer from 300 rows up, an upper layer (hnsw_m 2 keeps half the
        # nodes per level) from 700.
        assert (0 in reached) == (rows >= 300)
        assert (1 in reached) == (rows >= 700)
