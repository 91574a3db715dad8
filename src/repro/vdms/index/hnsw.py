"""HNSW: hierarchical navigable-small-world graph index.

The query path is the standard HNSW algorithm: greedy descent through the
upper layers followed by a best-first beam search of width ``ef_search`` on
the bottom layer.  Recall and cost therefore respond to ``hnsw_m`` (graph
degree), ``ef_construction`` (neighbour quality at build time) and
``ef_search`` (beam width) exactly as in the real system.

Construction uses a cell-accelerated neighbour selection instead of the
incremental insert of the original paper: nodes of a layer are grouped with
k-means and each node picks its ``M`` nearest neighbours from its own and the
adjacent cells, with the candidate-pool size growing with
``ef_construction``.  This keeps index builds vectorized (milliseconds at the
scales used here) while producing graphs whose recall improves with ``M`` and
``ef_construction`` — the property the tuner exploits.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.vdms.distance import QueryOperand, pairwise_distances
from repro.vdms.index.base import BuildStats, SearchStats, VectorIndex
from repro.vdms.index.kmeans import kmeans

__all__ = ["HNSWIndex"]


class HNSWIndex(VectorIndex):
    """Hierarchical navigable-small-world graph."""

    index_type = "HNSW"

    def __init__(
        self,
        metric: str = "angular",
        *,
        hnsw_m: int = 16,
        ef_construction: int = 128,
        ef_search: int = 64,
        seed: int = 0,
        **params,
    ) -> None:
        super().__init__(metric=metric, hnsw_m=hnsw_m, ef_construction=ef_construction, ef_search=ef_search, **params)
        self.hnsw_m = int(hnsw_m)
        self.ef_construction = int(ef_construction)
        self.seed = int(seed)
        if self.hnsw_m < 2:
            raise ValueError("hnsw_m must be >= 2")
        if self.ef_construction < 1:
            raise ValueError("ef_construction must be >= 1")
        self.ef_search = self.checked_search_params(ef_search=ef_search)["ef_search"]
        #: Neighbour arrays per layer.  Every node is in the bottom layer, so
        #: it is a list indexed by position; the sparse upper layers are dicts.
        self._layers: list[list[np.ndarray] | dict[int, np.ndarray]] = []
        self._entry_point: int = 0
        self._build_distance_evaluations = 0

    # -- construction ----------------------------------------------------------

    def _select_layer_nodes(self, rng: np.random.Generator, count: int) -> list[np.ndarray]:
        """Assign nodes to layers with the standard geometric level distribution."""
        level_scale = 1.0 / np.log(max(2.0, float(self.hnsw_m)))
        levels = np.floor(-np.log(rng.random(count) + 1e-12) * level_scale).astype(int)
        levels = np.minimum(levels, 6)
        max_level = int(levels.max()) if count else 0
        members = []
        for level in range(max_level + 1):
            members.append(np.flatnonzero(levels >= level).astype(np.int64))
        return members

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

    def _build(self, vectors: np.ndarray) -> BuildStats:
        rng = np.random.default_rng(self.seed)
        self._build_distance_evaluations = 0
        layer_members = self._select_layer_nodes(rng, vectors.shape[0])
        self._layers = []
        for level, members in enumerate(layer_members):
            degree = 2 * self.hnsw_m if level == 0 else self.hnsw_m
            graph = self._layer_graph(members, vectors, degree)
            if level == 0:
                graph = [graph[node] for node in range(members.size)]
            self._layers.append(graph)
        top_members = layer_members[-1]
        self._entry_point = int(top_members[0])
        return BuildStats(
            distance_evaluations=int(self._build_distance_evaluations),
            training_iterations=len(self._layers),
            extra={"levels": len(self._layers), "entry_point": self._entry_point},
        )

    # -- search -----------------------------------------------------------------

    def _search(self, queries: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """Greedy descent through the upper layers, then a best-first beam
        search of width ``ef`` on the bottom layer, per query.

        A hop — scoring one node's neighbours — is one gather of cached
        float64 rows and one finish (:meth:`QueryOperand.gather_scan`); the
        query side is prepared once for the whole batch.
        """
        ef = max(self.ef_search, top_k)
        num_queries = queries.shape[0]
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        prepared = QueryOperand(queries, self.metric)
        operand = self._operand
        bottom, upper = self._layers[0], self._layers[:0:-1]
        # Per-call scratch, never index state: admission workers and
        # scheduler threads search one index concurrently.  Kept in the
        # negative so a hop's mask is one gather, not a gather and an invert.
        unvisited = np.ones(len(bottom), dtype=bool)
        graph_hops = distance_evaluations = coarse_evaluations = 0
        for query_index in range(num_queries):
            # Greedy walk to a local minimum within each upper layer.
            current = self._entry_point
            for layer in upper:
                current_distance = float(prepared.gather_scan(query_index, operand, [current])[0])
                coarse_evaluations += 1
                while True:
                    neighbours = layer[current]
                    if neighbours.size == 0:
                        break
                    hop = prepared.gather_scan(query_index, operand, neighbours)
                    coarse_evaluations += neighbours.size
                    graph_hops += 1
                    best = int(np.argmin(hop))
                    if not hop[best] < current_distance:
                        break
                    current = int(neighbours[best])
                    current_distance = float(hop[best])

            start_distance = float(prepared.gather_scan(query_index, operand, [current])[0])
            distance_evaluations += 1
            unvisited.fill(True)
            unvisited[current] = False
            # Candidate min-heap and result max-heap (negated distances).
            candidates: list[tuple[float, int]] = [(start_distance, current)]
            results: list[tuple[float, int]] = [(-start_distance, current)]
            while candidates:
                distance, node = heapq.heappop(candidates)
                worst = -results[0][0]
                full = len(results) >= ef
                if distance > worst and full:
                    break
                graph_hops += 1
                neighbours = bottom[node]
                fresh = neighbours[unvisited[neighbours]]
                if fresh.size == 0:
                    continue
                unvisited[fresh] = False
                hop = prepared.gather_scan(query_index, operand, fresh)
                distance_evaluations += fresh.size
                if full:
                    # A full result heap's worst distance never rises within a
                    # hop, so only neighbours under it now can be admitted
                    # below; the loop still applies the sequential rule.
                    admissible = hop < worst
                    fresh = fresh[admissible]
                    hop = hop[admissible]
                for neighbour_distance, neighbour in zip(hop.tolist(), fresh.tolist()):
                    if len(results) < ef or neighbour_distance < worst:
                        heapq.heappush(candidates, (neighbour_distance, neighbour))
                        heapq.heappush(results, (-neighbour_distance, neighbour))
                        if len(results) > ef:
                            heapq.heappop(results)
                        worst = -results[0][0]
            keep = sorted((-negated, node) for negated, node in results)[:top_k]
            positions[query_index, : len(keep)] = [node for _, node in keep]
            distances[query_index, : len(keep)] = [distance for distance, _ in keep]
        stats = SearchStats(
            distance_evaluations=distance_evaluations,
            coarse_evaluations=coarse_evaluations,
            graph_hops=graph_hops,
            segments_searched=num_queries,
        )
        return positions, distances, stats

    def memory_bytes(self) -> int:
        if not self._layers:
            return 0
        bottom, *upper = self._layers
        edges = sum(adjacent.size for adjacent in bottom)
        edges += sum(adjacent.size for layer in upper for adjacent in layer.values())
        return int(edges * 8 + sum(len(layer) for layer in self._layers) * 8)
