"""HNSW: hierarchical navigable-small-world graph index.

The query path is the standard HNSW algorithm: greedy descent through the
upper layers followed by a best-first beam search of width ``ef_search`` on
the bottom layer.  Recall and cost therefore respond to ``hnsw_m`` (graph
degree), ``ef_construction`` (neighbour quality at build time) and
``ef_search`` (beam width) exactly as in the real system.  Walks are
independent per query, so the queries of a block walk in rounds and a round's
hops are scored as one tile: one gather and one finish instead of one per hop.

Construction uses a cell-accelerated neighbour selection instead of the
incremental insert of the original paper: nodes of a layer are grouped with
k-means and each node picks its ``M`` nearest neighbours from its own and the
adjacent cells, with the candidate-pool size growing with
``ef_construction``; the graph is then made symmetric and pruned back to the
degree cap.  Every step is an array pass over a cell or over the layer's edge
list — the only per-node work left is the one partition that orders a pruned
node's neighbours — so a thousand rows build in tens of milliseconds, while
the graphs' recall improves with ``M`` and ``ef_construction``: the property
the tuner exploits.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace

import numpy as np

from repro.vdms.distance import DEFAULT_QUERY_BLOCK, QueryOperand, pairwise_distances
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
        """Build the neighbour lists of one layer via cell-accelerated selection.

        ``node_ids`` ascend (:meth:`_select_layer_nodes`), so a node's position
        in the layer orders like its id.  Everything up to the prune works on
        positions, a few array passes per layer; the result maps node id to an
        array that owns its memory, in ``node_ids`` order.
        """
        count = node_ids.size
        if count <= 1:
            return {int(node): np.empty(0, dtype=np.int64) for node in node_ids}
        points = vectors[node_ids]
        degree = max(1, min(degree, count - 1))

        # Selection: every node picks its nearest ``degree`` as (owner, other) edges.
        if count <= max(256, 4 * degree):
            distances = pairwise_distances(points, points, self.metric)
            self._build_distance_evaluations += count * count
            np.fill_diagonal(distances, np.inf)
            owners = np.repeat(np.arange(count), degree)
            others = np.argsort(distances, axis=1)[:, :degree].ravel()
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
            # Each cell's members in ascending position: one stable sort.
            cell_sizes = np.bincount(clustering.assignments, minlength=clustering.centroids.shape[0])
            members = np.split(np.argsort(clustering.assignments, kind="stable"), np.cumsum(cell_sizes)[:-1])
            owner_runs, other_runs = [], []
            for cell_members, adjacent in zip(members, nearest_cells):
                pool_positions = np.concatenate([cell_members, *(members[other] for other in adjacent)])
                self._build_distance_evaluations += cell_members.size * pool_positions.size
                keep = min(degree, pool_positions.size - 1)
                if cell_members.size == 0 or keep <= 0:
                    continue
                block = pairwise_distances(points[cell_members], points[pool_positions], self.metric)
                # Exclude the node itself from its own neighbour list (a probe
                # of every cell puts the cell's own members in the pool twice).
                block[cell_members[:, None] == pool_positions] = np.inf
                # Row by row the 1-D partition and sort of that node's scores.
                best = np.argpartition(block, keep - 1, axis=1)[:, :keep]
                ranked = np.argsort(np.take_along_axis(block, best, axis=1), axis=1)
                owner_runs.append(np.repeat(cell_members, keep))
                other_runs.append(pool_positions[np.take_along_axis(best, ranked, axis=1)].ravel())
            owners, others = np.concatenate(owner_runs), np.concatenate(other_runs)

        # Make the graph symmetric: every edge and its reverse as one sorted,
        # de-duplicated key per (owner, other), so each owner's neighbours come
        # out ascending.  A pool short of non-self rows selects the node itself.
        proper = owners != others
        owners, others = owners[proper], others[proper]
        keys = np.sort(np.concatenate((owners * count + others, others * count + owners)))
        distinct = np.ones(keys.size, dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        owners, others = np.divmod(keys[distinct], count)
        merged = node_ids[others]
        sizes = np.bincount(owners, minlength=count)
        spans = np.concatenate(([0], np.cumsum(sizes))).tolist()
        adjacency = [merged[start:stop] for start, stop in zip(spans, spans[1:])]

        # Prune back to the degree cap keeping the closest neighbours (the
        # same policy as HNSW's neighbour pruning).  Only the nodes over the
        # cap are scored, a tile of them per gather; the partition stays one
        # 1-D call per node on exactly its scores, because its output order
        # is the adjacency order and padding would change it.
        crowded = sizes > degree
        self._build_distance_evaluations += int(sizes[crowded].sum())
        over_cap = np.flatnonzero(crowded).tolist()
        for first in range(0, len(over_cap), DEFAULT_QUERY_BLOCK):
            tile = over_cap[first : first + DEFAULT_QUERY_BLOCK]
            runs = [adjacency[position] for position in tile]
            counts = [run.size for run in runs]
            scores = QueryOperand(points[tile], self.metric).gather_scan_runs(
                range(len(tile)), counts, self._operand, np.concatenate(runs)
            )
            stop = 0
            for position, run, size in zip(tile, runs, counts):
                start, stop = stop, stop + size
                adjacency[position] = run[scores[start:stop].argpartition(degree - 1)[:degree]]
        # Every array owns its memory: a view would keep the layer's flat one alive.
        for position in np.flatnonzero(~crowded).tolist():
            adjacency[position] = adjacency[position].copy()
        return dict(zip(node_ids.tolist(), adjacency))

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
        search of width ``ef`` on the bottom layer, a block of queries at a time.

        The walks of a block advance in rounds: every query still walking
        offers the rows it has to score next, one gather of cached float64
        rows and one finish score them all
        (:meth:`QueryOperand.gather_scan_runs`), and each query reads its own
        slice.  Walks never read each other's state, so a query's hops,
        admissions, results and counted work (its row of ``stats``) are the
        ones it has alone.
        """
        ef = max(self.ef_search, top_k)
        num_queries = queries.shape[0]
        positions = np.full((num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((num_queries, top_k), np.inf, dtype=np.float32)
        stats = SearchStats(num_queries, segments_searched=1)
        # Per-call scratch, never index state: admission workers and any
        # other caller threads search one index concurrently.  Kept in the
        # negative so a hop's mask is one gather, not a gather and an invert.
        unvisited = np.empty((min(num_queries, DEFAULT_QUERY_BLOCK), len(self._layers[0])), dtype=bool)
        for first in range(0, num_queries, DEFAULT_QUERY_BLOCK):
            prepared = QueryOperand(queries[first : first + DEFAULT_QUERY_BLOCK], self.metric)
            # A view: the block's walks charge their rows of ``stats``.
            block = SearchStats.from_rows(stats.per_query[first : first + DEFAULT_QUERY_BLOCK])
            starts = self._descend(prepared, block)
            found = self._beam(prepared, starts, ef, unvisited[: len(starts)], block)
            for query, results in enumerate(found, first):
                keep = sorted((-negated, node) for negated, node in results)[:top_k]
                positions[query, : len(keep)] = [node for _, node in keep]
                distances[query, : len(keep)] = [distance for distance, _ in keep]
        return positions, distances, stats

    def _descend(self, prepared: QueryOperand, stats: SearchStats) -> list[int]:
        """Greedy walk of every query of a block to a local minimum within
        each upper layer; returns where each one enters the bottom layer."""
        operand = self._operand
        everyone = range(prepared.queries64.shape[0])
        current = [self._entry_point] * len(everyone)
        for layer in self._layers[:0:-1]:
            nearest = prepared.gather_scan_runs(everyone, [1] * len(everyone), operand, np.array(current)).tolist()
            stats.add("coarse_evaluations", 1)
            moved = everyone
            while moved:
                # A round: one hop of every query that moved in the last one
                # and stands on a node with neighbours.
                owners = [query for query in moved if layer[current[query]].size]
                if not owners:
                    break
                parts = [layer[current[query]] for query in owners]
                sizes = [part.size for part in parts]
                scores = prepared.gather_scan_runs(owners, sizes, operand, np.concatenate(parts))
                stats.add("coarse_evaluations", sizes, owners)
                stats.add("graph_hops", 1, owners)
                moved, stop = [], 0
                for query, part in zip(owners, parts):
                    start, stop = stop, stop + part.size
                    hop = scores[start:stop]
                    best = int(hop.argmin())
                    if hop[best] < nearest[query]:
                        current[query] = int(part[best])
                        nearest[query] = float(hop[best])
                        moved.append(query)
        return current

    def _beam(
        self, prepared: QueryOperand, starts: list[int], ef: int, unvisited: np.ndarray, stats: SearchStats
    ) -> list[list[tuple[float, int]]]:
        """Best-first search of the bottom layer from ``starts``, one walk per
        query of the block; returns each query's result heap (negated
        distances).  ``unvisited`` is the block's ``(queries, rows)`` scratch.
        Each walk's hops and evaluations are counted per round and charged to
        its row of ``stats`` at the end."""
        operand = self._operand
        bottom = self._layers[0]
        unvisited.fill(True)
        # Per query: candidate min-heap, result max-heap, its row of the
        # scratch, and how many rows it has yet to visit.
        walks = []
        for unvisited_row, start in zip(unvisited, starts):
            unvisited_row[start] = False
            walks.append([[], [], unvisited_row, len(bottom) - 1])
        owners = list(range(len(starts)))
        parts = [np.array([start]) for start in starts]
        graph_hops = [0] * len(starts)
        distance_evaluations = [0] * len(starts)
        while owners:
            if len(owners) == 1:
                # A round of one walk is that walk's own scan.
                nodes = parts[0]
                scores = prepared.gather_scan(owners[0], operand, nodes).tolist()
            else:
                nodes = np.concatenate(parts)
                scores = prepared.gather_scan_runs(owners, [part.size for part in parts], operand, nodes).tolist()
            nodes = nodes.tolist()
            walking, fresh_parts, stop = [], [], 0
            for query, part in zip(owners, parts):
                start, stop = stop, stop + part.size
                distance_evaluations[query] += part.size
                walk = walks[query]
                candidates, results, unvisited_row, unseen = walk
                worst = -results[0][0] if results else None
                # The sequential admission rule, in adjacency order: an
                # under-full heap takes every neighbour, a full one only a
                # neighbour strictly under its worst.
                for distance, node in zip(scores[start:stop], nodes[start:stop]):
                    if len(results) < ef:
                        heappush(candidates, (distance, node))
                        heappush(results, (-distance, node))
                        worst = -results[0][0]
                    elif distance < worst:
                        heappush(candidates, (distance, node))
                        heapreplace(results, (-distance, node))
                        worst = -results[0][0]
                # Expand candidates up to the first with unvisited neighbours:
                # a hop that scores nothing costs no round, and once every row
                # is visited it costs no look at the adjacency either.
                hops = 0
                while candidates:
                    distance, node = heappop(candidates)
                    if distance > worst and len(results) >= ef:
                        break
                    hops += 1
                    if not unseen:
                        continue
                    neighbours = bottom[node]
                    fresh = neighbours[unvisited_row[neighbours]]
                    if fresh.size:
                        unvisited_row[fresh] = False
                        walk[3] = unseen - fresh.size
                        walking.append(query)
                        fresh_parts.append(fresh)
                        break
                graph_hops[query] += hops
            owners, parts = walking, fresh_parts
        stats.add("graph_hops", graph_hops)
        stats.add("distance_evaluations", distance_evaluations)
        return [walk[1] for walk in walks]

    def memory_bytes(self) -> int:
        if not self._layers:
            return 0
        bottom, *upper = self._layers
        edges = sum(adjacent.size for adjacent in bottom)
        edges += sum(adjacent.size for layer in upper for adjacent in layer.values())
        return int(edges * 8 + sum(len(layer) for layer in self._layers) * 8)
