"""HNSW: hierarchical navigable-small-world graph index.

The query path is the standard HNSW algorithm: greedy descent through the
upper layers followed by a best-first beam search of width ``ef_search`` on
the bottom layer.  Recall and cost therefore respond to ``hnsw_m`` (graph
degree), ``ef_construction`` (neighbour quality at build time) and
``ef_search`` (beam width) exactly as in the real system.  Walks are
independent per query, so the queries of a block walk in rounds and a round's
hops are scored as one tile: one gather and one finish instead of one per hop.
A large block keeps each walk's results as one sorted row of int64 keys and
advances every row of the block with a few array calls per round; the heap
walk stays for small blocks, for a block's last walkers and for the walks the
rows cannot follow (ties at a row's boundary, non-finite or ``-0.0`` scores).
Both give the same ids, distance bytes and counted work.  A shard's run of
graphs walks the same way: each graph descends its own upper layers, then the
walkers of every graph — one per (graph, query) — advance in the same rounds
over the graphs' bottom layers stacked as one, each scored against its own
graph's rows, so a round's NumPy calls serve the whole run
(:func:`search_graphs`).

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

from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice
from typing import Any, Mapping, Sequence

import numpy as np

from repro.vdms.distance import (
    DEFAULT_QUERY_BLOCK,
    DEFAULT_ROW_BLOCK,
    OperandUnion,
    QueryOperand,
    pairwise_distances,
)
from repro.vdms.index.base import BuildStats, SearchStats, VectorIndex, merge_results
from repro.vdms.index.kmeans import kmeans

__all__ = ["HNSWIndex", "padded_layer", "search_graphs"]

#: A block of queries walks on key rows from this many queries, and a walk
#: on the rows hands its last walkers to the heap once fewer than
#: ``HANDOVER`` remain.  A round of the rows costs about a hundred NumPy calls
#: whatever its width, a heap round a few microseconds per walker: measured on
#: the graphs of a tuning run, the rows win from about 30 queries up.  Handing
#: over also converts each row to heaps, so it waits for fewer walkers.
ROW_BLOCK = 32
HANDOVER = 16
#: Unexpanded keys a walker looks at in one step once its first has no
#: unvisited neighbour.
LOOKAHEAD = 8
#: A shard's run of graphs walks as one from this many walkers — (graph,
#: query) pairs — up, the width from which a block walks on key rows, and
#: only for more than one query; below, each graph searches alone.  Measured
#: on the run shapes of a tuning loop (2-7 graphs of 178-1 100 rows): under
#: ``ROW_BLOCK`` walkers every walk is on the heap either way and the union
#: costs as much as it saves (×0.8-1.3 of the graphs' own searches); from
#: it up the union walks on rows while its graphs alone might not
#: (×0.5-0.85).  A one-query request never builds a union.
RUN_WALKERS = ROW_BLOCK
#: Most rows one walk over a run's graphs spans: its union layer and scratch
#: stay linear in them, as an inverted-file run's candidate tiles do.
RUN_ROWS = 4 * DEFAULT_ROW_BLOCK
#: Pads a key row after its last key: above every key, and odd, so it reads
#: as expanded.
_PAD = np.iinfo(np.int64).max
_LOW31 = 0x7FFFFFFF


def padded_layer(adjacency: list[np.ndarray]) -> np.ndarray:
    """The bottom layer's stored form: node ``i``'s neighbours in order in row
    ``i`` of a ``(nodes + 1, degree)`` int64 array, padded with the sentinel
    id ``nodes`` (the last row is all padding)."""
    nodes = len(adjacency)
    sizes = np.array([adjacent.size for adjacent in adjacency], dtype=np.int64)
    layer = np.full((nodes + 1, max(1, int(sizes.max(initial=0)))), nodes, dtype=np.int64)
    if nodes:
        layer[:nodes][np.arange(layer.shape[1]) < sizes[:, None]] = np.concatenate(adjacency)
    return layer


def _ordered(distances: np.ndarray) -> np.ndarray:
    """float32 distances as int64 in the same order: the bits of a
    non-negative value, ``-1 - magnitude`` bits for a negative one (so
    ``-0.0`` is ``-1``, below ``+0.0``)."""
    bits = distances.view(np.int32)
    return (bits ^ ((bits >> 31) & _LOW31)).astype(np.int64)


def _unkey(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and float32 distances of ``keys`` (padding decodes to junk)."""
    ordered = (keys >> 32).astype(np.int32)
    return (keys & 0xFFFFFFFF) >> 1, (ordered ^ ((ordered >> 31) & _LOW31)).view(np.float32)


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
        #: Neighbours per layer.  Every node is in the bottom layer, so it is
        #: one :func:`padded_layer` array; the sparse upper layers are dicts.
        self._layers: list[np.ndarray | dict[int, np.ndarray]] = []
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
                graph = padded_layer(list(graph.values()))
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
        search of width ``ef`` on the bottom layer, a block of queries at a
        time: the walk of a run of this one graph (:meth:`_Run.walk`)."""
        positions, distances, stats = _Run([self]).walk(queries, top_k)
        return positions[0], distances[0], stats[0]

    @classmethod
    def search_run(
        cls,
        run: Sequence[VectorIndex],
        queries: np.ndarray,
        top_k: int,
        options: Sequence[Mapping[str, Any]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, SearchStats]:
        """The run's graphs walked as one (:func:`search_graphs`) where that
        pays; otherwise, and for a filtered run, each member's search and a
        merge.  See :meth:`VectorIndex.search_run`."""
        found = search_graphs(run, run, queries, top_k, options)
        return super().search_run(run, queries, top_k, options) if found is None else found

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

    def memory_bytes(self) -> int:
        if not self._layers:
            return 0
        bottom, *upper = self._layers
        nodes = bottom.shape[0] - 1
        edges = int(np.count_nonzero(bottom[:nodes] != nodes))
        edges += sum(adjacent.size for layer in upper for adjacent in layer.values())
        return int(edges * 8 + (nodes + sum(len(layer) for layer in upper)) * 8)


def search_graphs(
    run: Sequence[VectorIndex],
    graphs: Sequence[HNSWIndex],
    queries: np.ndarray,
    top_k: int,
    options: Sequence[Mapping[str, Any]] | None,
) -> tuple[np.ndarray, np.ndarray, SearchStats] | None:
    """A shard's run of graph indexes searched as one walk, or ``None`` where
    the run goes to the base :meth:`VectorIndex.search_run`.

    ``run`` holds the indexes the shard searches and ``graphs`` the HNSW
    graphs that answer them: the indexes themselves, or the graph an
    AUTOINDEX keeps.  Each graph descends its own upper layers, then the
    walkers of every graph advance in the same rounds (:class:`_Run`), a
    union of at most ``RUN_ROWS`` rows at a time.  Each member's walks,
    results and counted work are the ones its own search has; its positions
    become ids through its own index and the members' lists go through the
    base path's :func:`merge_results`, so the answer is the base path's.

    The base path takes a run of one, a filtered member, a member with fewer
    rows than ``top_k`` (its search clamps ``top_k``, and with it ``ef``),
    graphs that differ in metric, beam width or dimension, and a run of
    fewer than ``RUN_WALKERS`` walkers, where building a union does not pay.
    """
    if (
        len(run) < 2
        or (options is not None and any(option.get("allow_mask") is not None for option in options))
        or len(queries) < 2
        or len(run) * len(queries) < RUN_WALKERS
        or any(index.size < top_k for index in run)
        or len({(graph.metric, graph.ef_search, graph.dimension) for graph in graphs}) > 1
    ):
        return None
    prepared, top_k = run[0]._checked_request(queries, top_k)
    pieces, rows = [[]], 0
    for number, graph in enumerate(graphs):
        if pieces[-1] and rows + graph.size > RUN_ROWS:
            pieces.append([])
            rows = 0
        pieces[-1].append(number)
        rows += graph.size
    results = []
    for piece in pieces:
        walked = _Run([graphs[number] for number in piece]).walk(prepared, top_k)
        results.extend(
            run[number]._answer(positions, distances, stats, top_k)
            for number, positions, distances, stats in zip(piece, *walked)
        )
    return merge_results(results, top_k)


class _Run:
    """Graphs whose walks advance together: one graph's, or a shard's run.

    Their bottom layers are one block-diagonal graph over global node ids:
    graph ``g``'s node ``i`` is ``tops[g] + i`` and its padding id (the
    sentinel of :func:`padded_layer`) is ``pads[g]``, so ``layer`` stacks
    every graph's padded bottom layer with its ids shifted by its top and its
    rows widened with its own padding id.  A run of one graph is its own
    layer.  The union is per call, a copy of the graphs' bottom layers; the
    vectors are not copied, each graph's rows are gathered from its own
    cached operand (an :class:`OperandUnion`).

    A walker is one (graph, query) pair of a block of queries, graph-major.
    Its ``unvisited`` scratch covers its own graph's rows and padding cell,
    so a block's scratch is ``queries × layer rows`` booleans: linear in the
    run's rows.  Walker ``w`` reads the cell of global id ``n`` at
    ``bases[w] + n``.
    """

    def __init__(self, graphs: Sequence[HNSWIndex]) -> None:
        self.graphs = graphs
        layers = [graph._layers[0] for graph in graphs]
        heights = np.array([layer.shape[0] for layer in layers], dtype=np.int64)
        self.tops = np.cumsum(heights) - heights
        self.pads = self.tops + heights - 1
        if len(layers) == 1:
            self.operand = graphs[0]._operand
            self.layer = layers[0]
        else:
            self.operand = OperandUnion([graph._operand for graph in graphs], self.tops, int(heights.sum()))
            degree = max(layer.shape[1] for layer in layers)
            self.layer = np.empty((int(heights.sum()), degree), dtype=np.int64)
            for layer, top, pad in zip(layers, self.tops.tolist(), self.pads.tolist()):
                block = self.layer[top : pad + 1]
                np.add(layer, top, out=block[:, : layer.shape[1]])
                block[:, layer.shape[1] :] = pad
        # Each walker's graph, top and padding id: set per block by :meth:`walk`.
        self.owner = self.walker_tops = self.walker_pads = np.empty(0, dtype=np.int64)

    def walk(
        self, queries: np.ndarray, top_k: int
    ) -> tuple[np.ndarray, np.ndarray, list[SearchStats]]:
        """Each graph's search of the prepared ``queries``: its positions,
        distances and counted work, stacked graph by graph.

        Per block of ``DEFAULT_QUERY_BLOCK`` queries every graph descends its
        own upper layers (:meth:`HNSWIndex._descend`), then every walker of
        the block searches the bottom layers (:meth:`_beam`).  Walks never
        read each other's state, so a walker's hops, admissions, results and
        counted work are the ones its graph's search of its query has alone.
        """
        graphs = self.graphs
        members, num_queries = len(graphs), queries.shape[0]
        ef = max(graphs[0].ef_search, top_k)
        positions = np.full((members, num_queries, top_k), -1, dtype=np.int64)
        distances = np.full((members, num_queries, top_k), np.inf, dtype=np.float32)
        stats = [SearchStats(num_queries, segments_searched=1) for _ in graphs]
        # Per-call scratch, never index state: admission workers and any
        # other caller threads search one index concurrently.  Kept in the
        # negative so a hop's mask is one gather, not a gather and an invert;
        # each walker's padding cell stays False.
        scratch = np.empty(min(num_queries, DEFAULT_QUERY_BLOCK) * self.layer.shape[0], dtype=bool)
        for first in range(0, num_queries, DEFAULT_QUERY_BLOCK):
            prepared = QueryOperand(queries[first : first + DEFAULT_QUERY_BLOCK], graphs[0].metric)
            width = prepared.queries64.shape[0]
            rows = slice(first, first + width)
            starts = []
            for graph, top, record in zip(graphs, self.tops.tolist(), stats):
                # A view: the descent charges its rows of ``stats``.
                entered = graph._descend(prepared, SearchStats.from_rows(record.per_query[rows]))
                starts.extend(top + node for node in entered)
            # Small ints: a stable sort of a round's nodes by graph is a radix sort.
            self.owner = np.repeat(np.arange(members, dtype=np.min_scalar_type(members - 1)), width)
            self.walker_tops, self.walker_pads = self.tops[self.owner], self.pads[self.owner]
            # Walker (g, i) owns the cells from ``width·tops[g] + i·(rows + 1)``.
            bases = (width - 1) * self.walker_tops + np.tile(np.arange(width), members) * (
                self.walker_pads - self.walker_tops + 1
            )
            walked = SearchStats(members * width)
            found = np.full((members * width, top_k), -1, dtype=np.int64)
            found_distances = np.full((members * width, top_k), np.inf, dtype=np.float32)
            self._beam(
                prepared if members == 1 else prepared.repeated(members),
                starts, ef, scratch[: width * self.layer.shape[0]], bases, walked, found, found_distances,
            )
            np.subtract(found, self.walker_tops[:, None], out=found, where=found >= 0)
            positions[:, rows] = found.reshape(members, width, top_k)
            distances[:, rows] = found_distances.reshape(members, width, top_k)
            for record, walker_rows in zip(stats, walked.per_query.reshape(members, width, -1)):
                record.per_query[rows] += walker_rows
        return positions, distances, stats

    def score(
        self, prepared: QueryOperand, walkers: list[int], counts: list[int], nodes: np.ndarray
    ) -> np.ndarray:
        """Flat distances from each walker's query to its graph's rows at its
        next ``counts`` of ``nodes`` (global ids, end to end): one GEMV per
        walker and one finish, as a graph's own search scores them."""
        if len(self.graphs) == 1:
            return prepared.gather_scan_runs(walkers, counts, self.operand, nodes)
        return prepared.gather_scan_parts(walkers, counts, self.operand, self.owner[walkers], nodes)

    def _beam(
        self,
        prepared: QueryOperand,
        starts: list[int],
        ef: int,
        scratch: np.ndarray,
        bases: np.ndarray,
        stats: SearchStats,
        positions: np.ndarray,
        distances: np.ndarray,
    ) -> None:
        """Best-first search of the bottom layers from ``starts``, one walk
        per walker of the block, into the walkers' rows of the output
        (``positions`` as global ids and ``distances``, pre-filled with
        ``-1`` and ``inf``).  ``scratch`` is the block's ``unvisited`` cells.
        A block of ``ROW_BLOCK`` walkers or more walks on key rows
        (:meth:`_walk_rows`); the heap (:meth:`_walk_heaps`) walks a smaller
        block, finishes the rows' last walkers and walks again the walkers
        the rows cannot follow.  Each walk's hops and evaluations are charged
        to its row of ``stats``."""
        scratch.fill(True)
        scratch[bases + self.walker_pads] = False
        graph_hops = np.zeros(len(starts), dtype=np.int64)
        distance_evaluations = np.zeros(len(starts), dtype=np.int64)
        if len(starts) >= ROW_BLOCK:
            walks, parts, from_start = self._walk_rows(
                prepared, starts, ef, scratch, bases, graph_hops, distance_evaluations, positions, distances
            )
        else:
            walks, parts, from_start = {}, [], range(len(starts))
        offsets, sizes = bases.tolist(), (self.walker_pads - self.walker_tops).tolist()
        for walker in from_start:
            base = offsets[walker]
            scratch[base + starts[walker]] = False
            walks[walker] = [[], [], scratch[base:], sizes[walker] - 1, 0, 0]
            parts.append(np.array([starts[walker]]))
        self._walk_heaps(prepared, ef, walks, parts)
        top_k = positions.shape[1]
        for walker, (_, results, _, _, hops, evaluations) in walks.items():
            graph_hops[walker] += hops
            distance_evaluations[walker] += evaluations
            keep = sorted((-negated, node) for negated, node in results)[:top_k]
            positions[walker, : len(keep)] = [node for _, node in keep]
            distances[walker, : len(keep)] = [distance for distance, _ in keep]
        stats.add("graph_hops", graph_hops)
        stats.add("distance_evaluations", distance_evaluations)

    def _walk_rows(
        self,
        prepared: QueryOperand,
        starts: list[int],
        ef: int,
        scratch: np.ndarray,
        offsets: np.ndarray,
        graph_hops: np.ndarray,
        distance_evaluations: np.ndarray,
        positions: np.ndarray,
        distances: np.ndarray,
    ) -> tuple[dict[int, list], list[np.ndarray], list[int]]:
        """The walks of a block as sorted key rows, advanced for every walker
        at once, until fewer than ``HANDOVER`` walk.  Fills the output rows
        of the walks that end here and returns the rest: the heap states
        and next nodes of the walkers handed over, and the walkers to walk
        again from their start.

        A walk's results are one row of ``ef`` int64 keys
        ``(ordered distance bits << 32) | (node << 1) | expanded``
        (:func:`_ordered`): the row's nodes are distinct, so sorting keys is
        sorting ``(distance, node)``, the heap's pop order.  A round scores
        every walker's fresh nodes (one GEMV per query, as on the heap),
        admits those strictly under the row's worst (every one while the row
        is under-full), merges them in with one stable sort of the block and
        keeps ``ef`` keys, then expands each walker's first unexpanded key
        that has an unvisited neighbour.

        Dropping the keys past ``ef`` is exact while the merged row's
        ``ef``-th and ``(ef + 1)``-th distances differ: the heap then keeps
        the same ``ef`` nodes, and every node it evicts lies strictly above
        every later worst, so the pop that would reach one is the pop that
        ends the walk.  A walker whose round meets a tie there, a non-finite
        score or ``-0.0`` (the heap compares it equal to ``+0.0``; its key
        sorts it below) is dropped and walked again on the heap.
        """
        bottom = self.layer
        found = np.full(positions.shape, _PAD, dtype=np.int64)
        # The walkers on key rows: their numbers, bases into ``scratch``,
        # rows (``ef`` keys, then padding that a merge fills and a look-ahead
        # window reads), unvisited counts, and the fresh nodes each scores
        # next (``counts`` of them, end to end).
        walkers = np.arange(len(starts))
        bases = offsets
        keys = np.full((walkers.size, ef + max(bottom.shape[1], 1 + LOOKAHEAD)), _PAD, dtype=np.int64)
        unseen = self.walker_pads - self.walker_tops - 1
        nodes = np.array(starts, dtype=np.int64)
        counts = np.ones(walkers.size, dtype=np.int64)
        scratch[bases + nodes] = False
        restarts = []
        while walkers.size >= HANDOVER:
            scores = self.score(prepared, walkers.tolist(), counts.tolist(), nodes)
            distance_evaluations[walkers] += counts
            ordered = _ordered(scores)
            owner = np.repeat(np.arange(walkers.size), counts)
            dropped = None
            if not np.isfinite(scores).all() or (ordered == -1).any():
                dropped = np.zeros(walkers.size, dtype=bool)
                dropped[owner[~np.isfinite(scores) | (ordered == -1)]] = True
            admit = ordered < (keys[:, ef - 1] >> 32)[owner]
            taken = np.bincount(owner[admit], minlength=walkers.size)
            widest = int(taken.max())
            if widest:
                # The merge, in place: admitted keys after each row's ``ef``,
                # one sort, then the columns past ``ef`` back to padding.
                merged = keys[:, : ef + widest]
                merged[:, ef:][np.arange(widest) < taken[:, None]] = (ordered[admit] << 32) | (nodes[admit] << 1)
                merged.sort(axis=1, kind="stable")
                boundary = merged[:, ef]
                tie = (boundary != _PAD) & (boundary >> 32 == merged[:, ef - 1] >> 32)
                if tie.any():
                    dropped = tie if dropped is None else dropped | tie
                merged[:, ef:] = _PAD
            unexpanded = (keys[:, :ef] & 1) == 0
            pending = unexpanded.sum(axis=1)
            spent = unseen == 0
            if dropped is not None or spent.any():
                # Walkers leave before expanding: a dropped one to walk again
                # on the heap, and one that has visited every row after
                # counting each unexpanded key as a hop that scores nothing.
                if dropped is None:
                    dropped = np.zeros(walkers.size, dtype=bool)
                spent &= ~dropped
                graph_hops[walkers[spent]] += pending[spent]
                found[walkers[spent]] = keys[spent, : found.shape[1]]
                for walker in walkers[dropped].tolist():
                    restarts.append(walker)
                    graph_hops[walker] = distance_evaluations[walker] = 0
                    base = int(offsets[walker])
                    top, pad = int(self.walker_tops[walker]), int(self.walker_pads[walker])
                    scratch[base + top : base + pad] = True
                stay = ~(dropped | spent)
                walkers, bases, keys, unseen = walkers[stay], bases[stay], keys[stay], unseen[stay]
                unexpanded, pending = unexpanded[stay], pending[stay]
            # Expansion: each walker's first unexpanded key, then for those
            # whose key has no unvisited neighbour the keys after it, a
            # window of ``LOOKAHEAD`` at a time, up to the first that has
            # one.  Nothing is marked visited in between, so a window finds
            # the key the heap expands; every key passed over is a hop.
            everyone = np.arange(walkers.size)
            pads = self.walker_pads[walkers]
            column = unexpanded.argmax(axis=1)
            head = keys[everyone, column]
            opened = (head & 1) == 0
            neighbours = bottom[np.where(opened, (head >> 1) & _LOW31, pads)]
            places = bases[:, None] + neighbours
            fresh = scratch.take(places)
            keys[everyone, column] = head | opened
            graph_hops[walkers] += opened
            pending -= opened
            hit = fresh.any(axis=1)
            won = np.flatnonzero(hit)
            mask = fresh[won]
            scratch[places[won][mask]] = False
            gained = mask.sum(axis=1)
            unseen[won] -= gained
            moved, fresh_runs, fresh_counts = [won], [neighbours[won][mask]], [gained]
            seeking = np.flatnonzero(~hit & (pending > 0))
            start = column[seeking] + 1
            while seeking.size:
                rows = seeking[:, None]
                columns = start[:, None] + np.arange(LOOKAHEAD)
                looked = keys[rows, columns]
                unopened = (looked & 1) == 0
                neighbours = bottom[np.where(unopened, (looked >> 1) & _LOW31, pads[rows])].reshape(-1)
                places = (bases[rows] + neighbours.reshape(seeking.size, -1)).reshape(-1)
                # The unvisited neighbours, flat in (walker, key, neighbour)
                # order: a walker's first is on the key it expands.
                hits = np.flatnonzero(scratch.take(places))
                cells = hits // bottom.shape[1]
                owners = cells // LOOKAHEAD
                lead = np.ones(hits.size, dtype=bool)
                lead[1:] = owners[1:] != owners[:-1]
                won = owners[lead]
                first = np.full(seeking.size, LOOKAHEAD)
                first[won] = cells[lead] - won * LOOKAHEAD
                opened = unopened & (np.arange(LOOKAHEAD) <= first[:, None])
                keys[rows, columns] = looked | opened
                hops = opened.sum(axis=1)
                graph_hops[walkers[seeking]] += hops
                pending[seeking] -= hops
                picked = cells - owners * LOOKAHEAD == first[owners]
                chosen = hits[picked]
                scratch[places[chosen]] = False
                gained = np.bincount(owners[picked], minlength=seeking.size)[won]
                unseen[seeking[won]] -= gained
                moved.append(seeking[won])
                fresh_runs.append(neighbours[chosen])
                fresh_counts.append(gained)
                going = (first == LOOKAHEAD) & (pending[seeking] > 0)
                seeking, start = seeking[going], start[going] + LOOKAHEAD
            going = np.concatenate(moved)
            if going.size < walkers.size:
                ended = np.ones(walkers.size, dtype=bool)
                ended[going] = False
                found[walkers[ended]] = keys[ended, : found.shape[1]]
            walkers, bases, keys, unseen = walkers[going], bases[going], keys[going], unseen[going]
            nodes, counts = np.concatenate(fresh_runs), np.concatenate(fresh_counts)
        real = found != _PAD
        found_nodes, found_distances = _unkey(found)
        positions[real] = found_nodes[real]
        distances[real] = found_distances[real]
        # The handover: a row's keys are its result heap, its unexpanded keys
        # its candidates (sorted, so already a heap).
        walks, parts, stop = {}, [], 0
        for walker, row, left, size in zip(walkers.tolist(), keys[:, :ef], unseen.tolist(), counts.tolist()):
            row = row[row != _PAD]
            row_nodes, row_distances = _unkey(row)
            pending = (row & 1) == 0
            results = list(zip((-row_distances).tolist(), row_nodes.tolist()))
            heapify(results)
            candidates = list(zip(row_distances[pending].tolist(), row_nodes[pending].tolist()))
            walks[walker] = [candidates, results, scratch[int(offsets[walker]) :], left, 0, 0]
            start, stop = stop, stop + size
            parts.append(nodes[start:stop])
        return walks, parts, restarts

    def _walk_heaps(
        self,
        prepared: QueryOperand,
        ef: int,
        walks: dict[int, list],
        parts: list[np.ndarray],
    ) -> None:
        """The heap walk: ``walks`` maps a walker to its candidate min-heap,
        result max-heap (negated distances), ``unvisited`` cells (from its
        base on), count of rows left unvisited, hops and evaluations; each
        scores its entry of ``parts`` first.  Walks advance in rounds like
        the key rows' and end in place."""
        bottom = self.layer
        owners, sizes = list(walks), [part.size for part in parts]
        while owners:
            # One walk's part is scored as it is: a copy per round is a
            # measurable share of a one-query search.
            nodes = parts[0] if len(parts) == 1 else np.concatenate(parts)
            scores = self.score(prepared, owners, sizes, nodes).tolist()
            scored = zip(scores, nodes.tolist())
            walking, fresh_parts, fresh_sizes = [], [], []
            for walker, size in zip(owners, sizes):
                walk = walks[walker]
                candidates, results, unvisited_row, unseen, _, _ = walk
                walk[5] += size
                worst = -results[0][0] if results else None
                # The sequential admission rule, in adjacency order: an
                # under-full heap takes every neighbour, a full one only a
                # neighbour strictly under its worst.
                for distance, node in islice(scored, size):
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
                        walking.append(walker)
                        fresh_parts.append(fresh)
                        fresh_sizes.append(fresh.size)
                        break
                walk[4] += hops
            owners, parts, sizes = walking, fresh_parts, fresh_sizes
