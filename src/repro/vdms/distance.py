"""Distance kernels shared by every index implementation.

Three metrics are supported, mirroring the options of the real system:

``"l2"``
    Squared Euclidean distance (monotone with Euclidean, cheaper to compute).
``"ip"``
    Negative inner product, so that *smaller is better* like the others.
``"angular"``
    Cosine distance, computed as squared Euclidean distance between
    L2-normalized vectors (a strictly monotone transform of the angle).

Determinism: the kernel guarantees that the distance of a ``(query, vector)``
pair depends only on the pair itself, never on the *shape* of the batch it
was scored in.  Single-precision GEMM rounds differently per submatrix shape
(BLAS kernel selection), which would hand two copies of the same vector —
stored in different segments or shards — unequal distances, silently
defeating the id tie-breaking the scatter-gather merge
(:func:`repro.vdms.sharding.merge_topk`) relies on for bit-identical sharded
results.  The fix: accumulate in float64 (shape-dependent rounding shrinks to
~1e-16 relative), round the result to float32 (collapsing that noise), and
snap the sub-epsilon cancellation residue of identical vectors to exact zero.

Steady-state scan cost: the stored side of every scan is immutable between
mutations, so the float64 operand view and the per-row squared norms it
needs are computed once and cached on a :class:`ScanOperand` (built at
segment seal / index build).  A steady-state scan is then a single GEMM plus
a broadcast add instead of two casts and an einsum per call.  The query side
(``O(q*d)``) stays per-call; it is noise next to the ``O(q*n*d)`` GEMM — as
long as the operand is large.  A shard's FLAT-served segments are many small
operands, so the blocked-scan kernel takes a *sequence* of them
(:func:`scan_topk`): the query side, the per-pair finish and the top-k
select are paid once per run instead of once per segment.  A graph search
is the other small-operand case — a handful of gathered rows per hop, the
same query every time — and caches the query side instead
(:class:`QueryOperand`).  An inverted-file probe is the third: every query of
a batch against its own few dozen gathered rows.  Its products stay one GEMV
per query, but the gather and the finish are paid once per tile of queries
(:meth:`QueryOperand.gather_scan_runs`) — and so is a round of graph walks,
one hop of every query of a block.  A shard's IVF_FLAT segments go one step
further: their coarse GEMMs land side by side under one finish
(:meth:`QueryOperand.scan` over a sequence of operands), each segment's
GEMVs land side by side per query (:meth:`QueryOperand.gather_products`),
and one finish (:meth:`QueryOperand.finish_runs`) and one select serve the
whole run.  Every product is still the call its own segment search issues:
what a run pays per segment is that segment's gather and its GEMVs.  A
shard's run of graphs walks its segments' queries in the same rounds: a
round's rows are gathered from each segment's own operand, numbered as one
by an :class:`OperandUnion` (:meth:`QueryOperand.gather_scan_parts`).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "MASK_DENSE_SCAN_SELECTIVITY",
    "METRICS",
    "OperandUnion",
    "QueryOperand",
    "ScanOperand",
    "masked_topk",
    "normalize_rows",
    "pairwise_distances",
    "pairwise_distances_blocked",
    "prepare_vectors",
    "scan_topk",
    "top_k_select",
]

#: Supported metric names.
METRICS: tuple[str, ...] = ("l2", "ip", "angular")

#: Mask selectivity at or above which a masked scan switches from
#: index-select (gather the allowed rows, GEMM over the subset) to a dense
#: full-matrix GEMM over the cached operand with disallowed columns masked
#: to ``+inf`` afterwards.  Gathering rows costs a copy per scan and forfeits
#: the cached float64 view; once most rows pass the filter the dense scan is
#: cheaper despite scoring rows the mask will discard.  :func:`masked_topk`
#: makes the decision.
MASK_DENSE_SCAN_SELECTIVITY = 0.5


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Return a copy of ``matrix`` with every row scaled to unit L2 norm.

    Zero rows are left untouched (they would otherwise produce NaNs).
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def prepare_vectors(matrix: np.ndarray, metric: str) -> np.ndarray:
    """Pre-process vectors for a metric (normalization for ``angular``)."""
    if metric not in METRICS:
        raise ValueError(f"unsupported metric {metric!r}")
    matrix = np.asarray(matrix, dtype=np.float32)
    if metric == "angular":
        return normalize_rows(matrix)
    return np.ascontiguousarray(matrix)


#: Relative threshold below which an l2/angular distance is snapped to exact
#: zero.  Float64 cancellation residue of *identical* vectors is ~1e-16 of
#: the norm scale, so 1e-14 cleans it with a ~100x margin.  The snap is not
#: free of collateral: a pair of *distinct* vectors within ~2 float32 ulps
#: of each other also collapses to an exact 0 tie — which then resolves
#: deterministically by ascending id, the same outcome float32 serving
#: could not reliably distinguish anyway.  Any pair separated by more than
#: a couple of ulps keeps a strictly positive distance.
_ZERO_SNAP_RELATIVE = 1e-14


class ScanOperand:
    """Cached stored-side state for the scan kernels.

    Wraps the float32 matrix a metric actually scans (for ``angular`` that is
    the *normalized* matrix, exactly as :func:`pairwise_distances` would
    normalize it internally) and lazily caches the float64 cast and the
    per-row squared norms.  Build one per sealed segment / built index and
    reuse it across scans; the cached members are computed on first use and
    are bitwise equal to what the un-cached kernel recomputed per call, so
    results are bit-identical with or without the cache.

    Lazy materialization is idempotent (both racers compute the same arrays
    from the same immutable input), so the benign first-use race between
    callers' threads searching concurrently needs no lock.
    """

    __slots__ = ("vectors", "_vectors64", "_norms64")

    def __init__(self, vectors: np.ndarray) -> None:
        self.vectors = np.asarray(vectors, dtype=np.float32)
        if self.vectors.ndim != 2:
            raise ValueError("ScanOperand expects a 2-d (rows, dims) matrix")
        self._vectors64: np.ndarray | None = None
        self._norms64: np.ndarray | None = None

    @classmethod
    def prepare(cls, vectors: np.ndarray, metric: str) -> "ScanOperand":
        """Build an operand applying the same per-metric pre-processing
        :func:`pairwise_distances` applies to a raw stored-side matrix."""
        if metric not in METRICS:
            raise ValueError(f"unsupported metric {metric!r}")
        matrix = np.asarray(vectors, dtype=np.float32)
        if metric == "angular":
            matrix = normalize_rows(matrix)
        return cls(matrix)

    @property
    def shape(self) -> tuple[int, int]:
        return self.vectors.shape  # type: ignore[return-value]

    @property
    def vectors64(self) -> np.ndarray:
        """Float64 operand view (cached; computed once per lifetime)."""
        if self._vectors64 is None:
            self._vectors64 = self.vectors.astype(np.float64)
        return self._vectors64

    @property
    def norms64(self) -> np.ndarray:
        """Per-row squared L2 norms in float64 (cached)."""
        if self._norms64 is None:
            operand = self.vectors64
            self._norms64 = np.einsum("ij,ij->i", operand, operand)
        return self._norms64

    @property
    def is_materialized(self) -> bool:
        """Whether the cached cast/norms have been computed yet."""
        return self._vectors64 is not None and self._norms64 is not None

    def materialize(self) -> "ScanOperand":
        """Eagerly compute the cached members; returns ``self``."""
        self.norms64  # noqa: B018 - property access materializes both caches
        return self

    def take(self, positions: np.ndarray) -> "ScanOperand":
        """Sub-operand of the selected rows.

        Cached casts/norms are index-selected rather than recomputed (the
        float32→float64 cast is exact, so a gathered cached cast is bitwise
        equal to casting the gathered float32 rows).  Members that were never
        materialized stay lazy in the sub-operand — a small candidate scan
        must not force the full-matrix cast.
        """
        sub = ScanOperand(self.vectors[positions])
        if self._vectors64 is not None:
            sub._vectors64 = self._vectors64[positions]
        if self._norms64 is not None:
            sub._norms64 = self._norms64[positions]
        return sub


class OperandUnion:
    """Several :class:`ScanOperand` numbered as one, their rows left in place.

    Operand ``k``'s row ``i`` is position ``starts[k] + i``; positions
    between operands may go unused.  Only the squared norms are laid end to
    end (``size`` of them): a gather reads each operand's own cached float64
    rows (:meth:`QueryOperand.gather_scan_parts`), so a union costs its
    positions' norms, not its rows' vectors.
    """

    __slots__ = ("operands", "starts", "norms64")

    def __init__(self, operands: Sequence[ScanOperand], starts: Sequence[int], size: int) -> None:
        self.operands = list(operands)
        self.starts = [int(start) for start in starts]
        self.norms64 = np.zeros(size)
        for operand, start in zip(self.operands, self.starts):
            self.norms64[start : start + operand.shape[0]] = operand.norms64


def _as_operand(vectors: np.ndarray | ScanOperand, metric: str) -> ScanOperand:
    if isinstance(vectors, ScanOperand):
        return vectors
    return ScanOperand.prepare(vectors, metric)


def _prepare_queries(queries: np.ndarray, metric: str) -> np.ndarray:
    """Query-side pre-processing every kernel applies on entry.

    The callers above the kernels (``VectorIndex.search``, the fused
    ``search_run`` of ``FlatIndex`` and ``IVFFlatIndex``) hand in queries
    that :func:`prepare_vectors` has already normalized for ``angular``, so
    this normalizes them a second time.  The second pass is kept on purpose: re-normalizing a unit-norm
    float32 row is not an identity (it moves the last ulp of some
    components), every recorded result — golden traces, the benchmark's
    exact-repeat quantities, the oracle suites' digests — was computed with
    it, and dropping it would change distances in their last bit.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    if metric == "angular":
        queries = normalize_rows(queries)
    return queries


def _finish_tile(
    products: np.ndarray,
    query_norms: np.ndarray | None,
    vector_norms: np.ndarray | None,
    metric: str,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-pair finish of the module contract over one tile of GEMM products.

    ``products`` is the float64 ``queries @ vectors.T`` of the tile and is
    consumed as scratch, ``query_norms`` a ``(q, 1)`` column and
    ``vector_norms`` a ``(rows,)`` vector of squared norms; the float32
    distances land in ``out`` (a fresh array when omitted), which is returned.  The arithmetic (``q² − 2qv + v²``,
    clamp, float32 round, zero-snap) touches each pair on its own, so how
    many operands' products share the tile never changes a value.
    """
    if metric == "ip":
        np.negative(products, out=products)
    else:
        np.multiply(products, 2.0, out=products)
        np.subtract(query_norms, products, out=products)
        np.add(products, vector_norms, out=products)
        np.maximum(products, 0.0, out=products)
    if out is None:
        out = products.astype(np.float32)
    else:
        out[...] = products
    if metric != "ip":
        out[products < _ZERO_SNAP_RELATIVE * (query_norms + vector_norms)] = 0.0
    return out


def _scan_tile(
    queries: np.ndarray, operand: ScanOperand, metric: str, out: np.ndarray | None = None
) -> np.ndarray:
    """One GEMM, one finish: prepared ``queries`` × every row of ``operand``."""
    queries64 = queries.astype(np.float64)
    products = queries64 @ operand.vectors64.T
    if metric == "ip":
        return _finish_tile(products, None, None, metric, out)
    query_norms = np.einsum("ij,ij->i", queries64, queries64)[:, None]
    return _finish_tile(products, query_norms, operand.norms64, metric, out)


def nonempty_spans(first: int, bounds: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """``(query, start, stop)`` of the queries of a ragged tile that own rows:
    query ``first + i`` owns the flat slice ``bounds[i]:bounds[i + 1]``."""
    spans = bounds.tolist()
    for query, (start, stop) in enumerate(zip(spans, spans[1:]), first):
        if stop > start:
            yield query, start, stop


class QueryOperand:
    """Cached query-side state: the twin of :class:`ScanOperand`.

    A graph search scores one query against a handful of stored rows per hop,
    hundreds of hops per query.  The query side of those scans never changes,
    so it is computed here once per batch — :func:`_prepare_queries` (the
    second ``angular`` normalisation included), the float64 cast and the
    squared norms, row for row what :func:`_scan_tile` derives from a
    one-query batch on every call.
    """

    __slots__ = ("metric", "queries64", "norms64")

    def __init__(self, queries: np.ndarray, metric: str) -> None:
        if metric not in METRICS:
            raise ValueError(f"unsupported metric {metric!r}")
        self.metric = metric
        self.queries64 = _prepare_queries(queries, metric).astype(np.float64)
        self.norms64: np.ndarray | None = None
        if metric != "ip":
            self.norms64 = np.einsum("ij,ij->i", self.queries64, self.queries64)[:, None]

    def gather_scan(self, row: int, operand: ScanOperand, positions: np.ndarray) -> np.ndarray:
        """Distances from query ``row`` to ``operand``'s rows at ``positions``.

        One gather of the cached float64 rows and norms, one finish.  The
        product is the ``(1, d) @ (d, m)`` GEMV with the gathered rows as the
        transposed right operand that ``pairwise_distances(query,
        operand.take(positions))`` issues, so the float32 values are that
        call's bit for bit.
        """
        products = self.queries64[row : row + 1] @ operand.vectors64.take(positions, axis=0).T
        if self.norms64 is None:
            return _finish_tile(products, None, None, self.metric)[0]
        return _finish_tile(
            products, self.norms64[row : row + 1], operand.norms64[positions], self.metric
        )[0]

    def scan(self, operands: Sequence[ScanOperand]) -> np.ndarray:
        """:func:`pairwise_distances` of the whole batch against each of
        ``operands``, side by side in one ``(q, Σ rows)`` array, without
        preparing the queries again.

        Each operand's GEMM keeps its own shape and writes into its own
        columns, so its products are the ones a scan of it alone computes;
        the per-pair finish runs once over all of them.
        """
        products = np.empty((self.queries64.shape[0], sum(operand.shape[0] for operand in operands)))
        start = 0
        for operand in operands:
            stop = start + operand.shape[0]
            np.matmul(self.queries64, operand.vectors64.T, out=products[:, start:stop])
            start = stop
        if self.norms64 is None:
            return _finish_tile(products, None, None, self.metric)
        vector_norms = np.concatenate([operand.norms64 for operand in operands])
        return _finish_tile(products, self.norms64, vector_norms, self.metric)

    def gather_scan_runs(
        self, rows: Sequence[int], counts: Sequence[int], operand: ScanOperand, positions: np.ndarray
    ) -> np.ndarray:
        """:meth:`gather_scan` of several queries, over one gather.

        ``positions`` holds the queries' runs end to end: query ``rows[i]`` is
        scored against ``operand``'s rows at the next ``counts[i]`` of them,
        and the distances come back flat.  Each query's product is the GEMV
        :meth:`gather_scan` issues, so the values are that call's bit for bit;
        the per-pair finish runs once.  The queries need not be consecutive:
        an inverted-file tile passes a ``range``, a round of graph walks the
        queries still walking.
        """
        if len(rows) == 1:
            return self.gather_scan(rows[0], operand, positions)
        products = np.empty((1, positions.shape[0]), dtype=np.float64)
        self.gather_products(rows, counts, operand, positions, products, accumulate(counts, initial=0))
        vector_norms = None if self.norms64 is None else operand.norms64[positions]
        return self.finish_runs(products, rows, counts, vector_norms)

    def gather_products(
        self,
        rows: Sequence[int],
        counts: Sequence[int],
        operand: ScanOperand,
        positions: np.ndarray,
        out: np.ndarray,
        starts: Iterable[int],
    ) -> None:
        """The GEMVs of :meth:`gather_scan_runs`, written where the caller wants them.

        One gather of ``operand``'s cached float64 rows at ``positions``, then
        query ``rows[i]``'s product over the next ``counts[i]`` of them into
        ``out[0, starts[i]:starts[i] + counts[i]]``.  A fused run of
        inverted-file segments lays each query's products from every segment
        side by side and finishes them once.
        """
        gathered = operand.vectors64.take(positions, axis=0)
        self._products(rows, counts, gathered, accumulate(counts, initial=0), out[0], starts)

    def _products(
        self,
        rows: Iterable[int],
        counts: Iterable[int],
        gathered: np.ndarray,
        begins: Iterable[int],
        out: np.ndarray,
        starts: Iterable[int],
    ) -> None:
        """Query ``rows[i]``'s product with ``gathered[begins[i]:][:counts[i]]``
        into the flat ``out[starts[i]:][:counts[i]]``, one GEMV per query.

        ``np.dot`` of the C-contiguous ``(m, d)`` rows and the ``(d,)`` query
        (as the method, which skips the function's dispatch) is the one-query
        dgemv that ``query @ rows.T`` with the query as a ``(1, d)`` row
        issues (:meth:`gather_scan`, :func:`_scan_tile`), so the products are
        that call's bit for bit, at about half the call overhead.
        """
        queries = self.queries64
        for row, count, begin, start in zip(rows, counts, begins, starts):
            if count:
                gathered[begin : begin + count].dot(queries[row], out=out[start : start + count])

    def gather_scan_parts(
        self,
        rows: Sequence[int],
        counts: Sequence[int],
        union: "OperandUnion",
        owners: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        """:meth:`gather_scan_runs` over several operands numbered as one
        (``union``): query ``rows[i]`` is scored against the rows of operand
        ``owners[i]`` at its next ``counts[i]`` of ``positions``.

        A stable sort by operand keeps each query's run whole and in order,
        so each operand's rows are gathered once, from its own cached float64
        rows, and each query's GEMV reads its run where the sort put it.
        Each product is the one :meth:`gather_scan` issues on the query's own
        operand, so the values are that call's bit for bit; the per-pair
        finish runs once.
        """
        total = positions.shape[0]
        if not total:
            return np.empty(0, dtype=np.float32)
        order = np.argsort(np.repeat(owners, counts), kind="stable")
        ordered = positions[order]
        gathered = np.empty((total, self.queries64.shape[1]))
        stop = 0
        sizes = np.bincount(owners, weights=counts, minlength=len(union.operands)).astype(np.int64)
        for operand, base, size in zip(union.operands, union.starts, sizes.tolist()):
            start, stop = stop, stop + size
            if size:
                # In range by construction: "clip" spares the buffered copy "raise" makes.
                part = ordered[start:stop] - base
                np.take(operand.vectors64, part, axis=0, out=gathered[start:stop], mode="clip")
        where = np.empty(total, dtype=np.int64)
        where[order] = np.arange(total)
        starts = np.cumsum(counts) - counts
        begins = where[np.minimum(starts, total - 1)]
        products = np.empty((1, total), dtype=np.float64)
        self._products(rows, counts, gathered, begins.tolist(), products[0], starts.tolist())
        vector_norms = None if self.norms64 is None else union.norms64[positions]
        return self.finish_runs(products, rows, counts, vector_norms)

    def repeated(self, times: int) -> "QueryOperand":
        """The batch ``times`` over, end to end: row ``c * q + i`` is row ``i``."""
        copy = QueryOperand.__new__(QueryOperand)
        copy.metric = self.metric
        copy.queries64 = np.tile(self.queries64, (times, 1))
        copy.norms64 = None if self.norms64 is None else np.tile(self.norms64, (times, 1))
        return copy

    def finish_runs(
        self,
        products: np.ndarray,
        rows: Sequence[int],
        counts: Sequence[int],
        vector_norms: np.ndarray | None,
    ) -> np.ndarray:
        """Flat float32 distances from ``(1, n)`` products laid out query by query.

        Query ``rows[i]`` owns the next ``counts[i]`` products, whose stored
        rows have the squared norms ``vector_norms`` (unused for ``ip``).  One
        per-pair finish; ``products`` is consumed as scratch.
        """
        if self.norms64 is None:
            return _finish_tile(products, None, None, self.metric)[0]
        query_norms = np.repeat(self.norms64[rows, 0], counts)
        return _finish_tile(products, query_norms, vector_norms, self.metric)[0]


def pairwise_distances(
    queries: np.ndarray, vectors: np.ndarray | ScanOperand, metric: str
) -> np.ndarray:
    """Compute the full ``(q, n)`` distance matrix between queries and vectors.

    Smaller values always mean "more similar", regardless of metric.  Each
    pair's value is independent of the batch shape (see the module
    docstring), so identical rows receive bitwise-equal float32 distances in
    any segment/shard layout.

    ``vectors`` may be a raw matrix (casts/norms computed transiently, the
    pre-kernel-push behaviour) or a :class:`ScanOperand` carrying the cached
    float64 view and norms — the hot path for sealed segments and built
    indexes.  Results are bitwise identical either way.
    """
    if metric not in METRICS:
        raise ValueError(f"unsupported metric {metric!r}")
    operand = _as_operand(vectors, metric)
    return _scan_tile(_prepare_queries(queries, metric), operand, metric)


#: Default tile shape of the blocked-scan kernel.  Row tiles bound the
#: float64 scratch of a scan to ``query_block * row_block`` doubles
#: regardless of segment size; both defaults were picked by sweeping
#: ``benchmarks/bench_kernels.py`` on the development box.
DEFAULT_QUERY_BLOCK = 64
DEFAULT_ROW_BLOCK = 8192

#: Most rows one fused run (:func:`scan_topk` over several operands) may
#: span.  The run's float32 select buffer is ``query_block`` rows of this
#: width (64 MiB at the defaults), so it stays bounded however many
#: FLAT-served segments a shard holds; a longer run is cut into several, each
#: yielding its own candidate list for the merge.
MAX_RUN_ROWS = 32 * DEFAULT_ROW_BLOCK


def _tile_groups(
    operands: Sequence[ScanOperand], row_block: int, with_norms: bool
) -> list[tuple[list[np.ndarray], list[np.ndarray]]]:
    """Lay the rows of ``operands`` side by side, cut for the blocked scan.

    Every operand is cut into the row tiles a scan of it alone would use
    (``row_block`` rows, transposed views of its float64 cast); consecutive
    tiles are then packed into groups of at most ``row_block`` columns.
    Returns ``(tiles, norms)`` per group, ``norms`` holding each tile's
    squared row norms (empty for ``ip``).  A large
    operand yields one-tile groups, a run of small segments a few groups of
    many tiles.
    """
    groups: list[tuple[list[np.ndarray], list[np.ndarray]]] = []
    width = 0
    for operand in operands:
        vectors64 = operand.vectors64
        norms64 = operand.norms64 if with_norms else None
        for start in range(0, vectors64.shape[0], row_block):
            tile = vectors64[start : start + row_block].T
            if not groups or width + tile.shape[1] > row_block:
                groups.append(([], []))
                width = 0
            tiles, norms = groups[-1]
            tiles.append(tile)
            if with_norms:
                norms.append(norms64[start : start + row_block])
            width += tile.shape[1]
    return groups


def _scan_block(
    queries: np.ndarray,
    groups: list[tuple[list[np.ndarray], list[np.ndarray]]],
    metric: str,
    out: np.ndarray,
) -> None:
    """The blocked-scan kernel, one query block: ``queries`` × every group's rows.

    ``queries`` are prepared float32 rows, ``groups`` come from
    :func:`_tile_groups`, ``out`` is the float32 ``(len(queries), Σrows)``
    destination.  Each tile gets its own GEMM — the shape a scan of its
    operand alone would issue — into consecutive columns of one float64
    scratch tile per group, and the per-pair finish runs once per group
    rather than once per operand: that is what makes a run of small
    segments cost one scan.  Values are those of :func:`pairwise_distances`
    pair by pair (module determinism contract).
    """
    queries64 = queries.astype(np.float64)
    query_norms = None
    if metric != "ip":
        query_norms = np.einsum("ij,ij->i", queries64, queries64)[:, None]
    column = 0
    for tiles, norms in groups:
        width = sum(tile.shape[1] for tile in tiles)
        products = np.empty((queries64.shape[0], width), dtype=np.float64)
        start = 0
        for tile in tiles:
            stop = start + tile.shape[1]
            np.matmul(queries64, tile, out=products[:, start:stop])
            start = stop
        vector_norms = np.concatenate(norms) if norms else None
        _finish_tile(products, query_norms, vector_norms, metric, out[:, column : column + width])
        column += width


def pairwise_distances_blocked(
    queries: np.ndarray,
    vectors: np.ndarray | ScanOperand,
    metric: str,
    *,
    query_block: int = DEFAULT_QUERY_BLOCK,
    row_block: int = DEFAULT_ROW_BLOCK,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Blocked multi-query scan: tile over queries × rows.

    Computes exactly :func:`pairwise_distances` (bit-identical, per the
    module determinism contract — each pair's float32 value is independent of
    the tile it was scored in) while keeping the float64 intermediates to one
    ``(query_block, row_block)`` tile, so large multi-query scans stay in
    cache instead of materializing a ``(q, n)`` float64 scratch matrix.
    This is the blocked-scan kernel over a single operand.

    ``out`` may supply a preallocated float32 ``(q, n)`` destination.
    """
    if metric not in METRICS:
        raise ValueError(f"unsupported metric {metric!r}")
    if query_block < 1 or row_block < 1:
        raise ValueError("block sizes must be positive")
    operand = _as_operand(vectors, metric)
    queries = _prepare_queries(queries, metric)
    shape = (queries.shape[0], operand.shape[0])
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape or out.dtype != np.float32:
        raise ValueError("out must be a float32 (queries, rows) matrix")
    if shape[0] <= query_block and shape[1] <= row_block:
        # Nothing to block: one tile is the plain scan.  The dense masked scan
        # of a small segment lands here, and the tile bookkeeping below would
        # be a measurable share of it.
        return _scan_tile(queries, operand, metric, out)
    groups = _tile_groups([operand], row_block, metric != "ip")
    for start in range(0, shape[0], query_block):
        _scan_block(
            queries[start : start + query_block], groups, metric, out[start : start + query_block]
        )
    return out


def scan_topk(
    queries: np.ndarray, operands: Sequence[ScanOperand], top_k: int, metric: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-k over a run of operands: one blocked scan, one select.

    Returns ``(positions, ordered_distances, settled)``.  ``positions`` index
    the operands' rows laid side by side in operand order; both arrays are
    ``(q, min(top_k, Σrows))`` and follow :func:`top_k_select`'s
    (distance, position) order.  The float32 select buffer is one query
    block deep, so scratch stays bounded for any batch size.

    ``settled[i]`` says query *i*'s selection is a unique *set*: exactly
    ``keep`` rows lie at or below its last distance.  Then any way of
    splitting the rows into operands, selecting per operand and merging
    returns these same rows.  Where it is ``False`` — the boundary distance
    is tied with an unselected row, or is not a number — which tied rows a
    split-and-merge keeps depends on the split, and a caller that must
    reproduce one (a fused ``search_run``, see
    :meth:`repro.vdms.index.base.VectorIndex.search_run`) re-runs that query
    split.
    """
    if metric not in METRICS:
        raise ValueError(f"unsupported metric {metric!r}")
    queries = _prepare_queries(queries, metric)
    groups = _tile_groups(operands, DEFAULT_ROW_BLOCK, metric != "ip")
    total_queries = queries.shape[0]
    total_rows = sum(operand.shape[0] for operand in operands)
    keep = min(int(top_k), total_rows)
    positions = np.empty((total_queries, keep), dtype=np.int64)
    ordered = np.empty((total_queries, keep), dtype=np.float32)
    settled = np.empty(total_queries, dtype=bool)
    buffer = np.empty((min(DEFAULT_QUERY_BLOCK, total_queries), total_rows), dtype=np.float32)
    for start in range(0, total_queries, DEFAULT_QUERY_BLOCK):
        rows = slice(start, min(start + DEFAULT_QUERY_BLOCK, total_queries))
        block = buffer[: rows.stop - start]
        _scan_block(queries[rows], groups, metric, block)
        positions[rows], ordered[rows] = top_k_select(block, keep)
        settled[rows] = (block <= ordered[rows, -1:]).sum(axis=1) == keep
    return positions, ordered, settled


def masked_topk(
    queries: np.ndarray,
    operand: np.ndarray | ScanOperand,
    allow_mask: np.ndarray,
    top_k: int,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked exact scan: top-k among the rows ``allow_mask`` permits.

    Below :data:`MASK_DENSE_SCAN_SELECTIVITY` the allowed rows are gathered
    with ``np.flatnonzero`` + index-select *before* the GEMM; at or above it
    the scan goes dense over the cached operand and disallowed columns are
    masked to ``+inf`` after the fact.  Both modes produce bit-identical
    ``(positions, ordered_distances)`` — per-pair values are shape-independent
    and ``allowed_positions`` ascend, so position tie-breaks coincide.
    """
    operand = _as_operand(operand, metric)
    allow_mask = np.asarray(allow_mask, dtype=bool)
    queries = _prepare_queries(queries, metric)
    allowed_positions = np.flatnonzero(allow_mask)
    if allowed_positions.size == 0:
        empty = np.empty((queries.shape[0], 0))
        return empty.astype(np.int64), empty.astype(np.float32)
    if allowed_positions.size / allow_mask.size < MASK_DENSE_SCAN_SELECTIVITY:
        distances = pairwise_distances(queries, operand.take(allowed_positions), metric)
        local_positions, ordered = top_k_select(distances, top_k)
        return allowed_positions[local_positions], ordered
    distances = pairwise_distances_blocked(queries, operand, metric)
    distances[:, ~allow_mask] = np.inf
    return top_k_select(distances, min(int(top_k), int(allowed_positions.size)))


def top_k_select(distances: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Select the smallest ``top_k`` entries per row of a distance matrix.

    Returns ``(positions, ordered_distances)``, both of shape
    ``(rows, min(top_k, n))``.  Equal distances resolve by ascending
    position — deterministic for degenerate (duplicate-vector) inputs, and
    since stored rows keep insertion order, position ties are id ties for
    auto-assigned ids.  This is the single tie-breaking contract shared by
    every index's per-segment top-k, the brute-force scan, the scatter-gather
    merge (:func:`repro.vdms.sharding.merge_topk`, which additionally
    tie-breaks by external id) and the recall ground truth
    (:func:`repro.datasets.ground_truth.brute_force_neighbors`).
    """
    n = distances.shape[1]
    top_k = min(int(top_k), n)
    if top_k < n:
        part = np.argpartition(distances, top_k - 1, axis=1)[:, :top_k]
        part_distances = np.take_along_axis(distances, part, axis=1)
        # Lexicographic (distance, position) order within the partition.
        order = np.lexsort((part, part_distances), axis=1)
        positions = np.take_along_axis(part, order, axis=1)
        ordered = np.take_along_axis(part_distances, order, axis=1)
        # argpartition keeps an *arbitrary* one of several equal-distance
        # rows straddling the selection boundary.  Everything strictly below
        # the boundary value is provably inside the partition and already in
        # final (distance, position) order; only the slots holding the
        # boundary value itself are ambiguous.  Re-fill just those slots from
        # the row's tied boundary band (``flatnonzero`` yields ascending
        # positions, i.e. the tie-break order) instead of re-sorting all n
        # columns of every ambiguous row.
        boundary = ordered[:, -1:]
        ambiguous = np.flatnonzero((distances <= boundary).sum(axis=1) > top_k)
        for row in ambiguous:
            row_distances = distances[row]
            boundary_value = ordered[row, -1]
            below = int(np.searchsorted(ordered[row], boundary_value, side="left"))
            band = np.flatnonzero(row_distances == boundary_value)[: top_k - below]
            positions[row, below:] = band
            ordered[row, below:] = boundary_value
    else:
        positions = np.argsort(distances, axis=1, kind="stable")
        ordered = np.take_along_axis(distances, positions, axis=1)
    return positions, ordered
