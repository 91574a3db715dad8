"""Segment-based storage layer.

The simulated VDMS stores vectors in segments, mirroring the coordinator /
data-node behaviour of the real system:

* inserts land in a *growing* segment (backed by the insert buffer);
* when a growing segment reaches the seal threshold derived from
  ``segment_max_size`` and ``segment_seal_proportion`` (or when the insert
  buffer fills up), it is *sealed*;
* indexes are built per sealed segment; the growing segment is searched by
  brute force, so its size affects both latency and consistency;
* deletes on sealed segments set *tombstones* (delete bitmaps): the rows
  stay in storage, the segment becomes *invalidated* (its index no longer
  matches the live rows) and searches scan the live view by brute force;
* :meth:`SegmentManager.compact` physically drops tombstoned rows and
  merges undersized survivors into right-sized sealed segments — the
  storage-layer half of the background maintenance subsystem
  (:mod:`repro.vdms.maintenance`).

The segment lifecycle state machine (documented in docs/architecture.md)::

    growing ──flush──▶ sealed ──delete──▶ invalidated ──compact──▶ dropped,
                         ▲                     │                   replaced by
                         └──(re-)index────────┘                   new sealed
                                                                  segments
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.vdms.index.flat import FlatIndex
from repro.vdms.request import ATTRIBUTE_MISSING
from repro.vdms.system_config import SystemConfig

__all__ = ["SegmentState", "Segment", "SegmentManager", "CompactionResult"]


def _as_attribute_columns(
    attributes: "dict[str, np.ndarray] | None", rows: int
) -> dict[str, np.ndarray]:
    """Validate and normalize attribute columns for ``rows`` rows."""
    if not attributes:
        return {}
    columns: dict[str, np.ndarray] = {}
    for name, column in attributes.items():
        column = np.asarray(column, dtype=np.int64)
        if column.ndim != 1 or column.shape[0] != rows:
            raise ValueError(
                f"attribute column {name!r} must be 1-D with one value per row "
                f"(expected {rows}, got shape {column.shape})"
            )
        columns[str(name)] = column
    return columns


def _concat_attribute_columns(
    parts: "list[dict[str, np.ndarray]]", counts: "list[int]"
) -> dict[str, np.ndarray]:
    """Concatenate per-batch attribute columns, NULL-filling missing ones.

    ``parts[i]`` holds the columns of a batch of ``counts[i]`` rows.  The
    result carries the union of all column names; a batch that lacks a
    column contributes the :data:`~repro.vdms.request.ATTRIBUTE_MISSING`
    sentinel for its rows — which every filter predicate rejects, the same
    NULL semantics as a segment without the column — so columns always stay
    aligned with the physical row order without inventing matchable values.
    """
    names: set[str] = set()
    for part in parts:
        names.update(part)
    if not names:
        return {}
    merged: dict[str, np.ndarray] = {}
    for name in sorted(names):
        blocks = [
            part[name]
            if name in part
            else np.full(count, ATTRIBUTE_MISSING, dtype=np.int64)
            for part, count in zip(parts, counts)
        ]
        merged[name] = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    return merged


def _slice_attribute_columns(
    attributes: "dict[str, np.ndarray]", selector
) -> dict[str, np.ndarray]:
    """Apply a row selector (slice or mask) to every attribute column."""
    return {name: np.ascontiguousarray(column[selector]) for name, column in attributes.items()}


class SegmentState(str, Enum):
    """Lifecycle state of a segment."""

    GROWING = "growing"
    SEALED = "sealed"
    #: A sealed segment whose last-built index no longer matches its live
    #: rows (deletes landed after the build).  Served by brute force over
    #: the live view until maintenance compacts or re-indexes it.
    INVALIDATED = "invalidated"


@dataclass
class Segment:
    """A contiguous slice of the collection's rows.

    Attributes
    ----------
    segment_id:
        Monotonically increasing id within the collection.
    vectors:
        Physical row data, shape ``(rows, dimension)`` — includes tombstoned
        rows until the segment is compacted.
    ids:
        External row ids, shape ``(rows,)``, aligned with ``vectors``.
    state:
        Growing (still accepting rows, unindexed), sealed (immutable,
        indexable) or invalidated (sealed with tombstones, index dropped).
    tombstones:
        Boolean delete bitmap over the physical rows (``True`` = deleted), or
        ``None`` when no row has been deleted.  The bitmap is replaced, never
        mutated in place, so search snapshots that captured the previous live
        view stay coherent.
    attributes:
        Scalar attribute columns (int-valued payload, categoricals stored as
        integer codes), each aligned with the physical rows exactly like
        ``ids``.  Tombstones apply to them through the same live view, and
        compaction carries them into the rewritten segments.
    """

    segment_id: int
    vectors: np.ndarray
    ids: np.ndarray
    state: SegmentState = SegmentState.GROWING
    tombstones: np.ndarray | None = None
    attributes: dict[str, np.ndarray] = field(default_factory=dict)
    #: Cached ``(vectors, ids, attributes)`` of the live rows; rebuilt
    #: whenever the tombstone bitmap is replaced so searches never filter
    #: per snapshot.
    _live_cache: tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]] | None = field(
        default=None, repr=False, compare=False
    )
    #: Exact index over the live rows (see :meth:`exact_index`), tagged with
    #: the metric and the live-vector array it serves so a rewrite of that
    #: array (which replaces the live view) invalidates it.
    _exact_cache: tuple[str, np.ndarray, FlatIndex] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def physical_rows(self) -> int:
        """Rows physically stored, including tombstoned ones."""
        return int(self.vectors.shape[0])

    @property
    def num_tombstones(self) -> int:
        """Physically stored rows that have been deleted."""
        return 0 if self.tombstones is None else int(self.tombstones.sum())

    @property
    def num_rows(self) -> int:
        """Number of *live* rows served by the segment."""
        return self.physical_rows - self.num_tombstones

    @property
    def tombstone_ratio(self) -> float:
        """Fraction of physical rows that are tombstoned."""
        physical = self.physical_rows
        return self.num_tombstones / physical if physical else 0.0

    def live_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(vectors, ids)`` pair of the live rows.

        Returns the physical arrays themselves when no tombstones exist, and
        a cached filtered copy otherwise; either way the arrays are never
        mutated afterwards, so snapshot readers can hold them lock-free.
        """
        vectors, ids, _ = self.live_view()
        return vectors, ids

    def live_view(self) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """The ``(vectors, ids, attributes)`` triple of the live rows."""
        if self.tombstones is None:
            return self.vectors, self.ids, self.attributes
        if self._live_cache is None:
            keep = ~self.tombstones
            vectors = np.ascontiguousarray(self.vectors[keep])
            ids = np.ascontiguousarray(self.ids[keep])
            attributes = _slice_attribute_columns(self.attributes, keep)
            # The filtered copies are served zero-copy by snapshots exactly
            # like the physical arrays of tombstone-free segments; freeze
            # them under the same read-only contract.
            vectors.flags.writeable = False
            ids.flags.writeable = False
            for column in attributes.values():
                column.flags.writeable = False
            self._live_cache = (vectors, ids, attributes)
        return self._live_cache

    @property
    def live_ids(self) -> np.ndarray:
        """External ids of the live rows."""
        return self.live_view()[1]

    def exact_index(self, metric: str) -> FlatIndex:
        """Cached :class:`~repro.vdms.index.flat.FlatIndex` over the live rows.

        What serves the segment while it has no built index (growing,
        delete-invalidated, freshly sealed): the search path calls it exactly
        like a built one.  It is reused across searches, so steady-state
        scans skip the float64 cast and norm reduction its scan operand
        caches.  The cache is keyed on the identity of the live-vector
        array: tombstone applications and growing-segment rewrites *replace*
        that array (never mutate it), so a stale index can never be served.
        The heavy cast/norm members materialize on first scan, outside the
        collection lock; concurrent first scans race benignly (idempotent).
        """
        vectors, ids, _ = self.live_view()
        cached = self._exact_cache
        if cached is None or cached[0] != metric or cached[1] is not vectors:
            cached = (metric, vectors, FlatIndex.over(vectors, ids, metric))
            self._exact_cache = cached
        return cached[2]

    def freeze_arrays(self) -> None:
        """Mark the physical arrays read-only (sealed segments only).

        Sealed-segment arrays are replaced, never mutated, so snapshots hand
        out zero-copy views; flipping ``writeable`` off turns any future
        violation of that contract into a hard error instead of silent
        snapshot corruption.  Setting the flag to ``False`` is always
        permitted, including on read-only mmap-backed recovery arrays.
        """
        if self.state is SegmentState.GROWING:
            return
        self.vectors.flags.writeable = False
        self.ids.flags.writeable = False
        for column in self.attributes.values():
            column.flags.writeable = False

    def apply_tombstones(self, hits: np.ndarray) -> int:
        """Tombstone the physical rows flagged by ``hits`` (a boolean mask).

        Already-tombstoned rows are ignored, so delete→insert→delete round
        trips never double-count: the return value is the number of rows
        *newly* deleted.  The bitmap and the live cache are replaced (not
        mutated) to preserve snapshot coherence.
        """
        if self.tombstones is not None:
            hits = hits & ~self.tombstones
        newly = int(hits.sum())
        if newly == 0:
            return 0
        combined = hits if self.tombstones is None else (self.tombstones | hits)
        self.tombstones = combined
        self._live_cache = None
        self._exact_cache = None
        self.live_arrays()  # rebuild the cache eagerly, under the caller's lock
        return newly

    def raw_bytes(self) -> int:
        """Bytes of raw vector data physically held (tombstones included)."""
        return int(self.vectors.nbytes + self.ids.nbytes)


@dataclass(frozen=True)
class CompactionResult:
    """What one :meth:`SegmentManager.compact` pass did.

    Attributes
    ----------
    dropped_segment_ids:
        Segments removed by the pass (their indexes must be dropped too).
    new_segments:
        Right-sized sealed segments created from the surviving live rows.
    rows_dropped:
        Tombstoned rows physically reclaimed.
    rows_rewritten:
        Live rows copied into the new segments.
    """

    dropped_segment_ids: tuple[int, ...] = ()
    new_segments: tuple[Segment, ...] = ()
    rows_dropped: int = 0
    rows_rewritten: int = 0

    @property
    def did_work(self) -> bool:
        """Whether the pass changed the segment population at all."""
        return bool(self.dropped_segment_ids)


@dataclass
class SegmentManager:
    """Owns the segments of one collection and applies the sealing policy."""

    dimension: int
    system_config: SystemConfig
    _segments: list[Segment] = field(default_factory=list)
    _next_segment_id: int = 0
    _pending_vectors: list[np.ndarray] = field(default_factory=list)
    _pending_ids: list[np.ndarray] = field(default_factory=list)
    _pending_attributes: list[dict[str, np.ndarray]] = field(default_factory=list)

    # -- ingestion -------------------------------------------------------------

    def insert(
        self,
        vectors: np.ndarray,
        ids: np.ndarray,
        attributes: dict[str, np.ndarray] | None = None,
    ) -> int:
        """Buffer rows for insertion; returns the number of rows accepted.

        ``attributes`` carries optional scalar columns (one value per row);
        they travel with the rows through sealing, deletes and compaction.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        ids = np.asarray(ids, dtype=np.int64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dimension:
            raise ValueError(f"expected vectors of dimension {self.dimension}")
        if ids.shape[0] != vectors.shape[0]:
            raise ValueError("ids must match the number of vectors")
        self._pending_vectors.append(vectors)
        self._pending_ids.append(ids)
        self._pending_attributes.append(_as_attribute_columns(attributes, vectors.shape[0]))
        return int(vectors.shape[0])

    def flush(self) -> list[Segment]:
        """Apply the sealing policy to all buffered rows.

        Rows are packed into sealed segments of ``sealed_segment_rows`` rows
        each; the final partial segment stays growing (and is capped by the
        insert buffer).  Returns the list of segments created by this flush.
        Existing sealed segments are untouched (and keep their indexes).
        """
        if not self._pending_vectors:
            return []
        vectors = np.concatenate(self._pending_vectors, axis=0)
        ids = np.concatenate(self._pending_ids, axis=0)
        attributes = _concat_attribute_columns(
            self._pending_attributes, [v.shape[0] for v in self._pending_vectors]
        )
        self._pending_vectors.clear()
        self._pending_ids.clear()
        self._pending_attributes.clear()

        # Merge any existing growing segment back into the stream so the
        # sealing policy is applied to the complete tail of the data.
        existing_growing = [s for s in self._segments if s.state is SegmentState.GROWING]
        if existing_growing:
            parts = existing_growing
            vectors = np.concatenate([s.vectors for s in parts] + [vectors], axis=0)
            ids = np.concatenate([s.ids for s in parts] + [ids], axis=0)
            attributes = _concat_attribute_columns(
                [s.attributes for s in parts] + [attributes],
                [s.physical_rows for s in parts] + [int(vectors.shape[0]) - sum(s.physical_rows for s in parts)],
            )
            self._segments = [s for s in self._segments if s.state is not SegmentState.GROWING]

        capacity = self.system_config.sealed_segment_rows(self.dimension)
        created: list[Segment] = []
        offset = 0
        total = vectors.shape[0]

        def segment_slice(start: int, stop: int, state: SegmentState) -> Segment:
            return self._new_segment(
                vectors[start:stop],
                ids[start:stop],
                state,
                attributes=_slice_attribute_columns(attributes, slice(start, stop)),
            )

        while total - offset >= capacity:
            created.append(segment_slice(offset, offset + capacity, SegmentState.SEALED))
            offset += capacity
        remainder = total - offset
        if remainder > 0:
            buffer_rows = self.system_config.growing_buffer_rows(self.dimension)
            if remainder > buffer_rows:
                # The insert buffer cannot hold the whole remainder: seal the
                # overflow early even though it is below the nominal threshold.
                created.append(segment_slice(offset, total - buffer_rows, SegmentState.SEALED))
                offset = total - buffer_rows
            created.append(segment_slice(offset, total, SegmentState.GROWING))
        self._segments.extend(created)
        return created

    def delete(self, ids: np.ndarray) -> tuple[int, list[int]]:
        """Delete rows by external id from buffers and segments.

        Returns ``(rows_deleted, touched_sealed_segment_ids)``.

        Semantics (pinned down for duplicate and re-inserted external ids):

        * every *live* copy of a requested id is deleted, wherever it lives —
          unflushed buffers, growing segments and sealed segments alike — so
          a delete→insert→delete round trip removes the re-inserted copy;
        * rows already tombstoned by an earlier delete are never counted
          again (no double-counting) and never resurrected;
        * the return value is exactly the number of live rows removed, so
          ``Collection.num_rows`` stays in lockstep with the oracle scan.

        Buffered and growing rows are removed physically (they are cheap,
        unindexed array rewrites); sealed segments get tombstones instead and
        transition to :attr:`SegmentState.INVALIDATED` — the caller (the
        collection) drops their indexes and the maintenance subsystem
        reclaims the tombstoned rows later.  Segments left without live rows
        are dropped entirely.
        """
        doomed = np.unique(np.asarray(ids, dtype=np.int64))
        if doomed.size == 0:
            return 0, []
        deleted = 0

        # Unflushed buffers first.
        for position in range(len(self._pending_vectors)):
            keep = ~np.isin(self._pending_ids[position], doomed)
            removed = int((~keep).sum())
            if removed:
                deleted += removed
                self._pending_vectors[position] = self._pending_vectors[position][keep]
                self._pending_ids[position] = self._pending_ids[position][keep]
                self._pending_attributes[position] = _slice_attribute_columns(
                    self._pending_attributes[position], keep
                )
        occupied = [v.shape[0] > 0 for v in self._pending_vectors]
        self._pending_vectors = [v for v, keep in zip(self._pending_vectors, occupied) if keep]
        self._pending_ids = [i for i, keep in zip(self._pending_ids, occupied) if keep]
        self._pending_attributes = [
            a for a, keep in zip(self._pending_attributes, occupied) if keep
        ]

        touched_sealed: list[int] = []
        survivors: list[Segment] = []
        for segment in self._segments:
            hits = np.isin(segment.ids, doomed)
            if segment.state is SegmentState.GROWING:
                removed = int(hits.sum())
                if removed:
                    deleted += removed
                    keep = ~hits
                    segment.vectors = np.ascontiguousarray(segment.vectors[keep])
                    segment.ids = np.ascontiguousarray(segment.ids[keep])
                    segment.attributes = _slice_attribute_columns(segment.attributes, keep)
            else:
                removed = segment.apply_tombstones(hits)
                if removed:
                    deleted += removed
                    segment.state = SegmentState.INVALIDATED
                    touched_sealed.append(segment.segment_id)
            if segment.num_rows:
                survivors.append(segment)
        self._segments = survivors
        return deleted, touched_sealed

    # -- compaction -------------------------------------------------------------

    def compact(self) -> CompactionResult:
        """Compact tombstoned and undersized sealed segments.

        Candidate selection:

        * every non-growing segment whose tombstone ratio reaches the system
          configuration's ``compaction_trigger_ratio`` is rewritten — its
          tombstoned rows are physically dropped;
        * undersized sealed segments (fewer than half of the sealed-segment
          row capacity in live rows) join the pass when a tombstoned
          candidate is being rewritten anyway, or when merging them actually
          reduces the segment count — a lone undersized tail segment is left
          alone, so repeated maintenance passes converge instead of
          rewriting it forever.

        The live rows of all candidates are concatenated in segment-id order
        and repartitioned into sealed segments of that capacity (the final
        remainder stays a smaller sealed segment).  The live
        ``(id, vector)`` multiset is preserved exactly; growing segments and
        unflushed buffers are never touched.
        """
        trigger_ratio = self.system_config.compaction_trigger_ratio
        target_rows = self.system_config.sealed_segment_rows(self.dimension)

        sealed = [s for s in self._segments if s.state is not SegmentState.GROWING]
        tombstoned = [
            s for s in sealed if s.num_tombstones and s.tombstone_ratio >= trigger_ratio
        ]
        tombstoned_ids = {s.segment_id for s in tombstoned}
        undersized = [
            s
            for s in sealed
            if s.segment_id not in tombstoned_ids and s.num_rows < max(1, target_rows // 2)
        ]
        candidates = tombstoned + undersized
        if not tombstoned:
            total_live = sum(s.num_rows for s in undersized)
            merged_count = -(-total_live // target_rows) if total_live else 0
            if len(undersized) < 2 or merged_count >= len(undersized):
                return CompactionResult()
        if not candidates:
            return CompactionResult()

        candidates.sort(key=lambda s: s.segment_id)
        live_views = [s.live_view() for s in candidates]
        vectors = np.concatenate([view[0] for view in live_views], axis=0)
        ids = np.concatenate([view[1] for view in live_views], axis=0)
        attributes = _concat_attribute_columns(
            [view[2] for view in live_views], [view[0].shape[0] for view in live_views]
        )
        rows_dropped = sum(s.num_tombstones for s in candidates)
        rows_rewritten = int(vectors.shape[0])

        new_segments: list[Segment] = []
        offset = 0
        total = vectors.shape[0]
        while offset < total:
            chunk = min(target_rows, total - offset)
            new_segments.append(
                self._new_segment(
                    vectors[offset : offset + chunk],
                    ids[offset : offset + chunk],
                    SegmentState.SEALED,
                    attributes=_slice_attribute_columns(
                        attributes, slice(offset, offset + chunk)
                    ),
                )
            )
            offset += chunk

        dropped = tuple(s.segment_id for s in candidates)
        dropped_set = set(dropped)
        self._segments = [
            s for s in self._segments if s.segment_id not in dropped_set
        ] + new_segments
        return CompactionResult(
            dropped_segment_ids=dropped,
            new_segments=tuple(new_segments),
            rows_dropped=int(rows_dropped),
            rows_rewritten=rows_rewritten,
        )

    def _new_segment(
        self,
        vectors: np.ndarray,
        ids: np.ndarray,
        state: SegmentState,
        attributes: dict[str, np.ndarray] | None = None,
    ) -> Segment:
        segment = Segment(
            segment_id=self._next_segment_id,
            vectors=np.ascontiguousarray(vectors),
            ids=np.ascontiguousarray(ids),
            state=state,
            attributes=attributes or {},
        )
        segment.freeze_arrays()
        self._next_segment_id += 1
        return segment

    # -- inspection --------------------------------------------------------------

    @property
    def segments(self) -> list[Segment]:
        """All segments, sealed and growing."""
        return list(self._segments)

    @property
    def sealed_segments(self) -> list[Segment]:
        """Sealed (indexable) segments, invalidated ones included."""
        return [s for s in self._segments if s.state is not SegmentState.GROWING]

    @property
    def growing_segments(self) -> list[Segment]:
        """Growing (unindexed) segments."""
        return [s for s in self._segments if s.state is SegmentState.GROWING]

    @property
    def num_rows(self) -> int:
        """Total live rows across all segments (excluding unflushed buffers)."""
        return sum(s.num_rows for s in self._segments)

    @property
    def tombstone_rows(self) -> int:
        """Deleted rows still physically stored, awaiting compaction."""
        return sum(s.num_tombstones for s in self._segments)

    @property
    def pending_rows(self) -> int:
        """Rows inserted but not yet flushed."""
        return int(sum(v.shape[0] for v in self._pending_vectors))

    def raw_bytes(self) -> int:
        """Raw storage bytes across all segments (tombstoned rows included)."""
        return sum(s.raw_bytes() for s in self._segments)
