"""Background maintenance: compaction + incremental re-indexing.

Deletes invalidate the per-segment indexes of the sealed segments they touch
(:meth:`repro.vdms.collection.Collection.delete`), and until this subsystem
existed those segments were brute-forced *forever* unless a caller manually
re-ran a full ``create_index`` — a silent, compounding QPS cliff under churny
workloads.  Maintenance heals the collection the way Milvus's compaction/GC
does, in two per-segment (never whole-collection) steps:

1. **Compaction** (:meth:`repro.vdms.segment.SegmentManager.compact`):
   sealed segments whose tombstone ratio reaches
   ``SystemConfig.compaction_trigger_ratio`` — plus undersized stragglers —
   are rewritten: tombstoned rows are physically dropped and the live rows
   merged into right-sized segments per ``segment_max_size``.
2. **Incremental re-indexing**: every sealed segment left without an index
   (freshly compacted segments, invalidated segments below the trigger
   ratio, segments sealed by a flush after the last build) gets its
   per-segment index rebuilt over its live rows.  A full-collection rebuild
   never happens.

Both steps run under the collection's mutation/snapshot lock, so in-flight
searches keep serving the coherent snapshot they captured.

Scheduling is governed by ``SystemConfig.maintenance_mode``:

* ``"off"`` — nothing runs automatically (the seed behaviour); callers may
  still invoke :meth:`repro.vdms.collection.Collection.run_maintenance`.
* ``"inline"`` — maintenance runs synchronously at the end of every
  ``delete`` and ``flush``.
* ``"background"`` — a :class:`MaintenanceWorker` daemon thread wakes on
  mutation notifications (or a poll interval) and runs maintenance
  concurrently with searches.  The worker holds only a weak reference to
  its collection, so abandoned collections are garbage-collected normally.

The workload replayer models both non-``off`` modes deterministically (one
synchronous pass between the mutation phase and the query phase) and lets
the cost model charge them differently — inline maintenance blocks the
foreground path while background maintenance overlaps serving at a duty
cycle (see :meth:`repro.vdms.cost_model.CostModel.maintenance_seconds`).
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field

from repro.vdms.index.base import BuildStats

__all__ = ["MaintenanceReport", "MaintenanceWorker"]

#: Seconds the worker waits for a notification before checking whether its
#: collection is still alive.
_POLL_INTERVAL = 0.05

#: Seconds :meth:`MaintenanceWorker.stop` waits for the thread to exit.
_STOP_TIMEOUT = 5.0


@dataclass
class MaintenanceReport:
    """What one maintenance pass over a collection did.

    Attributes
    ----------
    segments_compacted:
        Sealed segments rewritten (dropped and replaced) by compaction.
    segments_created:
        Right-sized sealed segments created from the survivors.
    rows_dropped:
        Tombstoned rows physically reclaimed.
    rows_rewritten:
        Live rows copied into new segments.
    segments_reindexed:
        Per-segment indexes rebuilt incrementally (compacted segments plus
        any other sealed segment that lacked an index).
    build_stats:
        Work accounting of every incremental index build, for the cost
        model's maintenance charge.
    checkpoint:
        The :class:`~repro.vdms.durability.CheckpointReport` of the
        checkpoint this pass ran (``durability_mode="wal+checkpoint"``
        on a durable collection), or ``None`` when none ran.
    """

    segments_compacted: int = 0
    segments_created: int = 0
    rows_dropped: int = 0
    rows_rewritten: int = 0
    segments_reindexed: int = 0
    build_stats: list[BuildStats] = field(default_factory=list)
    checkpoint: object | None = None

    @property
    def did_work(self) -> bool:
        """Whether the pass changed anything at all."""
        return bool(
            self.segments_compacted or self.segments_reindexed or self.checkpoint
        )

    def merge(self, other: "MaintenanceReport") -> "MaintenanceReport":
        """Accumulate another report (e.g. another shard's) into this one."""
        self.segments_compacted += other.segments_compacted
        self.segments_created += other.segments_created
        self.rows_dropped += other.rows_dropped
        self.rows_rewritten += other.rows_rewritten
        self.segments_reindexed += other.segments_reindexed
        self.build_stats.extend(other.build_stats)
        self.checkpoint = other.checkpoint or self.checkpoint
        return self


class MaintenanceWorker:
    """Daemon thread driving ``run_maintenance`` for one collection.

    The worker sleeps until :meth:`notify` is called (a mutation landed) or
    the poll interval elapses, then runs one maintenance pass.  It keeps
    only a weak reference to the collection: when the collection is
    garbage-collected the thread exits on its next wake-up, so collections
    need no explicit close — though :meth:`stop` is available for
    deterministic shutdown in tests and long-lived servers.
    """

    def __init__(self, collection) -> None:
        self._collection = weakref.ref(collection)
        self._wakeup = threading.Event()
        self._stopped = threading.Event()
        self._passes = 0
        self._thread = threading.Thread(
            target=self._loop, name="repro-maintenance", daemon=True
        )
        self._thread.start()

    @property
    def is_alive(self) -> bool:
        """Whether the worker thread is still running."""
        return self._thread.is_alive()

    def notify(self) -> None:
        """Signal that a mutation landed and maintenance may have work."""
        self._wakeup.set()

    def stop(self) -> None:
        """Stop the worker and join its thread."""
        self._stopped.set()
        self._wakeup.set()
        self._thread.join(timeout=_STOP_TIMEOUT)

    def join_idle(self, timeout: float = 5.0) -> None:
        """Block until a maintenance pass started after this call completes.

        Useful in tests: after the last mutation, waiting here guarantees
        the segment population reflects one full pass over that mutation.
        """
        target = self._passes + 2  # a pass begun strictly after now has run
        deadline = time.monotonic() + timeout
        while self._passes < target and time.monotonic() < deadline and self.is_alive:
            self.notify()
            time.sleep(0.005)

    def _loop(self) -> None:
        while not self._stopped.is_set():
            # Runs a pass only when a mutation actually notified: an idle
            # collection must not have its lock taken every poll interval
            # forever.  The poll timeout exists solely so a garbage-collected
            # collection lets the thread exit promptly.
            notified = self._wakeup.wait(timeout=_POLL_INTERVAL)
            if self._stopped.is_set():
                return
            collection = self._collection()
            if collection is None:
                return
            if not notified:
                del collection
                continue
            self._wakeup.clear()
            try:
                collection.run_maintenance()
            finally:
                self._passes += 1
            del collection
