"""Durability orchestration: WAL logging, checkpoints, recovery.

One :class:`DurabilityManager` owns the data directory of one collection:
the live :class:`~repro.vdms.durability.wal.WriteAheadLog` generation and
the :class:`~repro.vdms.durability.store.SegmentStore` holding checkpoint
manifests and persisted segments.  The collection calls ``log_*`` *before*
applying each mutation under its lock (WAL-before-apply) and only
acknowledges after the append returns, so under
``wal_sync_policy="always"`` every acknowledged mutation is durable and
under ``"batch"`` a crash loses at most a suffix of them.

A checkpoint (generation ``g`` → ``g+1``) runs under the collection lock:

1. pending rows are sealed through the normal (logged) flush path, so the
   segment population covers every acknowledged row;
2. every segment is persisted through the store's atomic writes (segments
   already persisted with identical content are skipped);
3. a fresh, empty, durable WAL ``wal-(g+1).log`` is created;
4. the manifest ``MANIFEST-(g+1).json`` is written atomically — this
   rename is the commit point of the checkpoint;
5. the old generation's manifest, WAL and unreferenced segment files are
   garbage-collected.

A crash anywhere in 1–4 leaves the previous generation fully intact (the
old WAL is only removed in step 5, after the new manifest landed), so
recovery always finds either the old state plus its complete WAL or the
new checkpoint.  Maintenance (compaction, re-indexing) is deliberately
*not* WAL-logged: it never changes the live ``(id, vector)`` multiset,
recovery re-runs index builds deterministically, and search results are
layout-invariant, so replaying the logical mutations reproduces the
served state exactly.

Not durable by design: search-time parameter updates
(``set_search_params``) — they tune serving, not state, and a recovered
collection restarts from the build-time parameters of the last
``create_index``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from ..errors import DurabilityError, RecoveryError
from ..segment import Segment, SegmentState
from ..system_config import SystemConfig
from .fs import FileSystem, OsFileSystem
from .store import SegmentStore
from .wal import WALRecord, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..collection import Collection

__all__ = [
    "DurabilityManager",
    "CheckpointReport",
    "RecoveryReport",
    "recover_collection",
]

_ATTR_PREFIX = "attr."


def _json_safe(value: Any) -> Any:
    """Recursively convert numpy scalars so metadata survives JSON."""
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass
class CheckpointReport:
    """What one checkpoint did (charged by the cost model, shown by /stats)."""

    generation: int
    segments_persisted: int = 0
    segments_reused: int = 0
    files_written: int = 0
    wal_records_truncated: int = 0
    files_collected: int = 0


@dataclass
class RecoveryReport:
    """What recovery found and rebuilt."""

    generation: int | None
    segments_loaded: int = 0
    rows_recovered: int = 0
    wal_records_replayed: int = 0
    wal_bytes_truncated: int = 0
    index_rebuilt: bool = False


@dataclass
class DurabilityStats:
    """Running durability counters of one manager."""

    records_appended: int = 0
    rows_logged: int = 0
    fsyncs: int = 0
    checkpoints: int = 0


class DurabilityManager:
    """WAL + segment store of one collection's data directory."""

    def __init__(
        self,
        fs: FileSystem,
        data_dir: str,
        *,
        sync_policy: str = "always",
        generation: int = 0,
    ) -> None:
        self.fs = fs
        self.data_dir = str(data_dir)
        self.sync_policy = sync_policy
        self.store = SegmentStore(fs, self.data_dir)
        self.generation = int(generation)
        self.stats = DurabilityStats()
        self._wal = WriteAheadLog(fs, self.store.wal_path(self.generation), sync_policy=sync_policy)
        #: ``(shard_id, segment_id)`` → (content fingerprint, file names);
        #: used to skip rewriting unchanged segments on consecutive
        #: checkpoints.
        self._persisted: dict[tuple[int, int], tuple[tuple, dict]] = {}
        self._closed = False

    # -- construction ----------------------------------------------------------

    @staticmethod
    def has_state(fs: FileSystem, data_dir: str) -> bool:
        """Whether ``data_dir`` already holds a collection's durable state."""
        if not fs.exists(data_dir):
            return False
        return any(
            name.startswith(("MANIFEST-", "wal-")) for name in fs.listdir(data_dir)
        )

    @classmethod
    def create(
        cls,
        fs: FileSystem,
        data_dir: str,
        *,
        name: str,
        dimension: int,
        metric: str,
        system_config: SystemConfig,
        sync_policy: str = "always",
    ) -> "DurabilityManager":
        """Initialize a fresh data directory (generation 0, create record).

        The create record makes a never-checkpointed directory cold-
        recoverable: the collection's identity and configuration live in
        the WAL until the first manifest takes over.
        """
        if cls.has_state(fs, data_dir):
            raise DurabilityError(
                f"data directory {data_dir!r} already holds durable state; "
                "recover it instead of creating over it"
            )
        fs.makedirs(data_dir)
        manager = cls(fs, data_dir, sync_policy=sync_policy)
        manager._append(
            WALRecord(
                op="create",
                meta={
                    "name": name,
                    "dimension": int(dimension),
                    "metric": metric,
                    "system_config": dataclasses.asdict(system_config),
                },
            )
        )
        return manager

    # -- logging ---------------------------------------------------------------

    def _append(self, record: WALRecord) -> None:
        if self._closed:
            raise DurabilityError("durability manager is closed")
        before = self._wal.synced_records
        self._wal.append(record)
        self.stats.records_appended += 1
        if self._wal.synced_records != before:
            self.stats.fsyncs += 1

    def log_insert(
        self,
        ids: np.ndarray,
        vectors: np.ndarray,
        attributes: Mapping[str, np.ndarray],
    ) -> None:
        """Log an insert (resolved ids, validated columns) before applying it."""
        arrays: dict[str, np.ndarray] = {"ids": ids, "vectors": vectors}
        for name, column in attributes.items():
            arrays[f"{_ATTR_PREFIX}{name}"] = column
        self._append(WALRecord(op="insert", arrays=arrays))
        self.stats.rows_logged += int(ids.shape[0])

    def log_delete(self, ids: np.ndarray) -> None:
        """Log a delete (requested ids) before applying it."""
        self._append(WALRecord(op="delete", arrays={"ids": ids}))
        self.stats.rows_logged += int(np.asarray(ids).shape[0])

    def log_flush(self) -> None:
        """Log a flush (a commit record: always fsynced)."""
        self._append(WALRecord(op="flush"))

    def log_create_index(self, index_type: str, params: Mapping[str, Any]) -> None:
        """Log an index build (a commit record)."""
        self._append(
            WALRecord(
                op="create_index",
                meta={"index_type": index_type, "params": _json_safe(dict(params))},
            )
        )

    def log_drop_index(self) -> None:
        """Log an index drop (a commit record)."""
        self._append(WALRecord(op="drop_index"))

    def sync(self) -> None:
        """Force the WAL tail durable (used by explicit barriers and tests)."""
        self._wal.sync()

    # -- checkpoint ------------------------------------------------------------

    @staticmethod
    def _segment_fingerprint(segment: Segment) -> tuple:
        return (
            segment.physical_rows,
            segment.num_tombstones,
            segment.state.value,
            tuple(sorted(segment.attributes)),
        )

    def _persist_segment(
        self, shard_id: int, segment: Segment, report: CheckpointReport
    ) -> dict:
        """Persist one segment (or reuse its unchanged files); return its files."""
        fingerprint = self._segment_fingerprint(segment)
        key = (shard_id, segment.segment_id)
        cached = self._persisted.get(key)
        if cached is not None and cached[0] == fingerprint:
            report.segments_reused += 1
            return cached[1]
        written = self.store.save_segment(
            shard_id,
            segment.segment_id,
            segment.vectors,
            segment.ids,
            segment.tombstones,
            segment.attributes,
        )
        stem = self.store.segment_stem(shard_id, segment.segment_id)
        files = {
            "vectors": f"{stem}.vectors.npy",
            "ids": f"{stem}.ids.npy",
            "tombstones": (
                f"{stem}.tombstones.npy"
                if f"{stem}.tombstones.npy" in written
                else None
            ),
            "attributes": {
                name: f"{stem}.attr.{name}.npy"
                for name in sorted(segment.attributes)
            },
        }
        self._persisted[key] = (fingerprint, files)
        report.segments_persisted += 1
        report.files_written += len(written)
        return files

    def checkpoint(self, collection: "Collection") -> CheckpointReport:
        """Persist the collection's segments and truncate the WAL.

        Must run under the collection lock with no pending (unflushed)
        rows — ``Collection.checkpoint`` seals them first — so the
        persisted segment population covers every acknowledged mutation.
        """
        if self._closed:
            raise DurabilityError("durability manager is closed")
        for shard in collection.shards:
            if shard.segments.pending_rows:
                raise DurabilityError("checkpoint requires all pending rows sealed")
        next_generation = self.generation + 1
        report = CheckpointReport(generation=next_generation)

        shards_manifest = []
        keep_files: set[str] = set()
        for shard in collection.shards:
            segments_manifest = []
            for segment in shard.segments.segments:
                files = self._persist_segment(shard.shard_id, segment, report)
                keep_files.add(files["vectors"])
                keep_files.add(files["ids"])
                if files["tombstones"]:
                    keep_files.add(files["tombstones"])
                keep_files.update(files["attributes"].values())
                segments_manifest.append(
                    {
                        "segment_id": segment.segment_id,
                        "state": segment.state.value,
                        "physical_rows": segment.physical_rows,
                        "files": files,
                    }
                )
            shards_manifest.append(
                {
                    "shard_id": shard.shard_id,
                    "next_segment_id": shard.segments._next_segment_id,
                    "segments": segments_manifest,
                }
            )

        # A fresh, empty, durable WAL for the new generation — created
        # before the manifest names it, so the manifest never references a
        # file that could be missing after a crash.
        new_wal = WriteAheadLog.create(
            self.fs, self.store.wal_path(next_generation), sync_policy=self.sync_policy
        )
        manifest = {
            "collection": {
                "name": collection.name,
                "dimension": collection.dimension,
                "metric": collection.metric,
                "system_config": dataclasses.asdict(collection.system_config),
            },
            "next_auto_id": collection._next_auto_id,
            "version": collection._version,
            "index": (
                {
                    "index_type": collection._index_type,
                    "params": _json_safe(dict(collection._index_params)),
                }
                if collection._index_type is not None
                else None
            ),
            "shards": shards_manifest,
            "wal": f"wal-{next_generation:06d}.log",
        }
        # The commit point: once this rename lands, recovery uses the new
        # generation; before it, the old manifest + old WAL are intact.
        self.store.write_manifest(next_generation, manifest)

        report.wal_records_truncated = self._wal.appended_records
        old_wal = self._wal
        self._wal = new_wal
        old_wal.close()
        self.generation = next_generation
        removed = self.store.collect_garbage(next_generation, keep_files)
        report.files_collected = len(removed)
        self.stats.checkpoints += 1
        return report

    def close(self) -> None:
        """Close the WAL handle (files stay; the directory remains recoverable)."""
        if not self._closed:
            self._wal.close()
            self._closed = True

    def destroy(self) -> None:
        """Delete every durable file of this collection (drop semantics)."""
        self.close()
        self.destroy_state(self.fs, self.data_dir)

    @staticmethod
    def destroy_state(fs: FileSystem, data_dir: str) -> None:
        """Delete a data directory's durable files without opening them."""
        if fs.exists(data_dir):
            for name in fs.listdir(data_dir):
                fs.remove(fs.join(data_dir, name))


# -- recovery ----------------------------------------------------------------------


def _load_segment(
    store: SegmentStore, entry: dict, *, mmap_vectors: bool
) -> Segment:
    """Rebuild one segment from its persisted arrays (read-only views)."""
    files = entry["files"]
    vectors = store.load_array(files["vectors"], mmap=mmap_vectors)
    ids = store.load_array(files["ids"])
    tombstones = (
        store.load_array(files["tombstones"]) if files.get("tombstones") else None
    )
    attributes = {
        name: store.load_array(file_name)
        for name, file_name in files.get("attributes", {}).items()
    }
    segment = Segment(
        segment_id=int(entry["segment_id"]),
        vectors=vectors,
        ids=ids,
        state=SegmentState(entry["state"]),
        tombstones=tombstones,
        attributes=attributes,
    )
    segment.freeze_arrays()
    if entry.get("physical_rows") is not None and segment.physical_rows != int(
        entry["physical_rows"]
    ):
        raise RecoveryError(
            f"segment {segment.segment_id} holds {segment.physical_rows} rows "
            f"but the manifest recorded {entry['physical_rows']}"
        )
    return segment


def recover_collection(
    data_dir: str,
    *,
    filesystem: FileSystem | None = None,
    auto_maintenance: bool = True,
    mmap_vectors: bool = False,
) -> tuple["Collection", RecoveryReport]:
    """Recover a collection from its data directory.

    Sequence: pick the newest valid checkpoint manifest (or fall back to
    the generation-0 WAL's create record for a never-checkpointed
    directory), load the persisted segments read-only (vectors through
    ``np.memmap`` when ``mmap_vectors``), then replay the paired WAL tail
    through the normal mutation paths — stopping at, and truncating, the
    first torn or corrupt frame so a damaged tail is never served — and
    finally rebuild the last logged index.  The recovered collection
    continues logging to the same directory.
    """
    from ..collection import Collection  # local import: collection imports us

    fs = filesystem or OsFileSystem()
    if not fs.exists(data_dir) or not fs.isdir(data_dir):
        raise RecoveryError(f"data directory {data_dir!r} does not exist")
    store = SegmentStore(fs, data_dir)
    located = store.latest_manifest()

    if located is None:
        generation = 0
        wal_path = store.wal_path(0)
        if not fs.exists(wal_path):
            raise RecoveryError(
                f"data directory {data_dir!r} holds no manifest and no WAL; "
                "nothing to recover"
            )
        records, valid_bytes = WriteAheadLog.read(fs, wal_path)
        if not records or records[0].op != "create":
            raise RecoveryError(
                f"WAL {wal_path!r} does not begin with a valid create record; "
                "the directory was lost before the collection became durable"
            )
        create = records[0]
        manifest: dict | None = None
        tail = records[1:]
        identity = create.meta
    else:
        generation, manifest = located
        wal_path = fs.join(data_dir, manifest["wal"])
        if fs.exists(wal_path):
            tail, valid_bytes = WriteAheadLog.read(fs, wal_path)
        else:
            tail, valid_bytes = [], -1
        identity = manifest["collection"]

    report = RecoveryReport(generation=None if manifest is None else generation)

    system_config = SystemConfig.from_mapping(identity["system_config"])
    # Replay runs with automatic maintenance off — maintenance is content-
    # invariant, so re-triggering it mid-replay only burns work; the
    # requested mode is restored once the state is rebuilt.
    collection = Collection(
        identity["name"],
        int(identity["dimension"]),
        identity["metric"],
        system_config,
        auto_maintenance=False,
    )

    index_spec: dict | None = None
    if manifest is not None:
        collection._next_auto_id = int(manifest["next_auto_id"])
        collection._version = int(manifest["version"])
        index_spec = manifest.get("index")
        shards_by_id = {shard.shard_id: shard for shard in collection.shards}
        if set(shards_by_id) != {entry["shard_id"] for entry in manifest["shards"]}:
            raise RecoveryError("manifest shard layout does not match the configuration")
        for entry in manifest["shards"]:
            shard = shards_by_id[entry["shard_id"]]
            segments = [
                _load_segment(store, segment_entry, mmap_vectors=mmap_vectors)
                for segment_entry in entry["segments"]
            ]
            shard.segments._segments = segments
            shard.segments._next_segment_id = int(entry["next_segment_id"])
            report.segments_loaded += len(segments)

    # Replay the WAL tail through the normal mutation paths (no durability
    # attached yet, so nothing is re-logged).  Index builds are deferred to
    # the end: only the last create_index/drop_index pair matters, and
    # rebuilding once over the final state is both cheaper and what a
    # content-addressed build produces anyway.
    for record in tail:
        report.wal_records_replayed += 1
        if record.op == "insert":
            attributes = {
                name[len(_ATTR_PREFIX):]: column
                for name, column in record.arrays.items()
                if name.startswith(_ATTR_PREFIX)
            }
            collection._insert_rows(
                record.arrays["vectors"], record.arrays["ids"], attributes or None
            )
        elif record.op == "delete":
            collection.delete(record.arrays["ids"])
        elif record.op == "flush":
            collection.flush()
        elif record.op == "create_index":
            index_spec = record.meta
        elif record.op == "drop_index":
            index_spec = None
        elif record.op == "create":
            raise RecoveryError("unexpected create record in the WAL tail")
        else:
            raise RecoveryError(f"unknown WAL record op {record.op!r}")

    if index_spec is not None:
        collection.create_index(index_spec["index_type"], index_spec["params"])
        report.index_rebuilt = True
    report.rows_recovered = collection.num_rows

    # Drop a torn/corrupt tail so it is never served and never re-read: the
    # next append lands right after the last valid frame.
    if valid_bytes >= 0 and fs.size(wal_path) > valid_bytes:
        report.wal_bytes_truncated = fs.size(wal_path) - valid_bytes
        fs.truncate(wal_path, valid_bytes)

    manager = DurabilityManager(
        fs,
        data_dir,
        sync_policy=system_config.wal_sync_policy,
        generation=generation,
    )
    collection.auto_maintenance = bool(auto_maintenance)
    collection._attach_durability(manager)
    return collection, report
