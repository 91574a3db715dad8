"""Unit suite for the durability tier, bottom-up by layer.

* :class:`CrashPointFS` — the fault-injection filesystem itself: fsync
  divides durable from buffered bytes, crash-before boundary semantics,
  deterministic torn tails, durable-content corruption hooks;
* :class:`OsFileSystem` — the real-disk surface on ``tmp_path``;
* :class:`WriteAheadLog` — frame round trips, magic, CRC, the reader's
  stop-at-first-damage contract, fsync-per-policy accounting;
* :class:`SegmentStore` — atomic writes, per-shard naming, manifest
  versioning and fallback, garbage collection;
* :class:`DurabilityManager` + recovery — create/has_state/destroy,
  checkpoint reports and fingerprint reuse, recovery reports for both
  checkpointed and cold (WAL-only) directories.

The crash-point *oracle* suite — every boundary of randomized schedules
against an acknowledged-prefix NumPy oracle — lives in
``tests/vdms/test_crash_recovery.py``; this file pins the layer contracts
those end-to-end runs build on.

``TestReadOnlySegmentServing`` additionally pins the copy-on-write
discipline of the hot path: recovered segments are served from read-only
(possibly ``np.memmap``-backed) arrays, so no mutation, maintenance or
search path may ever write a sealed array in place.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.vdms import Collection, SystemConfig
from repro.vdms.durability import (
    MANIFEST_FORMAT_VERSION,
    TAIL_POLICIES,
    CrashPointFS,
    DurabilityManager,
    OsFileSystem,
    SegmentStore,
    SimulatedCrash,
    WAL_MAGIC,
    WALRecord,
    WriteAheadLog,
)
from repro.vdms.errors import DurabilityError, RecoveryError
from repro.vdms.segment import SegmentState

DIMENSION = 16

#: Small segments so even tiny corpora seal several segments per shard.
SEGMENT_CONFIG = {"segment_max_size": 32, "segment_seal_proportion": 0.25, "insert_buf_size": 32}


def durable_config(**overrides) -> SystemConfig:
    base = dict(
        durability_mode="wal+checkpoint",
        wal_sync_policy="always",
        **SEGMENT_CONFIG,
    )
    base.update(overrides)
    return SystemConfig(**base)


def make_rows(count: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, DIMENSION)).astype(np.float32)


def durable_collection(fs: CrashPointFS, data_dir: str = "/data/c", **overrides) -> Collection:
    return Collection(
        "durable",
        DIMENSION,
        system_config=durable_config(**overrides),
        data_dir=data_dir,
        filesystem=fs,
        auto_maintenance=False,
    )


# -- CrashPointFS -------------------------------------------------------------------


class TestCrashPointFS:
    def test_fsync_divides_durable_from_buffered(self):
        fs = CrashPointFS()
        handle = fs.open_write("/a")
        handle.write(b"durable")  # boundary 1
        handle.fsync()  # boundary 2
        handle.write(b"lost")  # boundary 3
        # The live process sees everything it wrote...
        assert fs.read_bytes("/a") == b"durablelost"
        fs.arm(4, tail_policy="drop")
        with pytest.raises(SimulatedCrash):
            handle.write(b"never")  # boundary 4: crash fires *before* the write
        # ...but only the fsynced prefix survives the crash.
        assert fs.crash_view().read_bytes("/a") == b"durable"

    def test_crash_fires_before_the_armed_operation(self):
        fs = CrashPointFS()
        handle = fs.open_write("/a")
        fs.arm(1)
        with pytest.raises(SimulatedCrash):
            handle.write(b"x")
        # Crash-before semantics: the armed write itself never took effect.
        assert fs.read_bytes("/a") == b""
        assert fs.crashed

    def test_keep_tail_policy_preserves_unsynced_bytes(self):
        fs = CrashPointFS()
        handle = fs.open_write("/a")
        handle.write(b"durable")
        handle.fsync()
        handle.write(b"tail")
        fs.arm(4, tail_policy="keep")
        with pytest.raises(SimulatedCrash):
            handle.write(b"x")
        assert fs.crash_view().read_bytes("/a") == b"durabletail"

    def test_torn_tail_is_a_deterministic_strict_prefix(self):
        def run() -> bytes:
            fs = CrashPointFS()
            handle = fs.open_write("/a")
            handle.write(b"durable")
            handle.fsync()
            handle.write(b"tail-bytes")
            fs.arm(4, tail_policy="torn")
            with pytest.raises(SimulatedCrash):
                handle.write(b"x")
            return fs.crash_view().read_bytes("/a")

        first, second = run(), run()
        # Reproducible across identical schedules (no wall-clock randomness).
        assert first == second
        assert first.startswith(b"durable")
        assert len(first) <= len(b"durabletail-bytes")
        # And it matches the documented seed formula.
        tail = b"tail-bytes"
        keep = (zlib.crc32(b"/a") ^ 4) % (len(tail) + 1)
        assert first == b"durable" + tail[:keep]

    def test_boundary_log_records_every_kind(self):
        fs = CrashPointFS()
        handle = fs.open_write("/a")
        handle.write(b"x")
        handle.fsync()
        fs.rename("/a", "/b")
        fs.truncate("/b", 0)
        assert fs.boundary_count == 4
        assert [kind for kind, _ in fs.boundary_log] == [
            "write",
            "fsync",
            "rename",
            "truncate",
        ]

    def test_rename_is_atomic_and_crashable(self):
        fs = CrashPointFS()
        with fs.open_write("/tmp-file") as handle:
            handle.write(b"payload")
            handle.fsync()
        fs.arm(3)  # boundaries so far: write, fsync; next: rename
        with pytest.raises(SimulatedCrash):
            fs.rename("/tmp-file", "/final")
        view = fs.crash_view()
        # Crash before the rename: the temp file survives, the final name
        # never appears — there is no half-renamed state.
        assert view.exists("/tmp-file") and not view.exists("/final")
        fs.disarm()
        fs.rename("/tmp-file", "/final")
        assert fs.read_bytes("/final") == b"payload"
        assert not fs.exists("/tmp-file")

    def test_open_append_continues_open_write_truncates(self):
        fs = CrashPointFS()
        with fs.open_write("/a") as handle:
            handle.write(b"one")
        with fs.open_append("/a") as handle:
            handle.write(b"two")
        assert fs.read_bytes("/a") == b"onetwo"
        with fs.open_write("/a") as handle:
            handle.write(b"fresh")
        assert fs.read_bytes("/a") == b"fresh"

    def test_corrupt_flips_durable_bytes(self):
        fs = CrashPointFS()
        with fs.open_write("/a") as handle:
            handle.write(b"abc")
            handle.fsync()
        fs.corrupt("/a", 1)
        corrupted = fs.read_bytes("/a")
        assert corrupted[0:1] == b"a" and corrupted[2:3] == b"c"
        assert corrupted[1] == (ord("b") ^ 0xFF)
        with pytest.raises(ValueError):
            fs.corrupt("/a", 99)

    def test_truncate_durable_cuts_stable_content(self):
        fs = CrashPointFS()
        with fs.open_write("/a") as handle:
            handle.write(b"abcdef")
            handle.fsync()
        fs.truncate_durable("/a", 2)
        assert fs.read_bytes("/a") == b"ab"
        assert fs.size("/a") == 2

    def test_arm_validates_its_arguments(self):
        fs = CrashPointFS()
        with pytest.raises(ValueError):
            fs.arm(0)
        with pytest.raises(ValueError):
            fs.arm(1, tail_policy="shred")
        assert set(TAIL_POLICIES) == {"drop", "torn", "keep"}

    def test_directories_and_listdir(self):
        fs = CrashPointFS()
        fs.makedirs("/data/deep/nest")
        assert fs.isdir("/data") and fs.isdir("/data/deep/nest")
        with fs.open_write("/data/file") as handle:
            handle.write(b"x")
        assert fs.listdir("/data") == ["deep", "file"]
        assert not fs.isdir("/data/file")
        fs.remove("/data/file")
        assert not fs.exists("/data/file")
        fs.remove("/data/file")  # idempotent, like the recovery GC relies on

    def test_load_array_is_read_only_even_with_mmap(self):
        fs = CrashPointFS()
        store = SegmentStore(fs, "/data")
        array = np.arange(12, dtype=np.float32).reshape(3, 4)
        store.save_segment(0, 0, array, np.arange(3, dtype=np.int64), None, {})
        for mmap in (False, True):
            loaded = store.load_array("seg-000-000000.vectors.npy", mmap=mmap)
            assert not loaded.flags.writeable
            assert np.array_equal(loaded, array)


class TestOsFileSystem:
    def test_write_read_round_trip(self, tmp_path):
        fs = OsFileSystem()
        path = str(tmp_path / "a")
        with fs.open_write(path) as handle:
            handle.write(b"hello")
            handle.fsync()
        assert fs.exists(path)
        assert fs.read_bytes(path) == b"hello"
        assert fs.size(path) == 5
        with fs.open_append(path) as handle:
            handle.write(b"!")
        assert fs.read_bytes(path) == b"hello!"

    def test_rename_truncate_remove(self, tmp_path):
        fs = OsFileSystem()
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        with fs.open_write(src) as handle:
            handle.write(b"abcdef")
        fs.rename(src, dst)
        assert not fs.exists(src) and fs.read_bytes(dst) == b"abcdef"
        fs.truncate(dst, 3)
        assert fs.read_bytes(dst) == b"abc"
        fs.remove(dst)
        assert not fs.exists(dst)

    def test_makedirs_listdir(self, tmp_path):
        fs = OsFileSystem()
        nested = str(tmp_path / "x" / "y")
        fs.makedirs(nested)
        fs.makedirs(nested)  # idempotent
        assert fs.isdir(nested)
        with fs.open_write(fs.join(nested, "f")) as handle:
            handle.write(b"1")
        assert fs.listdir(nested) == ["f"]

    def test_load_array_mmap_is_read_only(self, tmp_path):
        fs = OsFileSystem()
        store = SegmentStore(fs, str(tmp_path / "store"))
        vectors = np.arange(20, dtype=np.float32).reshape(5, 4)
        store.save_segment(1, 2, vectors, np.arange(5, dtype=np.int64), None, {})
        plain = store.load_array("seg-001-000002.vectors.npy")
        mapped = store.load_array("seg-001-000002.vectors.npy", mmap=True)
        assert isinstance(mapped, np.memmap)
        for loaded in (plain, mapped):
            assert not loaded.flags.writeable
            assert np.array_equal(loaded, vectors)
            with pytest.raises((ValueError, RuntimeError)):
                loaded[0, 0] = 1.0


# -- WriteAheadLog ------------------------------------------------------------------


class TestWALRecordFraming:
    def test_record_round_trip(self):
        record = WALRecord(
            op="insert",
            meta={"batch": 3},
            arrays={
                "ids": np.arange(4, dtype=np.int64),
                "vectors": np.arange(8, dtype=np.float32).reshape(4, 2),
            },
        )
        decoded = WALRecord.decode(record.encode())
        assert decoded.op == "insert"
        assert decoded.meta == {"batch": 3}
        assert set(decoded.arrays) == {"ids", "vectors"}
        assert np.array_equal(decoded.arrays["ids"], record.arrays["ids"])
        assert np.array_equal(decoded.arrays["vectors"], record.arrays["vectors"])
        assert decoded.arrays["vectors"].dtype == np.float32
        # Decoded arrays are frombuffer views over the payload: read-only.
        assert not decoded.arrays["ids"].flags.writeable

    def test_payload_is_json_header_plus_raw_bytes(self):
        ids = np.arange(3, dtype=np.int64)
        payload = WALRecord(op="delete", arrays={"ids": ids}).encode()
        (header_len,) = struct.unpack_from("<I", payload)
        header = json.loads(payload[4 : 4 + header_len].decode("utf-8"))
        assert header["op"] == "delete"
        assert header["arrays"] == [["ids", "<i8", [3]]]
        assert payload[4 + header_len :] == ids.tobytes()

    def test_decode_rejects_malformed_payloads(self):
        with pytest.raises(DurabilityError):
            WALRecord.decode(b"\x01")  # shorter than the header-length field
        good = WALRecord(op="flush").encode()
        with pytest.raises(DurabilityError):
            WALRecord.decode(good + b"extra")  # trailing unaccounted bytes
        truncated = WALRecord(op="insert", arrays={"v": np.ones(8)}).encode()[:-3]
        with pytest.raises(DurabilityError):
            WALRecord.decode(truncated)  # array runs past the payload


class TestWriteAheadLog:
    def append_records(self, fs: CrashPointFS, path: str, count: int) -> list[int]:
        """Append ``count`` insert records; return the file size after each."""
        wal = WriteAheadLog(fs, path)
        sizes = []
        for i in range(count):
            wal.append(WALRecord(op="insert", arrays={"ids": np.array([i], dtype=np.int64)}))
            sizes.append(fs.size(path))
        wal.close()
        return sizes

    def test_new_file_starts_with_magic(self):
        fs = CrashPointFS()
        WriteAheadLog(fs, "/wal.log").close()
        assert fs.read_bytes("/wal.log") == WAL_MAGIC
        assert WriteAheadLog.read(fs, "/wal.log") == ([], len(WAL_MAGIC))

    def test_file_without_magic_yields_nothing(self):
        fs = CrashPointFS()
        with fs.open_write("/junk") as handle:
            handle.write(b"not a wal at all")
        assert WriteAheadLog.read(fs, "/junk") == ([], 0)

    def test_append_and_read_round_trip(self):
        fs = CrashPointFS()
        self.append_records(fs, "/wal.log", 3)
        records, valid_bytes = WriteAheadLog.read(fs, "/wal.log")
        assert [r.arrays["ids"][0] for r in records] == [0, 1, 2]
        assert valid_bytes == fs.size("/wal.log")

    def test_reader_stops_at_torn_append(self):
        fs = CrashPointFS()
        sizes = self.append_records(fs, "/wal.log", 3)
        # Tear the last frame in half: its length field runs past the file.
        fs.truncate_durable("/wal.log", (sizes[1] + sizes[2]) // 2)
        records, valid_bytes = WriteAheadLog.read(fs, "/wal.log")
        assert len(records) == 2
        assert valid_bytes == sizes[1]

    def test_reader_stops_at_crc_corruption_even_mid_file(self):
        fs = CrashPointFS()
        sizes = self.append_records(fs, "/wal.log", 3)
        # Flip one payload byte inside record 2 (frames start after record 1's
        # end plus the 8-byte length+crc header).
        fs.corrupt("/wal.log", sizes[0] + 8)
        records, valid_bytes = WriteAheadLog.read(fs, "/wal.log")
        # Record 3 is intact on disk but is *not* served: everything after
        # the first damaged frame is suspect.
        assert len(records) == 1
        assert valid_bytes == sizes[0]

    def test_always_policy_fsyncs_every_append(self):
        fs = CrashPointFS()
        wal = WriteAheadLog(fs, "/wal.log", sync_policy="always")
        before = sum(1 for kind, _ in fs.boundary_log if kind == "fsync")
        for i in range(3):
            wal.append(WALRecord(op="insert", arrays={"ids": np.array([i])}))
        fsyncs = sum(1 for kind, _ in fs.boundary_log if kind == "fsync") - before
        assert fsyncs == 3
        assert wal.synced_records == wal.appended_records == 3

    def test_batch_policy_fsyncs_only_commit_ops(self):
        fs = CrashPointFS()
        wal = WriteAheadLog(fs, "/wal.log", sync_policy="batch")
        before = sum(1 for kind, _ in fs.boundary_log if kind == "fsync")
        wal.append(WALRecord(op="insert", arrays={"ids": np.array([1])}))
        wal.append(WALRecord(op="delete", arrays={"ids": np.array([1])}))
        assert wal.synced_records == 0  # row traffic rides the page cache
        wal.append(WALRecord(op="flush"))  # commit op: fsyncs the batch
        assert wal.synced_records == 3
        fsyncs = sum(1 for kind, _ in fs.boundary_log if kind == "fsync") - before
        assert fsyncs == 1
        wal.append(WALRecord(op="insert", arrays={"ids": np.array([2])}))
        wal.sync()  # the explicit barrier also promotes the tail
        assert wal.synced_records == 4

    def test_create_truncates_an_existing_log(self):
        fs = CrashPointFS()
        self.append_records(fs, "/wal.log", 2)
        wal = WriteAheadLog.create(fs, "/wal.log")
        wal.close()
        assert WriteAheadLog.read(fs, "/wal.log") == ([], len(WAL_MAGIC))

    def test_reopen_appends_after_existing_records(self):
        fs = CrashPointFS()
        self.append_records(fs, "/wal.log", 2)
        wal = WriteAheadLog(fs, "/wal.log")  # open_append path
        wal.append(WALRecord(op="flush"))
        wal.close()
        records, _ = WriteAheadLog.read(fs, "/wal.log")
        assert [r.op for r in records] == ["insert", "insert", "flush"]

    def test_misuse_raises(self):
        fs = CrashPointFS()
        with pytest.raises(DurabilityError):
            WriteAheadLog(fs, "/wal.log", sync_policy="sometimes")
        wal = WriteAheadLog(fs, "/wal.log")
        wal.close()
        with pytest.raises(DurabilityError):
            wal.append(WALRecord(op="flush"))


# -- SegmentStore -------------------------------------------------------------------


def small_segment_arrays(rows: int = 6, seed: int = 5):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(rows, 4)).astype(np.float32)
    ids = np.arange(rows, dtype=np.int64)
    attributes = {"tag": rng.integers(0, 9, size=rows).astype(np.int64)}
    return vectors, ids, attributes


class TestSegmentStore:
    def test_segment_stem_encodes_shard_and_segment(self):
        assert SegmentStore.segment_stem(2, 7) == "seg-002-000007"
        # Segment ids are per shard: the same segment id under two shards
        # must land under two distinct stems.
        assert SegmentStore.segment_stem(0, 7) != SegmentStore.segment_stem(1, 7)

    def test_save_segment_round_trip(self):
        fs = CrashPointFS()
        store = SegmentStore(fs, "/data")
        vectors, ids, attributes = small_segment_arrays()
        tombstones = np.zeros(len(ids), dtype=bool)
        tombstones[2] = True
        written = store.save_segment(1, 3, vectors, ids, tombstones, attributes)
        assert written == [
            "seg-001-000003.vectors.npy",
            "seg-001-000003.ids.npy",
            "seg-001-000003.tombstones.npy",
            "seg-001-000003.attr.tag.npy",
        ]
        assert np.array_equal(store.load_array(written[0]), vectors)
        assert np.array_equal(store.load_array(written[1]), ids)
        assert np.array_equal(store.load_array(written[2]), tombstones)
        assert np.array_equal(store.load_array(written[3]), attributes["tag"])

    def test_all_clear_tombstones_are_not_persisted(self):
        fs = CrashPointFS()
        store = SegmentStore(fs, "/data")
        vectors, ids, _ = small_segment_arrays()
        written = store.save_segment(0, 0, vectors, ids, np.zeros(len(ids), dtype=bool), {})
        assert not any("tombstones" in name for name in written)

    def test_writes_leave_no_temp_files(self):
        fs = CrashPointFS()
        store = SegmentStore(fs, "/data")
        vectors, ids, attributes = small_segment_arrays()
        store.save_segment(0, 1, vectors, ids, None, attributes)
        store.write_manifest(1, {"shards": []})
        assert not any(".tmp-" in name for name in fs.listdir("/data"))

    def test_load_missing_array_raises(self):
        store = SegmentStore(CrashPointFS(), "/data")
        with pytest.raises(DurabilityError):
            store.load_array("seg-000-000000.vectors.npy")

    def test_manifest_round_trip_stamps_version_and_generation(self):
        store = SegmentStore(CrashPointFS(), "/data")
        store.write_manifest(4, {"shards": [], "wal": "wal-000004.log"})
        manifest = store.load_manifest(4)
        assert manifest["format_version"] == MANIFEST_FORMAT_VERSION
        assert manifest["generation"] == 4
        assert manifest["wal"] == "wal-000004.log"

    def test_unknown_manifest_version_raises(self):
        fs = CrashPointFS()
        store = SegmentStore(fs, "/data")
        body = json.dumps({"format_version": 999, "generation": 2}).encode()
        with fs.open_write("/data/MANIFEST-000002.json") as handle:
            handle.write(body)
            handle.fsync()
        with pytest.raises(DurabilityError):
            store.load_manifest(2)

    def test_latest_manifest_skips_damaged_generations(self):
        fs = CrashPointFS()
        store = SegmentStore(fs, "/data")
        assert store.latest_manifest() is None
        store.write_manifest(1, {"origin": "old"})
        store.write_manifest(2, {"origin": "new"})
        generation, manifest = store.latest_manifest()
        assert (generation, manifest["origin"]) == (2, "new")
        # External bit-rot on the newest manifest degrades to the previous
        # generation instead of bricking the directory.
        fs.corrupt("/data/" + store.manifest_name(2), 0)
        generation, manifest = store.latest_manifest()
        assert (generation, manifest["origin"]) == (1, "old")

    def test_collect_garbage_removes_only_unreferenced_store_files(self):
        fs = CrashPointFS()
        store = SegmentStore(fs, "/data")
        vectors, ids, _ = small_segment_arrays()
        keep = set(store.save_segment(0, 0, vectors, ids, None, {}))
        store.save_segment(0, 1, vectors, ids, None, {})  # unreferenced
        store.write_manifest(1, {})
        store.write_manifest(2, {})
        WriteAheadLog(fs, store.wal_path(1)).close()
        WriteAheadLog(fs, store.wal_path(2)).close()
        with fs.open_write("/data/seg-000-000009.vectors.npy.tmp-000042") as handle:
            handle.write(b"stale")
        with fs.open_write("/data/README") as handle:
            handle.write(b"not ours")
        removed = store.collect_garbage(2, keep)
        survivors = set(fs.listdir("/data"))
        assert survivors == keep | {"MANIFEST-000002.json", "wal-000002.log", "README"}
        assert "MANIFEST-000001.json" in removed and "wal-000001.log" in removed

    def test_crash_at_any_boundary_never_exposes_a_half_written_manifest(self):
        def schedule(fs: CrashPointFS) -> None:
            store = SegmentStore(fs, "/data")
            store.write_manifest(1, {"origin": "old"})
            store.write_manifest(2, {"origin": "new"})

        clean = CrashPointFS()
        schedule(clean)
        assert clean.boundary_count > 0
        for crash_at in range(1, clean.boundary_count + 1):
            for tail_policy in TAIL_POLICIES:
                fs = CrashPointFS()
                fs.arm(crash_at, tail_policy=tail_policy)
                with pytest.raises(SimulatedCrash):
                    schedule(fs)
                located = SegmentStore(fs.crash_view(), "/data").latest_manifest()
                # Atomic publication: recovery sees a fully parsed manifest
                # (generation 1 or 2) or, before the first rename, none —
                # never a torn half-manifest.
                if located is not None:
                    generation, manifest = located
                    assert generation in (1, 2)
                    assert manifest["origin"] == ("old" if generation == 1 else "new")


# -- DurabilityManager + recovery ---------------------------------------------------


class TestDurabilityManager:
    def test_create_logs_the_identity_record(self):
        fs = CrashPointFS()
        assert not DurabilityManager.has_state(fs, "/data/c")
        manager = DurabilityManager.create(
            fs,
            "/data/c",
            name="durable",
            dimension=DIMENSION,
            metric="angular",
            system_config=durable_config(),
        )
        assert DurabilityManager.has_state(fs, "/data/c")
        records, _ = WriteAheadLog.read(fs, manager.store.wal_path(0))
        assert [r.op for r in records] == ["create"]
        assert records[0].meta["name"] == "durable"
        assert records[0].meta["dimension"] == DIMENSION
        assert records[0].meta["system_config"]["durability_mode"] == "wal+checkpoint"
        manager.close()

    def test_create_over_existing_state_raises(self):
        fs = CrashPointFS()
        durable_collection(fs).close()
        with pytest.raises(DurabilityError):
            DurabilityManager.create(
                fs,
                "/data/c",
                name="again",
                dimension=DIMENSION,
                metric="angular",
                system_config=durable_config(),
            )

    def test_destroy_state_makes_the_directory_reusable(self):
        fs = CrashPointFS()
        durable_collection(fs).close()
        assert DurabilityManager.has_state(fs, "/data/c")
        DurabilityManager.destroy_state(fs, "/data/c")
        assert not DurabilityManager.has_state(fs, "/data/c")
        durable_collection(fs).close()  # the directory accepts a fresh create

    def test_wal_before_apply_counters(self):
        fs = CrashPointFS()
        collection = durable_collection(fs)
        collection.insert(make_rows(10))
        collection.delete(np.array([0, 1], dtype=np.int64))
        collection.flush()
        stats = collection.durability.stats
        assert stats.records_appended == 4  # create + insert + delete + flush
        assert stats.rows_logged == 12
        assert stats.fsyncs == 4  # sync_policy="always"
        collection.close()

    def test_checkpoint_report_and_generation_advance(self):
        fs = CrashPointFS()
        collection = durable_collection(fs)
        collection.insert(make_rows(80))
        collection.flush()
        report = collection.checkpoint()
        assert report.generation == 1
        assert report.segments_persisted > 0 and report.segments_reused == 0
        assert report.files_written >= 2 * report.segments_persisted
        assert report.wal_records_truncated == 3  # create + insert + flush
        assert collection.durability.generation == 1
        names = fs.listdir("/data/c")
        assert "MANIFEST-000001.json" in names
        assert "wal-000001.log" in names and "wal-000000.log" not in names
        collection.close()

    def test_second_checkpoint_reuses_unchanged_segments(self):
        fs = CrashPointFS()
        collection = durable_collection(fs)
        collection.insert(make_rows(80))
        collection.flush()
        first = collection.checkpoint()
        second = collection.checkpoint()
        assert second.generation == 2
        assert second.segments_persisted == 0 and second.files_written == 0
        assert second.segments_reused == first.segments_persisted + first.segments_reused
        collection.close()

    def test_checkpoint_seals_pending_rows_first(self):
        fs = CrashPointFS()
        collection = durable_collection(fs)
        collection.insert(make_rows(10))  # stays in the insert buffer
        report = collection.checkpoint()
        assert report.generation == 1
        recovered = Collection.recover("/data/c", filesystem=fs, auto_maintenance=False)
        assert recovered.num_rows == 10
        recovered.close()
        collection.close()

    def test_raw_manager_checkpoint_requires_sealed_rows(self):
        fs = CrashPointFS()
        collection = durable_collection(fs)
        collection.insert(make_rows(10))
        with pytest.raises(DurabilityError):
            collection.durability.checkpoint(collection)
        collection.close()

    def test_data_dir_requires_durability_mode(self):
        with pytest.raises(DurabilityError):
            Collection(
                "c",
                DIMENSION,
                system_config=SystemConfig(durability_mode="off"),
                data_dir="/data/c",
                filesystem=CrashPointFS(),
            )

    def test_filesystem_without_data_dir_is_rejected(self):
        with pytest.raises(ValueError):
            Collection("c", DIMENSION, filesystem=CrashPointFS())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_insert_is_refused_before_the_log(self, bad):
        fs = CrashPointFS()
        collection = durable_collection(fs)
        collection.insert(make_rows(4))
        collection.flush()
        rows = make_rows(5, seed=3)
        rows[2, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            collection.insert(rows)
        collection.flush()
        assert collection.num_rows == 4
        assert collection.durability.stats.records_appended == 4  # create, insert, two flushes
        collection.close()
        records, _ = WriteAheadLog.read(fs, "/data/c/wal-000000.log")
        assert [record.op for record in records] == ["create", "insert", "flush", "flush"]

    def test_a_logged_non_finite_row_still_recovers(self):
        # A log written before inserts were checked holds the row as it came.
        fs = CrashPointFS()
        collection = durable_collection(fs)
        rows = make_rows(5)
        rows[1, 0] = np.nan
        collection.durability.log_insert(np.arange(5, dtype=np.int64), rows, {})
        collection.durability.log_flush()
        collection.close()
        recovered = Collection.recover("/data/c", filesystem=fs, auto_maintenance=False)
        assert recovered.num_rows == 5
        assert recovered.recovery_report.wal_records_replayed == 2
        recovered.close()


class TestRecovery:
    def populated(self, fs: CrashPointFS, **overrides) -> Collection:
        collection = durable_collection(fs, **overrides)
        collection.insert(make_rows(90))
        collection.flush()
        collection.create_index("FLAT", {})
        return collection

    def test_checkpointed_recovery_report(self):
        fs = CrashPointFS()
        collection = self.populated(fs)
        collection.checkpoint()
        collection.insert(make_rows(7, seed=2), ids=np.arange(90, 97, dtype=np.int64))
        collection.delete(np.array([3], dtype=np.int64))
        collection.flush()
        collection.close()

        recovered = Collection.recover("/data/c", filesystem=fs, auto_maintenance=False)
        report = recovered.recovery_report
        assert report.generation == 1
        assert report.segments_loaded > 0
        assert report.wal_records_replayed == 3  # insert + delete + flush
        assert report.index_rebuilt
        assert report.wal_bytes_truncated == 0
        assert recovered.num_rows == 90 + 7 - 1
        assert recovered.index_type == "FLAT"
        recovered.close()

    def test_recovered_search_matches_the_live_collection(self):
        fs = CrashPointFS()
        collection = self.populated(fs)
        collection.checkpoint()
        queries = make_rows(5, seed=42)
        live = collection.search(queries, 10)
        collection.close()
        for mmap_vectors in (False, True):
            recovered = Collection.recover(
                "/data/c", filesystem=fs, auto_maintenance=False, mmap_vectors=mmap_vectors
            )
            replayed = recovered.search(queries, 10)
            assert np.array_equal(replayed.ids, live.ids)
            assert np.array_equal(replayed.distances, live.distances)
            recovered.close()

    def test_cold_recovery_has_no_generation(self):
        fs = CrashPointFS()
        collection = self.populated(fs)  # WAL only, never checkpointed
        collection.close()
        recovered = Collection.recover("/data/c", filesystem=fs, auto_maintenance=False)
        report = recovered.recovery_report
        assert report.generation is None
        assert report.segments_loaded == 0
        assert report.wal_records_replayed == 3  # insert + flush + create_index
        assert recovered.num_rows == 90
        assert recovered.index_type == "FLAT"
        recovered.close()

    def test_recovery_truncates_a_torn_wal_tail(self):
        fs = CrashPointFS()
        collection = self.populated(fs)
        collection.close()
        wal_path = "/data/c/wal-000000.log"
        _, valid_bytes = WriteAheadLog.read(fs, wal_path)
        with fs.open_append(wal_path) as handle:
            handle.write(b"\xff" * 11)  # a torn, never-completed append
            handle.fsync()
        recovered = Collection.recover("/data/c", filesystem=fs, auto_maintenance=False)
        assert recovered.recovery_report.wal_bytes_truncated == 11
        assert fs.size(wal_path) == valid_bytes
        assert recovered.num_rows == 90
        recovered.close()
        # After truncation the directory recovers cleanly again.
        again = Collection.recover("/data/c", filesystem=fs, auto_maintenance=False)
        assert again.recovery_report.wal_bytes_truncated == 0
        again.close()

    def test_recovery_continues_logging_to_the_same_directory(self):
        fs = CrashPointFS()
        collection = self.populated(fs)
        collection.close()
        recovered = Collection.recover("/data/c", filesystem=fs, auto_maintenance=False)
        recovered.insert(make_rows(4, seed=9), ids=np.arange(90, 94, dtype=np.int64))
        recovered.flush()
        recovered.close()
        twice = Collection.recover("/data/c", filesystem=fs, auto_maintenance=False)
        assert twice.num_rows == 94
        twice.close()

    def test_unrecoverable_directories_raise(self):
        fs = CrashPointFS()
        with pytest.raises(RecoveryError):
            Collection.recover("/nowhere", filesystem=fs)
        fs.makedirs("/empty")
        with pytest.raises(RecoveryError):
            Collection.recover("/empty", filesystem=fs)
        # A WAL whose create record is lost is not recoverable either.
        collection = durable_collection(fs)
        collection.insert(make_rows(5))
        collection.close()
        fs.truncate_durable("/data/c/wal-000000.log", len(WAL_MAGIC))
        with pytest.raises(RecoveryError):
            Collection.recover("/data/c", filesystem=fs)


# -- read-only hot path (mmap discipline) -------------------------------------------

#: Minimal build parameters per index type (mirrors the oracle suite).
INDEX_CASES: dict[str, dict] = {
    "FLAT": {},
    "IVF_FLAT": {"nlist": 8, "nprobe": 8},
    "IVF_SQ8": {"nlist": 8, "nprobe": 8},
    "IVF_PQ": {"nlist": 8, "nprobe": 8, "pq_m": 4, "pq_nbits": 8},
    "HNSW": {"hnsw_m": 8, "ef_construction": 64, "ef_search": 48},
    "SCANN": {"nlist": 8, "nprobe": 6, "reorder_k": 64},
    "AUTOINDEX": {},
}


def freeze_sealed_segments(collection: Collection) -> int:
    """Mark every sealed segment's arrays read-only, like recovered mmaps are."""
    frozen = 0
    for shard in collection.shards:
        for segment in shard.segments.segments:
            if segment.state is not SegmentState.GROWING:
                segment.vectors.setflags(write=False)
                segment.ids.setflags(write=False)
                if segment.tombstones is not None:
                    segment.tombstones.setflags(write=False)
                for column in segment.attributes.values():
                    column.setflags(write=False)
                frozen += 1
    return frozen


@pytest.mark.parametrize("index_type", sorted(INDEX_CASES))
class TestReadOnlySegmentServing:
    """No hot path may mutate a sealed segment's arrays in place.

    Recovered segments are served straight from read-only arrays (raw
    ``np.load`` results or ``np.memmap`` views), so indexing, deletes,
    compaction, re-indexing and search must all treat sealed arrays as
    immutable — replacing them wholesale when rows change, never writing
    through them.  Freezing every sealed array turns any in-place write
    anywhere in the pipeline into a hard ``ValueError``.
    """

    def test_full_pipeline_over_frozen_arrays(self, index_type):
        config = SystemConfig(
            maintenance_mode="inline",
            compaction_trigger_ratio=0.05,
            **SEGMENT_CONFIG,
        )
        collection = Collection(
            "frozen", DIMENSION, system_config=config, auto_maintenance=False
        )
        rng = np.random.default_rng(17)
        vectors = rng.normal(size=(300, DIMENSION)).astype(np.float32)
        tags = rng.integers(0, 50, size=300).astype(np.int64)
        collection.insert(vectors, attributes={"tag": tags})
        collection.flush()
        assert freeze_sealed_segments(collection) > 0

        collection.create_index(index_type, INDEX_CASES[index_type])
        doomed = np.arange(0, 300, 3, dtype=np.int64)
        collection.delete(doomed)
        # Deletes replaced tombstone bitmaps (and growing arrays) wholesale;
        # re-freeze whatever is sealed now and let maintenance compact it.
        freeze_sealed_segments(collection)
        report = collection.run_maintenance()
        assert report.rows_dropped > 0 or report.segments_compacted >= 0

        freeze_sealed_segments(collection)
        queries = rng.normal(size=(4, DIMENSION)).astype(np.float32)
        result = collection.search(queries, 10)
        assert result.ids.shape == (4, 10)
        served = result.ids[result.ids >= 0]
        assert not np.isin(served, doomed).any(), "a deleted row was served"
