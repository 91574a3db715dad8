"""Injectable filesystem abstraction for the durability tier.

Everything the durability tier persists — WAL frames, segment arrays,
checkpoint manifests — goes through a :class:`FileSystem`, never through
``open``/``os`` directly.  Two implementations exist:

* :class:`OsFileSystem` talks to the real filesystem (``os.fsync`` on
  commit, ``os.replace`` for atomic renames, ``np.memmap`` for
  ``mmap``-served arrays);
* :class:`CrashPointFS` keeps everything in memory and models the
  page-cache semantics that matter for crash safety: written bytes are
  *buffered* until ``fsync`` promotes them to *durable*, and a simulated
  crash throws the unsynced tail away (or keeps a torn prefix of it).

Every durability-relevant operation — each ``write``, ``fsync``,
``rename`` and ``truncate`` — is a numbered *crash boundary*.  The
fault-injection harness first runs a schedule cleanly to count the
boundaries, then re-runs it once per boundary with
:meth:`CrashPointFS.arm` set, so a :class:`SimulatedCrash` fires at every
individual point where a real process could die.  After the crash,
:meth:`CrashPointFS.crash_view` exposes exactly what survived, and the
recovery path is asserted against the acknowledged-prefix oracle
(see ``tests/vdms/test_crash_recovery.py`` and docs/testing.md).

Simplifications (documented so the tests' claims are honest):

* file creation, rename and remove are metadata operations treated as
  atomic and immediately durable (no directory-entry fsync is modelled);
  only file *data* requires an ``fsync`` to survive;
* a rename never interleaves with a concurrent write to the same path.
"""

from __future__ import annotations

import abc
import io
import os
import posixpath
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SimulatedCrash",
    "FileHandle",
    "FileSystem",
    "OsFileSystem",
    "CrashPointFS",
    "TAIL_POLICIES",
]

#: What happens to each file's unsynced (buffered) tail at a simulated
#: crash: ``"drop"`` loses it entirely, ``"torn"`` keeps a deterministic
#: prefix of it (the kernel flushed part of a page), ``"keep"`` keeps all
#: of it (the lucky case — everything happened to hit the platter).
TAIL_POLICIES: tuple[str, ...] = ("drop", "torn", "keep")


class SimulatedCrash(RuntimeError):
    """Raised by :class:`CrashPointFS` when the armed crash boundary is hit."""


class FileHandle(abc.ABC):
    """A writable file handle with an explicit durability point."""

    path: str

    @abc.abstractmethod
    def write(self, data: bytes) -> int:
        """Append ``data``; buffered until :meth:`fsync` (a crash boundary)."""

    @abc.abstractmethod
    def fsync(self) -> None:
        """Force buffered bytes to stable storage (a crash boundary)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Close the handle (not a durability event)."""

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FileSystem(abc.ABC):
    """The minimal filesystem surface the durability tier needs."""

    @abc.abstractmethod
    def open_append(self, path: str) -> FileHandle:
        """Open ``path`` for appending (created if missing)."""

    @abc.abstractmethod
    def open_write(self, path: str) -> FileHandle:
        """Open ``path`` for writing from scratch (truncates)."""

    @abc.abstractmethod
    def read_bytes(self, path: str) -> bytes:
        """Read the whole file."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        """Whether a file or directory exists at ``path``."""

    @abc.abstractmethod
    def isdir(self, path: str) -> bool:
        """Whether ``path`` is a directory."""

    @abc.abstractmethod
    def listdir(self, path: str) -> list[str]:
        """Sorted entry names of a directory (empty for a missing one)."""

    @abc.abstractmethod
    def makedirs(self, path: str) -> None:
        """Create a directory (and parents); a no-op when it exists."""

    @abc.abstractmethod
    def rename(self, src: str, dst: str) -> None:
        """Atomically move ``src`` over ``dst`` (a crash boundary)."""

    @abc.abstractmethod
    def remove(self, path: str) -> None:
        """Delete a file; missing files are ignored."""

    @abc.abstractmethod
    def truncate(self, path: str, size: int) -> None:
        """Cut a file down to ``size`` bytes (a crash boundary)."""

    @abc.abstractmethod
    def size(self, path: str) -> int:
        """File size in bytes."""

    @abc.abstractmethod
    def load_array(self, path: str, *, mmap: bool = False) -> np.ndarray:
        """Load a ``.npy`` file, read-only; ``mmap=True`` avoids materializing."""

    @staticmethod
    def join(*parts: str) -> str:
        """Join path components (POSIX separators on every backend)."""
        return posixpath.join(*(str(part) for part in parts))


# -- the real thing ---------------------------------------------------------------


class _OsFileHandle(FileHandle):
    def __init__(self, path: str, mode: str) -> None:
        self.path = path
        self._file = open(path, mode)  # noqa: SIM115 - lifetime managed by caller

    def write(self, data: bytes) -> int:
        return self._file.write(data)

    def fsync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()


class OsFileSystem(FileSystem):
    """The durability tier's default backend: the real filesystem."""

    def open_append(self, path: str) -> FileHandle:
        return _OsFileHandle(str(path), "ab")

    def open_write(self, path: str) -> FileHandle:
        return _OsFileHandle(str(path), "wb")

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def isdir(self, path: str) -> bool:
        return os.path.isdir(path)

    def listdir(self, path: str) -> list[str]:
        if not os.path.isdir(path):
            return []
        return sorted(os.listdir(path))

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def rename(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def truncate(self, path: str, size: int) -> None:
        os.truncate(path, int(size))

    def size(self, path: str) -> int:
        return os.path.getsize(path)

    def load_array(self, path: str, *, mmap: bool = False) -> np.ndarray:
        if mmap:
            return np.load(path, mmap_mode="r", allow_pickle=False)
        array = np.load(path, allow_pickle=False)
        array.setflags(write=False)
        return array


# -- the fault-injection backend ---------------------------------------------------


@dataclass
class _MemFile:
    """One in-memory file: the durable prefix plus the buffered content.

    ``buffered`` is the file's full apparent content (what a reader sees
    while the process lives); ``durable`` is what an ``fsync`` has pushed
    to stable storage and therefore what a crash preserves.
    """

    buffered: bytearray = field(default_factory=bytearray)
    durable: bytes = b""


class _MemFileHandle(FileHandle):
    def __init__(self, fs: "CrashPointFS", path: str) -> None:
        self.path = path
        self._fs = fs
        self._closed = False

    def write(self, data: bytes) -> int:
        self._fs._handle_write(self.path, bytes(data))
        return len(data)

    def fsync(self) -> None:
        self._fs._handle_fsync(self.path)

    def close(self) -> None:
        self._closed = True


class CrashPointFS(FileSystem):
    """In-memory filesystem with page-cache semantics and crash injection.

    The harness workflow:

    1. run the schedule once with no crash armed; read
       :attr:`boundary_count` — the number of write/fsync/rename/truncate
       boundaries the schedule crosses;
    2. for each boundary ``k`` in ``1..boundary_count``, build a fresh
       ``CrashPointFS``, :meth:`arm` it with ``crash_at=k``, and replay
       the schedule; the ``k``-th boundary raises :class:`SimulatedCrash`
       *before* the operation takes effect (crash-before semantics — the
       enumeration over all ``k`` therefore also covers every
       crash-after point), after applying the configured tail policy to
       every file's unsynced bytes;
    3. recover from :meth:`crash_view` — a fresh filesystem exposing only
       what survived — and assert against the acknowledged-prefix oracle.

    ``corrupt`` and ``truncate_durable`` additionally flip bits / cut the
    *durable* content at arbitrary offsets for torn-frame and bit-rot
    tests.  All operations are thread-safe (one internal lock), so the
    concurrency suite can share an instance across writer threads.
    """

    def __init__(self) -> None:
        self._files: dict[str, _MemFile] = {}
        self._dirs: set[str] = {"/"}
        self._lock = threading.RLock()
        #: Boundaries crossed so far; ``(kind, path)`` per boundary in
        #: :attr:`boundary_log`.
        self.boundary_count = 0
        self.boundary_log: list[tuple[str, str]] = []
        self._crash_at: int | None = None
        self._tail_policy = "drop"
        self.crashed = False

    # -- crash control ---------------------------------------------------------

    def arm(self, crash_at: int, *, tail_policy: str = "drop") -> None:
        """Arm a crash at boundary number ``crash_at`` (1-based)."""
        if crash_at < 1:
            raise ValueError("crash_at is 1-based: the first boundary is 1")
        if tail_policy not in TAIL_POLICIES:
            raise ValueError(f"tail_policy must be one of {TAIL_POLICIES}")
        with self._lock:
            self._crash_at = int(crash_at)
            self._tail_policy = tail_policy

    def disarm(self) -> None:
        """Remove an armed crash point."""
        with self._lock:
            self._crash_at = None

    def crash_view(self) -> "CrashPointFS":
        """A fresh filesystem holding exactly what survived the crash.

        Every file's content collapses to its post-crash surviving bytes;
        directories are preserved; no crash is armed.  This is what the
        recovery path runs against.
        """
        with self._lock:
            view = CrashPointFS()
            view._dirs = set(self._dirs)
            for path, memfile in self._files.items():
                survivor = self._surviving_bytes(path, memfile)
                view._files[path] = _MemFile(
                    buffered=bytearray(survivor), durable=bytes(survivor)
                )
            return view

    def _surviving_bytes(self, path: str, memfile: _MemFile) -> bytes:
        """Post-crash content of one file under the configured tail policy."""
        if not self.crashed:
            return bytes(memfile.buffered)
        durable = memfile.durable
        tail = bytes(memfile.buffered[len(durable):])
        if self._tail_policy == "drop" or not tail:
            return durable
        if self._tail_policy == "keep":
            return durable + tail
        # "torn": a deterministic strict prefix of the unsynced tail made it
        # out (seeded by the crash point and the path, so enumeration is
        # reproducible without wall-clock randomness).
        seed = zlib.crc32(path.encode("utf-8")) ^ (self._crash_at or 0)
        keep = seed % (len(tail) + 1)
        return durable + tail[:keep]

    def _boundary(self, kind: str, path: str) -> None:
        self.boundary_count += 1
        self.boundary_log.append((kind, path))
        if self._crash_at is not None and self.boundary_count == self._crash_at:
            self.crashed = True
            raise SimulatedCrash(
                f"simulated crash at boundary {self.boundary_count} "
                f"(before {kind} {path!r})"
            )

    # -- fault injection on durable content -----------------------------------

    def corrupt(self, path: str, offset: int, *, xor: int = 0xFF) -> None:
        """Flip bits of one durable byte (bit-rot / torn-sector injection)."""
        with self._lock:
            memfile = self._require(path)
            content = bytearray(memfile.buffered)
            if not 0 <= offset < len(content):
                raise ValueError(f"offset {offset} outside {path!r} ({len(content)} bytes)")
            content[offset] ^= xor & 0xFF
            memfile.buffered = content
            memfile.durable = bytes(content)

    def truncate_durable(self, path: str, size: int) -> None:
        """Cut a file's durable content at an arbitrary byte offset."""
        with self._lock:
            memfile = self._require(path)
            memfile.buffered = memfile.buffered[: int(size)]
            memfile.durable = bytes(memfile.buffered)

    # -- FileSystem surface ----------------------------------------------------

    def _norm(self, path: str) -> str:
        return posixpath.normpath(str(path))

    def _require(self, path: str) -> _MemFile:
        normalized = self._norm(path)
        try:
            return self._files[normalized]
        except KeyError:
            raise FileNotFoundError(normalized) from None

    def _handle_write(self, path: str, data: bytes) -> None:
        with self._lock:
            self._boundary("write", path)
            self._files[path].buffered.extend(data)

    def _handle_fsync(self, path: str) -> None:
        with self._lock:
            self._boundary("fsync", path)
            memfile = self._files[path]
            memfile.durable = bytes(memfile.buffered)

    def open_append(self, path: str) -> FileHandle:
        with self._lock:
            normalized = self._norm(path)
            self._files.setdefault(normalized, _MemFile())
            return _MemFileHandle(self, normalized)

    def open_write(self, path: str) -> FileHandle:
        with self._lock:
            normalized = self._norm(path)
            self._files[normalized] = _MemFile()
            return _MemFileHandle(self, normalized)

    def read_bytes(self, path: str) -> bytes:
        with self._lock:
            return bytes(self._require(path).buffered)

    def exists(self, path: str) -> bool:
        with self._lock:
            normalized = self._norm(path)
            return normalized in self._files or normalized in self._dirs

    def isdir(self, path: str) -> bool:
        with self._lock:
            return self._norm(path) in self._dirs

    def listdir(self, path: str) -> list[str]:
        with self._lock:
            prefix = self._norm(path).rstrip("/") + "/"
            names: set[str] = set()
            for candidate in list(self._files) + list(self._dirs):
                if candidate.startswith(prefix):
                    names.add(candidate[len(prefix):].split("/", 1)[0])
            return sorted(name for name in names if name)

    def makedirs(self, path: str) -> None:
        with self._lock:
            normalized = self._norm(path)
            while normalized and normalized != "/":
                self._dirs.add(normalized)
                normalized = posixpath.dirname(normalized) or "/"

    def rename(self, src: str, dst: str) -> None:
        with self._lock:
            src_n, dst_n = self._norm(src), self._norm(dst)
            self._boundary("rename", src_n)
            self._files[dst_n] = self._files.pop(src_n)

    def remove(self, path: str) -> None:
        with self._lock:
            self._files.pop(self._norm(path), None)

    def truncate(self, path: str, size: int) -> None:
        with self._lock:
            normalized = self._norm(path)
            self._boundary("truncate", normalized)
            memfile = self._require(normalized)
            memfile.buffered = memfile.buffered[: int(size)]
            memfile.durable = memfile.durable[: int(size)]

    def size(self, path: str) -> int:
        with self._lock:
            return len(self._require(path).buffered)

    def load_array(self, path: str, *, mmap: bool = False) -> np.ndarray:
        # No real pages to map in memory; ``mmap`` still yields a read-only
        # array so the copy-on-write discipline is exercised identically.
        array = np.load(io.BytesIO(self.read_bytes(path)), allow_pickle=False)
        array.setflags(write=False)
        return array
