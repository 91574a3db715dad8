"""The network serving front-end: JSON over HTTP around a `VectorDBServer`.

Until this module existed, :class:`~repro.vdms.server.VectorDBServer` was an
in-process object: nothing ever *queued*, so the cost model's concurrency
story (``concurrent_qps``) had never been confronted with a real request
path.  :class:`ServingFrontend` closes that gap with a deliberately small
threaded-socket server (stdlib ``http.server``; one connection thread per
client, execution bounded by the admission controller's worker pool):

Request lifecycle (data plane)::

    accept ──► admit / shed ──► deadline check ──► execute ──► respond
                  │ 429 queue full    │ 504 expired
                  │ 503 draining      ▼
                  ▼                (worker pool, bounded concurrency)

* **accept** — the HTTP layer parses the request and resolves the route.
* **admit/shed** — the body is handed to the
  :class:`~repro.serving.admission.AdmissionController`: full queue → 429,
  draining → 503, otherwise the request waits in the bounded queue.
* **deadline check** — a worker dequeues the request; if its deadline
  (``deadline_ms`` in the JSON body, falling back to the server's
  ``default_deadline_ms``) passed while it waited, it is answered 504
  without touching the backend.
* **execute** — the worker runs the operation against the wrapped
  :class:`~repro.vdms.server.VectorDBServer`.
* **drain** — on SIGTERM (or :meth:`ServingFrontend.drain`): stop accepting
  (new requests get 503), finish every admitted request, stop the backend's
  maintenance workers, stop the listener.

Endpoints (all bodies and responses are JSON):

========  =====================================  =====================================
method    path                                   action
========  =====================================  =====================================
GET       ``/healthz``                           liveness + draining flag
GET       ``/stats``                             admission counters + queue depth
                                                 + per-tenant ledgers
GET       ``/collections``                       list collection names
GET       ``/collections/{name}``                dimension/metric/rows/index info
GET       ``/collections/{name}/stats``          per-tenant admission ledger +
                                                 collection + cache counters + SLO
POST      ``/collections``                       create (``name``, ``dimension``, …)
DELETE    ``/collections/{name}``                drop (stops its maintenance worker;
                                                 queued tenant requests get 409)
POST      ``/collections/{name}/insert``         ``vectors`` (+ optional ``ids``)
POST      ``/collections/{name}/flush``          seal full segments
POST      ``/collections/{name}/index``          ``index_type`` + ``params``
POST      ``/collections/{name}/maintenance``    one compaction/re-index pass
POST      ``/collections/{name}/checkpoint``     persist segments + truncate WAL
                                                 (durable collections only)
POST      ``/collections/{name}/search``         ``queries``, ``top_k``
                                                 (+ ``use_cache``, ``deadline_ms``,
                                                 ``filter`` {field, op, value})
========  =====================================  =====================================

A durable front-end (``ServingConfig.data_dir``, or a backend constructed
with its own ``data_dir``) recovers every collection found under the data
directory on :meth:`ServingFrontend.start` — so a ``kill -9`` followed by a
restart serves exactly the acknowledged state — and exposes checkpointing
as a data-plane action.

Every mutating or searching operation goes through admission; the read-only
GET endpoints are served inline so health checks and queue-depth sampling
keep working while the data plane is saturated — exactly what the open-loop
load generator (:mod:`repro.serving.loadgen`) relies on.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

import numpy as np

from repro.serving.admission import (
    AdmissionController,
    DeadlineExceededError,
    QueueFullError,
    ServerDrainingError,
    TenantEvictedError,
)
from repro.serving.tenancy import TenantSpec
from repro.vdms.errors import CollectionNotFoundError, VDMSError
from repro.vdms.request import AttributeFilter, SearchRequest
from repro.vdms.server import VectorDBServer
from repro.vdms.system_config import SystemConfig

__all__ = ["BODY_READ_SECONDS", "MAX_BODY_BYTES", "ServingConfig", "ServingFrontend"]

#: The longest request body the front-end reads.  A longer declared body is
#: answered 413 without reading a byte of it.  Far above any search, and
#: above an insert of 100k rows of 64 dimensions as JSON.
MAX_BODY_BYTES = 2**28

#: How long the front-end waits for a request's whole body once its head has
#: arrived.  A body still short at the deadline is answered 408 and the
#: connection closed, so a stalled client cannot hold a handler thread.  The
#: idle wait between keep-alive requests is not bounded.
BODY_READ_SECONDS = 10.0


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the serving front-end.

    Attributes
    ----------
    host, port:
        Listen address.  Port ``0`` binds an ephemeral port (tests and the
        saturation benchmark use this); the bound port is available as
        :attr:`ServingFrontend.port` once started.
    queue_depth:
        Bound of the admission queue.  This is the knob that trades tail
        latency against shed rate: a deep queue sheds late but lets served
        requests wait ``queue_depth × service_time``, a shallow one keeps
        the tail tight and sheds early.
    workers:
        Execution threads draining the queue (bounded backend concurrency).
    default_deadline_ms:
        Deadline budget applied to requests that do not carry their own
        ``deadline_ms``; ``None`` means no default deadline.
    drain_timeout_seconds:
        How long :meth:`ServingFrontend.drain` waits for admitted requests.
    data_dir:
        Root directory of per-collection durable state, or ``None`` for a
        purely in-memory front-end.  When set (and no backend is injected),
        the frontend builds a durable ``VectorDBServer`` over it and
        :meth:`ServingFrontend.start` recovers every collection found
        there before accepting traffic.
    tenants:
        Declared :class:`~repro.serving.tenancy.TenantSpec` entries, e.g.
        from ``serve --tenant-config``.  Each registers its weight and
        queue bound with the admission controller and, when the spec
        carries a ``system_config``, a per-tenant configuration override on
        the backend.  Tenants not declared here are admitted with weight 1
        and the default queue bound on first use.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_depth: int = 64
    workers: int = 2
    default_deadline_ms: float | None = None
    drain_timeout_seconds: float = 30.0
    data_dir: str | None = None
    tenants: tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        for spec in self.tenants:
            if not isinstance(spec, TenantSpec):
                raise ValueError("tenants must be TenantSpec instances")
        if not 0 <= int(self.port) <= 65_535:
            raise ValueError("port must lie in [0, 65535]")
        if int(self.queue_depth) < 1:
            raise ValueError("queue_depth must be >= 1")
        if int(self.workers) < 1:
            raise ValueError("workers must be >= 1")
        if self.default_deadline_ms is not None and not self.default_deadline_ms > 0:
            raise ValueError("default_deadline_ms must be positive (or None)")
        if not self.drain_timeout_seconds > 0:
            raise ValueError("drain_timeout_seconds must be positive")
        if self.data_dir is not None and not str(self.data_dir):
            raise ValueError("data_dir must be a non-empty path (or None)")


class _HTTPError(Exception):
    """Internal: carry an HTTP status + message through the handler."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServingFrontend:
    """Threaded-socket JSON/HTTP server with admission control.

    Examples
    --------
    >>> frontend = ServingFrontend()
    >>> frontend.start()
    >>> frontend.url  # doctest: +SKIP
    'http://127.0.0.1:40123'
    >>> frontend.drain()
    True
    """

    def __init__(
        self,
        backend: VectorDBServer | None = None,
        config: ServingConfig | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        if backend is None:
            if self.config.data_dir is not None:
                backend = VectorDBServer(
                    SystemConfig(durability_mode="wal+checkpoint"),
                    data_dir=self.config.data_dir,
                )
            else:
                backend = VectorDBServer()
        elif self.config.data_dir is not None and backend.data_dir is None:
            raise ValueError(
                "ServingConfig.data_dir is set but the injected backend is "
                "in-memory; construct the VectorDBServer with the data_dir"
            )
        self.backend = backend
        #: Collection names recovered from the data directory on the last
        #: :meth:`start` (empty for in-memory front-ends).
        self.recovered_collections: list[str] = []
        self.admission = AdmissionController(
            queue_depth=self.config.queue_depth,
            workers=self.config.workers,
        )
        #: Declared tenant specs by name (implicit tenants are not listed).
        self.tenants: dict[str, TenantSpec] = {}
        for spec in self.config.tenants:
            self.tenants[spec.name] = spec
            self.admission.register_tenant(
                spec.name, weight=spec.weight, queue_depth=spec.queue_depth
            )
            if spec.system_config is not None:
                self.backend.apply_system_config(spec.system_config, tenant=spec.name)
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None
        self._drain_lock = threading.Lock()
        self._drained: bool | None = None
        self.started = threading.Event()
        #: Set by :meth:`request_drain` (e.g. from a signal handler); the
        #: CLI's serve loop waits on it and then drains from the main thread.
        self.drain_requested = threading.Event()

    # -- addresses ----------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("frontend is not started")
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.config.host}:{self.port}"

    @property
    def draining(self) -> bool:
        """Whether a drain has been initiated."""
        return self.admission.draining

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "ServingFrontend":
        """Bind the socket and serve on a background thread (returns self).

        On a durable backend, every collection found under the data
        directory is recovered *before* the socket binds, so the first
        admitted request already sees the acknowledged pre-crash state.
        """
        if self._httpd is not None:
            raise RuntimeError("frontend is already started")
        if self.backend.data_dir is not None:
            self.recovered_collections = self.backend.recover_all()
        self._httpd = _Server((self.config.host, int(self.config.port)), _Handler)
        self._httpd.frontend = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serving-accept",
            daemon=True,
        )
        self._thread.start()
        self.started.set()
        return self

    def request_drain(self) -> None:
        """Ask for a drain without performing it (signal-handler safe)."""
        self.drain_requested.set()

    def drain(self) -> bool:
        """Graceful shutdown: 503 new work, finish admitted work, stop.

        The sequence is: flip the admission controller into draining (every
        new data-plane request is answered 503 from this instant), wait for
        the admitted backlog and in-flight requests to complete, shut the
        backend down deterministically (maintenance workers, WAL handles),
        then stop the accept loop and close the socket.  The
        listener stays up *during* the wait so in-flight clients receive
        their responses.  Returns ``True`` when every admitted request
        completed within the configured drain timeout.  Idempotent.
        """
        with self._drain_lock:
            if self._drained is None:
                drained = self.admission.drain(timeout=self.config.drain_timeout_seconds)
                self.backend.shutdown()
                if self._httpd is not None:
                    self._httpd.shutdown()
                    self._httpd.server_close()
                if self._thread is not None:
                    self._thread.join(timeout=5.0)
                self._drained = drained
            return self._drained

    close = drain

    def __enter__(self) -> "ServingFrontend":
        if self._httpd is None:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.drain()

    # -- request execution ---------------------------------------------------------

    def resolve_deadline(self, deadline_ms: float | None) -> float | None:
        """Absolute monotonic deadline for a request arriving now."""
        budget = deadline_ms if deadline_ms is not None else self.config.default_deadline_ms
        if budget is None:
            return None
        return time.monotonic() + float(budget) / 1000.0

    def execute(
        self,
        fn: Callable[[], Any],
        *,
        deadline_ms: float | None = None,
        tenant: str | None = None,
    ) -> Any:
        """Run one data-plane operation through admission control.

        ``tenant`` names the per-tenant queue and admission ledger the
        request is accounted to — the handler passes the collection name,
        so fairness and stats are per collection.  Translates admission
        rejections into :class:`_HTTPError` so the handler maps them onto
        status codes; backend errors propagate.
        """
        try:
            future = self.admission.submit(
                fn, deadline=self.resolve_deadline(deadline_ms), tenant=tenant
            )
        except QueueFullError as error:
            raise _HTTPError(429, str(error)) from None
        except ServerDrainingError as error:
            raise _HTTPError(503, str(error)) from None
        try:
            return future.result()
        except DeadlineExceededError as error:
            raise _HTTPError(504, str(error)) from None
        except TenantEvictedError as error:
            raise _HTTPError(409, str(error)) from None

    def drop_collection(self, name: str) -> int:
        """Drop a collection, first evicting its queued requests.

        Runs through admission like every mutation.  When the drop reaches
        a worker it atomically fails everything still queued for that
        tenant (those clients get 409) *before* removing the collection, so
        no worker ever dequeues a request against a missing collection.
        Requests admitted after the eviction instant fail with a clean 404.
        Returns the number of evicted requests.
        """

        def _drop() -> int:
            evicted = self.admission.fail_tenant(
                name,
                reason=f"collection {name!r} was dropped while the request was queued",
            )
            self.backend.drop_collection(name)
            return evicted

        return int(self.execute(_drop, tenant=name))

    # -- endpoint payloads ---------------------------------------------------------

    def stats_payload(self) -> dict[str, Any]:
        """The ``/stats`` response body."""
        payload = self.admission.stats().to_dict()
        payload["collections"] = self.backend.list_collections()
        payload["queue_capacity"] = self.config.queue_depth
        payload["workers"] = self.config.workers
        payload["tenants"] = self.admission.all_tenant_payloads()
        return payload

    def collection_stats_payload(self, name: str) -> dict[str, Any]:
        """The ``/collections/{name}/stats`` response body.

        One tenant's full serving picture: its admission ledger and
        scheduling parameters, its collection counters, its cache tier, and
        its declared SLO (if any).  404s when the collection does not
        exist, even if an admission ledger lingers from before a drop.
        """
        collection = self.backend.get_collection(name)
        payload: dict[str, Any] = {
            "name": name,
            "collection": self.collection_payload(name),
            "admission": self.admission.tenant_payload(name),
        }
        cache = collection.query_cache
        if cache is not None:
            payload["cache"] = {
                "result_hits": cache.stats.result_hits,
                "result_misses": cache.stats.result_misses,
                "plan_hits": cache.stats.plan_hits,
                "plan_misses": cache.stats.plan_misses,
                "result_hit_ratio": cache.stats.result_hit_ratio,
            }
        else:
            payload["cache"] = None
        spec = self.tenants.get(name)
        payload["slo"] = spec.slo.to_dict() if spec is not None else None
        payload["system_config_override"] = name in self.backend.tenant_config_overrides()
        return payload

    def collection_payload(self, name: str) -> dict[str, Any]:
        """The ``/collections/{name}`` response body."""
        collection = self.backend.get_collection(name)
        return {
            "name": collection.name,
            "dimension": collection.dimension,
            "metric": collection.metric,
            "num_rows": collection.num_rows,
            "num_growing_rows": collection.num_growing_rows,
            "sealed_segments": collection.num_sealed_segments,
            "index_type": collection.index_type,
            "version": collection.version,
        }


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    frontend: ServingFrontend


class _Handler(BaseHTTPRequestHandler):
    """Route table + JSON plumbing; all real policy lives in the frontend."""

    protocol_version = "HTTP/1.1"
    server: _Server

    # -- plumbing -----------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # per-request lines on stderr would drown the load harness

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """``http.server``'s own refusals answer JSON, like every route.

        The stdlib calls this for a malformed request line (400), a method
        without a ``do_*`` handler (501) and an HTTP version it does not
        speak (505); its default body is HTML.  Only a two-word request line
        is HTTP/0.9, answered with a bare body; any other refused line gets a
        status line and headers, which the stdlib omits when it could not
        read the version.
        """
        if self.request_version == "HTTP/0.9" and len(self.requestline.split()) != 2:
            self.request_version = self.protocol_version
        self.close_connection = True
        self._send_json(code, {"error": message or self.responses[code][0]})

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        # ``allow_nan=False``: no route may emit the bare ``Infinity``/``NaN``
        # literals, which are not JSON (RFC 8259) — a stray one is a 500 here
        # rather than a body the client's parser rejects.
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError as error:
            status = 500
            body = json.dumps({"error": f"response is not valid JSON: {error}"}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # Known stall (ROADMAP 1(a), CHANGES.md PR 17): these are two small
        # sends on an unbuffered ``wfile``, so Nagle holds the body until the
        # head is ACKed and a keep-alive client delays that ACK ~40 ms.
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= sys.maxsize:
            # The body's end is unknown: answer, then close, so no byte of it
            # is ever parsed as the next request.
            self.close_connection = True
            raise _HTTPError(400, f"invalid Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            # Unread, the body's bytes would parse as the next request.
            self.close_connection = True
            raise _HTTPError(413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        if length == 0:
            return {}
        raw = self._read_body(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise _HTTPError(400, f"request body is not valid JSON: {error}") from None
        except RecursionError:
            raise _HTTPError(400, "request body is nested too deeply") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return payload

    def _read_body(self, length: int) -> bytes:
        """The ``length`` body bytes, read within :data:`BODY_READ_SECONDS`."""
        deadline = time.monotonic() + BODY_READ_SECONDS
        parts, remaining = [], length
        try:
            while remaining:
                self.connection.settimeout(max(deadline - time.monotonic(), 1e-3))
                part = self.rfile.read1(remaining)
                if not part:
                    self.close_connection = True
                    raise _HTTPError(400, f"request body ended {remaining} bytes short")
                parts.append(part)
                remaining -= len(part)
                if remaining and time.monotonic() >= deadline:
                    raise TimeoutError
        except TimeoutError:
            self.close_connection = True
            raise _HTTPError(
                408, f"request body not received within {BODY_READ_SECONDS} s"
            ) from None
        finally:
            self.connection.settimeout(self.timeout)
        return b"".join(parts)

    def _dispatch(self, method: str) -> None:
        frontend = self.server.frontend
        try:
            status, payload = self._route(frontend, method, self.path.rstrip("/") or "/")
        except _HTTPError as error:
            status, payload = error.status, {"error": str(error)}
        except CollectionNotFoundError as error:
            status, payload = 404, {"error": str(error)}
        except (VDMSError, ValueError, KeyError, TypeError, OverflowError) as error:
            # OverflowError: a client's number beyond what a field can hold.
            status, payload = 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - last-resort 500
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        try:
            self._send_json(status, payload)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- routes -------------------------------------------------------------------

    def _route(
        self, frontend: ServingFrontend, method: str, path: str
    ) -> tuple[int, dict[str, Any]]:
        backend = frontend.backend
        if method == "GET":
            if path == "/healthz":
                return 200, {
                    "status": "draining" if frontend.draining else "ok",
                    "draining": frontend.draining,
                }
            if path == "/stats":
                return 200, frontend.stats_payload()
            if path == "/collections":
                return 200, {"collections": backend.list_collections()}
            name = _match_collection(path)
            if name is not None:
                return 200, frontend.collection_payload(name)
            name, action = _match_action(path)
            if name is not None and action == "stats":
                return 200, frontend.collection_stats_payload(name)
            raise _HTTPError(404, f"no such route: GET {path}")

        if method == "DELETE":
            name = _match_collection(path)
            if name is not None:
                evicted = frontend.drop_collection(name)
                return 200, {"dropped": name, "evicted_requests": evicted}
            raise _HTTPError(404, f"no such route: DELETE {path}")

        if method != "POST":
            raise _HTTPError(404, f"no such route: {method} {path}")

        body = self._read_json()
        if path == "/collections":
            return self._create_collection(frontend, body)
        name, action = _match_action(path)
        if name is None:
            raise _HTTPError(404, f"no such route: POST {path}")
        if action == "insert":
            return self._insert(frontend, name, body)
        if action == "flush":
            sealed = frontend.execute(lambda: frontend.backend.flush(name), tenant=name)
            return 200, {"sealed_segments": int(sealed)}
        if action == "index":
            return self._index(frontend, name, body)
        if action == "maintenance":
            report = frontend.execute(
                lambda: frontend.backend.get_collection(name).run_maintenance(),
                tenant=name,
            )
            return 200, {
                "segments_compacted": report.segments_compacted,
                "segments_created": report.segments_created,
                "segments_reindexed": report.segments_reindexed,
                "rows_dropped": report.rows_dropped,
                "rows_rewritten": report.rows_rewritten,
            }
        if action == "checkpoint":
            report = frontend.execute(
                lambda: frontend.backend.get_collection(name).checkpoint(),
                tenant=name,
            )
            return 200, {
                "generation": report.generation,
                "segments_persisted": report.segments_persisted,
                "segments_reused": report.segments_reused,
                "files_written": report.files_written,
                "wal_records_truncated": report.wal_records_truncated,
            }
        if action == "search":
            return self._search(frontend, name, body)
        raise _HTTPError(404, f"no such route: POST {path}")

    # -- per-endpoint bodies -------------------------------------------------------

    def _create_collection(
        self, frontend: ServingFrontend, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise _HTTPError(400, "create requires a non-empty string 'name'")
        if "dimension" not in body:
            raise _HTTPError(400, "create requires an integer 'dimension'")
        dimension = body["dimension"]
        metric = str(body.get("metric", "angular"))
        auto_maintenance = bool(body.get("auto_maintenance", True))
        collection = frontend.execute(
            lambda: frontend.backend.create_collection(
                name, dimension, metric=metric, auto_maintenance=auto_maintenance
            ),
            tenant=name,
        )
        return 200, {"name": name, "dimension": collection.dimension, "metric": metric}

    def _insert(
        self, frontend: ServingFrontend, name: str, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        if "vectors" not in body:
            raise _HTTPError(400, "insert requires 'vectors' (list of rows)")
        vectors = np.asarray(body["vectors"], dtype=np.float32)
        ids = None
        if body.get("ids") is not None:
            ids = np.asarray(body["ids"], dtype=np.int64)
        inserted = frontend.execute(
            lambda: frontend.backend.insert(name, vectors, ids), tenant=name
        )
        return 200, {"inserted": int(inserted)}

    def _index(
        self, frontend: ServingFrontend, name: str, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        index_type = body.get("index_type")
        if not isinstance(index_type, str) or not index_type:
            raise _HTTPError(400, "index requires a string 'index_type'")
        params = body.get("params") or {}
        if not isinstance(params, dict):
            raise _HTTPError(400, "'params' must be a JSON object")
        stats = frontend.execute(
            lambda: frontend.backend.create_index(name, index_type, params),
            tenant=name,
        )
        return 200, {"index_type": index_type, "segments_indexed": len(stats)}

    def _search(
        self, frontend: ServingFrontend, name: str, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        if "queries" not in body:
            raise _HTTPError(400, "search requires 'queries' (a row or list of rows)")
        queries = np.asarray(body["queries"], dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2 or queries.shape[0] == 0:
            raise _HTTPError(400, "'queries' must be a non-empty 2-D array of rows")
        top_k = int(body.get("top_k", 10))
        use_cache = bool(body.get("use_cache", True))
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is not None and not float(deadline_ms) > 0:
            raise _HTTPError(400, "'deadline_ms' must be positive")
        attribute_filter = None
        filter_body = body.get("filter")
        if filter_body is not None:
            if not isinstance(filter_body, dict) or not {"field", "op", "value"} <= set(
                filter_body
            ):
                raise _HTTPError(400, "'filter' must be an object with field/op/value")
            try:
                attribute_filter = AttributeFilter(
                    field=str(filter_body["field"]),
                    op=str(filter_body["op"]),
                    value=filter_body["value"],
                )
            except (ValueError, TypeError) as error:
                raise _HTTPError(400, f"invalid 'filter': {error}") from None
        request = SearchRequest(queries, top_k, filter=attribute_filter)
        result = frontend.execute(
            lambda: frontend.backend.search(name, request, use_cache=use_cache),
            deadline_ms=None if deadline_ms is None else float(deadline_ms),
            tenant=name,
        )
        distances = result.distances
        finite = np.isfinite(distances)
        if not finite.all():
            # The ``inf`` padding of an under-full row has no JSON number:
            # encode it as ``null``.
            distances = distances.astype(object)
            distances[~finite] = None
        return 200, {
            "ids": result.ids.tolist(),
            "distances": distances.tolist(),
            "num_queries": int(result.stats.num_queries),
            "cache_hits": int(result.stats.cache_hits),
        }


def _match_collection(path: str) -> str | None:
    """``/collections/{name}`` → name (no slashes allowed in names)."""
    parts = path.split("/")
    if len(parts) == 3 and parts[1] == "collections" and parts[2]:
        return parts[2]
    return None


def _match_action(path: str) -> tuple[str | None, str | None]:
    """``/collections/{name}/{action}`` → (name, action)."""
    parts = path.split("/")
    if len(parts) == 4 and parts[1] == "collections" and parts[2] and parts[3]:
        return parts[2], parts[3]
    return None, None
