"""End-to-end tests of the JSON/HTTP serving front-end.

Every test runs a real :class:`~repro.serving.server.ServingFrontend` on an
ephemeral port and speaks plain HTTP to it, so the full stack — routing,
admission, status-code mapping, drain — is exercised exactly as a network
client sees it.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.serving import ServingConfig, ServingFrontend
from repro.serving import server as serving_server
from repro.serving.server import MAX_BODY_BYTES, _Handler
from repro.vdms.server import VectorDBServer
from repro.vdms.system_config import SystemConfig


def raw_request(frontend, method, path, body=None):
    """One request on a fresh connection: ``(status, body bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", frontend.port, timeout=30.0)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request(frontend, method, path, body=None):
    status, raw = raw_request(frontend, method, path, body)
    return status, json.loads(raw) if raw else {}


@pytest.fixture
def frontend():
    frontend = ServingFrontend(config=ServingConfig(queue_depth=16, workers=2)).start()
    yield frontend
    frontend.drain()


@pytest.fixture
def loaded(frontend):
    """A frontend with a small indexed collection named ``demo``."""
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(300, 12)).astype(np.float32)
    assert request(frontend, "POST", "/collections", {"name": "demo", "dimension": 12})[0] == 200
    assert (
        request(frontend, "POST", "/collections/demo/insert", {"vectors": vectors.tolist()})[0]
        == 200
    )
    assert request(frontend, "POST", "/collections/demo/flush", {})[0] == 200
    assert (
        request(frontend, "POST", "/collections/demo/index", {"index_type": "FLAT"})[0] == 200
    )
    return frontend, vectors


def test_health_and_stats(frontend):
    status, payload = request(frontend, "GET", "/healthz")
    assert status == 200
    assert payload == {"status": "ok", "draining": False}
    status, payload = request(frontend, "GET", "/stats")
    assert status == 200
    assert payload["queue_capacity"] == 16
    assert payload["workers"] == 2
    assert payload["collections"] == []


def test_full_collection_lifecycle(loaded):
    frontend, vectors = loaded
    status, payload = request(frontend, "GET", "/collections")
    assert (status, payload) == (200, {"collections": ["demo"]})

    status, payload = request(frontend, "GET", "/collections/demo")
    assert status == 200
    assert payload["dimension"] == 12
    assert payload["num_rows"] == 300
    assert payload["index_type"] == "FLAT"

    status, payload = request(
        frontend,
        "POST",
        "/collections/demo/search",
        {"queries": [vectors[5].tolist()], "top_k": 3},
    )
    assert status == 200
    assert payload["ids"][0][0] == 5  # nearest neighbour of a stored row is itself
    assert len(payload["ids"][0]) == 3

    status, payload = request(frontend, "POST", "/collections/demo/maintenance", {})
    assert status == 200
    assert "segments_compacted" in payload

    assert request(frontend, "DELETE", "/collections/demo")[0] == 200
    assert request(frontend, "GET", "/collections")[1] == {"collections": []}


def test_tenants_filled_without_ids_each_find_their_own_rows(frontend):
    """Auto-assigned ids coincide across tenants; what they serve must not."""
    # Small sealed segments, so the rows are served by built indexes.
    frontend.backend.apply_system_config(
        {"segment_max_size": 1, "segment_seal_proportion": 0.05, "insert_buf_size": 1}
    )
    corpora = {
        name: np.random.default_rng(seed).normal(size=(120, 12)).astype(np.float32)
        for name, seed in (("quiet", 1), ("burst", 2))
    }
    for name, vectors in corpora.items():
        base = f"/collections/{name}"
        assert request(frontend, "POST", "/collections", {"name": name, "dimension": 12})[0] == 200
        assert request(frontend, "POST", f"{base}/insert", {"vectors": vectors.tolist()})[0] == 200
        assert request(frontend, "POST", f"{base}/flush", {})[0] == 200
        assert request(frontend, "POST", f"{base}/index", {"index_type": "FLAT"})[0] == 200
    for name, vectors in corpora.items():
        status, payload = request(
            frontend,
            "POST",
            f"/collections/{name}/search",
            {"queries": vectors[[3, 77]].tolist(), "top_k": 1},
        )
        assert status == 200
        assert payload["ids"] == [[3], [77]]
        assert np.allclose(payload["distances"], 0.0, atol=1e-6)


def test_search_respects_use_cache_flag(frontend):
    backend = frontend.backend
    backend.apply_system_config({"cache_policy": "lru", "cache_capacity": 32})
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(100, 8)).astype(np.float32)
    request(frontend, "POST", "/collections", {"name": "c", "dimension": 8})
    request(frontend, "POST", "/collections/c/insert", {"vectors": vectors.tolist()})
    request(frontend, "POST", "/collections/c/flush", {})
    body = {"queries": [vectors[0].tolist()], "top_k": 2}

    request(frontend, "POST", "/collections/c/search", body)
    _, second = request(frontend, "POST", "/collections/c/search", body)
    assert second["cache_hits"] == 1

    _, bypass = request(frontend, "POST", "/collections/c/search", {**body, "use_cache": False})
    assert bypass["cache_hits"] == 0


def test_a_rejected_search_is_not_a_cache_miss(frontend):
    frontend.backend.apply_system_config({"cache_policy": "lru", "cache_capacity": 8})
    vectors = np.random.default_rng(4).normal(size=(40, 8))
    request(frontend, "POST", "/collections", {"name": "c", "dimension": 8})
    request(frontend, "POST", "/collections/c/insert", {"vectors": vectors.tolist()})
    request(frontend, "POST", "/collections/c/flush", {})
    for width in (3, 5, 9):
        body = {"queries": [[0.5] * width]}
        assert request(frontend, "POST", "/collections/c/search", body)[0] == 400
    status, payload = request(frontend, "GET", "/collections/c/stats")
    assert status == 200
    assert (payload["cache"]["result_misses"], payload["cache"]["result_hit_ratio"]) == (0, 0.0)
    body = {"queries": [vectors[0].tolist()], "top_k": 2}
    request(frontend, "POST", "/collections/c/search", body)
    request(frontend, "POST", "/collections/c/search", body)
    cache = request(frontend, "GET", "/collections/c/stats")[1]["cache"]
    assert (cache["result_hits"], cache["result_misses"], cache["result_hit_ratio"]) == (1, 1, 0.5)


def test_error_status_codes(frontend):
    assert request(frontend, "GET", "/nope")[0] == 404
    assert request(frontend, "GET", "/collections/ghost")[0] == 404
    assert request(frontend, "POST", "/collections/ghost/search", {"queries": [[1.0]]})[0] == 404
    assert request(frontend, "DELETE", "/nope")[0] == 404
    assert request(frontend, "POST", "/collections", {"name": "x"})[0] == 400  # no dimension
    assert request(frontend, "POST", "/collections", {"dimension": 4})[0] == 400  # no name
    # Only an integral dimension in 1..MAX_DIMENSION: none is truncated or coerced.
    for dimension in (2.7, True, "8", 10**30):
        status, body = request(frontend, "POST", "/collections", {"name": "x", "dimension": dimension})
        assert status == 400 and "dimension" in body["error"], (dimension, body)
    request(frontend, "POST", "/collections", {"name": "c", "dimension": 4})
    assert request(frontend, "POST", "/collections/c/search", {})[0] == 400  # no queries
    assert (
        request(frontend, "POST", "/collections/c/search", {"queries": [[1.0] * 4], "top_k": 0})[0]
        == 400
    )
    huge = {"queries": [[1.0] * 4], "top_k": 10**9}
    status, body = request(frontend, "POST", "/collections/c/search", huge)
    assert status == 400 and "top_k must be at most 16384" in body["error"]
    assert (
        request(frontend, "POST", "/collections/c/index", {"index_type": "BOGUS"})[0] == 400
    )
    request(frontend, "POST", "/collections/c/insert", {"vectors": [[1.0] * 4] * 3})
    request(frontend, "POST", "/collections/c/flush", {})
    nan_query = {"queries": [[float("nan"), 1.0, 1.0, 1.0]]}
    status, body = request(frontend, "POST", "/collections/c/search", nan_query)
    assert status == 400 and "finite" in body["error"]
    for bad in (float("nan"), float("inf"), -float("inf")):
        rows = {"vectors": [[1.0] * 4, [bad, 1.0, 1.0, 1.0], [2.0] * 4]}
        assert request(frontend, "POST", "/collections/c/insert", rows)[0] == 400
    # Nothing of a refused insert is stored: the three rows answer a wide search.
    status, body = request(frontend, "POST", "/collections/c/search", {"queries": [[1.0] * 4], "top_k": 5})
    assert status == 200 and sorted(body["ids"][0][:3]) == [0, 1, 2] and body["ids"][0][3:] == [-1, -1]
    # A body declared longer than the cap is refused unread, and the
    # connection closes so none of its bytes parse as a request.
    conn = http.client.HTTPConnection("127.0.0.1", frontend.port, timeout=5.0)
    try:
        conn.putrequest("POST", "/collections/c/insert")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 413 and response.getheader("Connection") == "close"
        assert str(MAX_BODY_BYTES) in json.loads(response.read())["error"]
    finally:
        conn.close()


def test_a_refused_create_keeps_the_durable_collection_it_names(tmp_path):
    # Create-or-replace destroys the old durable state; a refused spec must
    # not get that far.
    config = ServingConfig(queue_depth=16, workers=2, data_dir=str(tmp_path))
    frontend = ServingFrontend(config=config).start()
    try:
        assert request(frontend, "POST", "/collections", {"name": "a", "dimension": 4})[0] == 200
        rows = {"vectors": [[1.0] * 4, [2.0] * 4, [3.0] * 4]}
        assert request(frontend, "POST", "/collections/a/insert", rows)[0] == 200
        assert request(frontend, "POST", "/collections/a/flush", {})[0] == 200
        for spec in ({"dimension": "abc"}, {"dimension": 2.7}, {"dimension": 0},
                     {"dimension": 4, "metric": "bogus"}):
            status, body = request(frontend, "POST", "/collections", {"name": "a", **spec})
            assert status == 400, (spec, body)
    finally:
        frontend.drain()
    fresh = VectorDBServer(SystemConfig(durability_mode="wal+checkpoint"), data_dir=str(tmp_path))
    try:
        assert fresh.recover_collection("a").num_rows == 3
    finally:
        fresh.shutdown()


@pytest.mark.parametrize("length", ["-1", "99999999999999999999", "twelve"])
def test_a_bad_content_length_gets_400_and_a_closed_connection(frontend, length):
    # Bytes after the head would parse as a second request if the server
    # kept the connection open.
    follower = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
    head = f"POST /collections HTTP/1.1\r\nHost: test\r\nContent-Length: {length}\r\n\r\n"
    start = time.monotonic()
    received = b""
    with socket.create_connection(("127.0.0.1", frontend.port), timeout=1.0) as sock:
        sock.sendall(head.encode("ascii") + follower)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:  # closed with the follower unread
            pass
    assert time.monotonic() - start < 1.0
    assert received.startswith(b"HTTP/1.1 400 ")
    assert received.count(b"HTTP/1.1 ") == 1
    assert "Content-Length" in json.loads(received.partition(b"\r\n\r\n")[2])["error"]
    assert request(frontend, "GET", "/healthz")[0] == 200


def test_a_deeply_nested_body_gets_400(frontend):
    request(frontend, "POST", "/collections", {"name": "c", "dimension": 4})
    for body in (b"[" * 3000 + b"]" * 3000, b'{"queries": ' + b"[" * 3000 + b"]" * 3000 + b"}"):
        conn = http.client.HTTPConnection("127.0.0.1", frontend.port, timeout=5.0)
        try:
            conn.request("POST", "/collections/c/search", body=body)
            response = conn.getresponse()
            assert response.status == 400
            assert "nested too deeply" in json.loads(response.read())["error"]
        finally:
            conn.close()
    assert request(frontend, "GET", "/healthz")[0] == 200


@pytest.mark.parametrize(
    "body",
    [{"queries": [[10**400, 0.0, 0.0, 0.0]]}, {"queries": [[1.0] * 4], "deadline_ms": 10**400}],
    ids=["query", "deadline"],
)
def test_a_number_beyond_any_float_gets_400(frontend, body):
    request(frontend, "POST", "/collections", {"name": "c", "dimension": 4})
    status, payload = request(frontend, "POST", "/collections/c/search", body)
    assert status == 400 and "too large" in payload["error"]


def test_a_body_that_ends_early_gets_400_and_a_closed_connection(frontend):
    head = b"POST /collections HTTP/1.1\r\nHost: test\r\nContent-Length: 200\r\n\r\n"
    received = b""
    with socket.create_connection(("127.0.0.1", frontend.port), timeout=5.0) as sock:
        sock.sendall(head + b'{"name": ')
        sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            received += chunk
    assert received.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in received
    assert "191 bytes short" in json.loads(received.partition(b"\r\n\r\n")[2])["error"]
    assert request(frontend, "GET", "/healthz")[0] == 200


def read_response(sock, first_byte: threading.Event) -> tuple[bytes, bool]:
    """Everything the server sends until it closes, and whether it closed."""
    received = b""
    try:
        while chunk := sock.recv(65536):
            first_byte.set()
            received += chunk
    except TimeoutError:
        return received, False
    except ConnectionResetError:
        pass
    return received, True


@pytest.mark.parametrize("trickle", [False, True], ids=["stalled", "trickled"])
def test_a_body_short_of_its_length_gets_408_within_the_bound(frontend, monkeypatch, trickle):
    # The client holds the socket open with the body unfinished: silent, or
    # one byte at a time, never reaching the declared length in time.
    bound = 0.5
    monkeypatch.setattr(serving_server, "BODY_READ_SECONDS", bound)
    head = b"POST /collections HTTP/1.1\r\nHost: test\r\nContent-Length: 200\r\n\r\n"
    answered = threading.Event()
    with socket.create_connection(("127.0.0.1", frontend.port), timeout=10.0) as sock:

        def drip():
            # Stops at the first byte of the answer: a byte sent after the
            # server's close could reset the connection before it is read.
            while not answered.wait(0.15):
                try:
                    sock.sendall(b" ")
                except OSError:  # the server closed first
                    return

        start = time.monotonic()
        sock.sendall(head + b'{"name": ')
        if trickle:
            threading.Thread(target=drip, daemon=True).start()
        received, closed = read_response(sock, answered)
        elapsed = time.monotonic() - start
        answered.set()
    assert received.startswith(b"HTTP/1.1 408 ")
    assert closed and b"Connection: close" in received
    assert bound <= elapsed < bound + 2.0
    assert request(frontend, "GET", "/healthz")[0] == 200


def test_an_idle_keep_alive_connection_outlives_the_body_bound(frontend, monkeypatch):
    # Only the body read is bounded: a client may pause between requests.
    monkeypatch.setattr(serving_server, "BODY_READ_SECONDS", 0.2)
    conn = http.client.HTTPConnection("127.0.0.1", frontend.port, timeout=5.0)
    try:
        for _ in range(2):
            conn.request("POST", "/collections", body=json.dumps({"name": "k", "dimension": 4}))
            response = conn.getresponse()
            assert response.status == 200 and not response.will_close
            response.read()
            time.sleep(0.6)
    finally:
        conn.close()


def test_queued_request_past_deadline_gets_504():
    backend = VectorDBServer()
    gate = threading.Event()
    frontend = ServingFrontend(
        backend, ServingConfig(queue_depth=8, workers=1)
    ).start()
    try:
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(50, 4)).astype(np.float32)
        request(frontend, "POST", "/collections", {"name": "c", "dimension": 4})
        request(frontend, "POST", "/collections/c/insert", {"vectors": vectors.tolist()})

        # Occupy the single worker, then queue a search with a short deadline.
        blocker = frontend.admission.submit(gate.wait, 10.0)
        result = {}

        def search():
            result["response"] = request(
                frontend,
                "POST",
                "/collections/c/search",
                {"queries": [vectors[0].tolist()], "deadline_ms": 50},
            )

        client = threading.Thread(target=search)
        client.start()
        time.sleep(0.3)  # let the deadline lapse while the request is queued
        gate.set()
        blocker.result(timeout=5.0)
        client.join(timeout=10.0)
        status, payload = result["response"]
        assert status == 504
        assert "deadline" in payload["error"]
        assert frontend.admission.stats().expired == 1
    finally:
        gate.set()
        frontend.drain()


def test_full_queue_sheds_with_429():
    gate = threading.Event()
    frontend = ServingFrontend(config=ServingConfig(queue_depth=1, workers=1)).start()
    try:
        request(frontend, "POST", "/collections", {"name": "c", "dimension": 4})
        started = threading.Event()

        def occupy_worker():
            started.set()
            gate.wait(10.0)

        blocker = frontend.admission.submit(occupy_worker)
        assert started.wait(5.0)  # the worker is busy, not just the queue
        # Queues are bounded per tenant: filling collection "c"'s queue is
        # what makes the next search against "c" shed.
        filler = frontend.admission.submit(lambda: None, tenant="c")
        status, payload = request(
            frontend, "POST", "/collections/c/search", {"queries": [[0.0] * 4]}
        )
        assert status == 429
        assert "shed" in payload["error"]
        assert frontend.admission.stats().shed == 1
        gate.set()
        blocker.result(timeout=5.0)
        filler.result(timeout=5.0)
    finally:
        gate.set()
        frontend.drain()


def test_graceful_drain_completes_in_flight_requests():
    frontend = ServingFrontend(config=ServingConfig(queue_depth=32, workers=2)).start()
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(400, 16)).astype(np.float32)
    request(frontend, "POST", "/collections", {"name": "c", "dimension": 16})
    request(frontend, "POST", "/collections/c/insert", {"vectors": vectors.tolist()})
    request(frontend, "POST", "/collections/c/flush", {})

    responses = []
    lock = threading.Lock()

    def client(index):
        try:
            status, _ = request(
                frontend,
                "POST",
                "/collections/c/search",
                {"queries": [vectors[index].tolist()], "top_k": 5, "use_cache": False},
            )
        except ConnectionError:
            # Reached the port only after the drain closed the listener
            # (refused), or sat unaccepted in its backlog when it closed
            # (reset): the same post-drain rejection as a 503, delivered by
            # the kernel.  A response lost for a request the server *did*
            # serve would still fail the served-count check below.
            status = 503
        with lock:
            responses.append(status)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
    for thread in threads:
        thread.start()
    time.sleep(0.01)  # let some requests get admitted mid-flight
    assert frontend.drain() is True
    for thread in threads:
        thread.join(timeout=10.0)

    # Every request was either served (admitted before the drain) or cleanly
    # rejected with 503 (arrived after) — never dropped or errored.
    assert len(responses) == 12
    assert set(responses) <= {200, 503}
    stats = frontend.admission.stats()
    assert stats.in_flight == 0
    # create + insert + flush also went through admission, hence the +3.
    assert stats.served == responses.count(200) + 3

    # After the drain the listener is down and no serving threads survive.
    with pytest.raises(OSError):
        request(frontend, "GET", "/healthz")
    alive = [t.name for t in threading.enumerate() if t.name.startswith("repro-serve")]
    assert alive == []


def test_drain_is_idempotent_and_context_manager_drains():
    with ServingFrontend() as frontend:
        url_port = frontend.port
        assert request(frontend, "GET", "/healthz")[0] == 200
    assert frontend.drain() is True  # second drain: no-op
    with pytest.raises(OSError):
        http.client.HTTPConnection("127.0.0.1", url_port, timeout=1.0).request("GET", "/healthz")


def test_config_validation():
    with pytest.raises(ValueError):
        ServingConfig(queue_depth=0)
    with pytest.raises(ValueError):
        ServingConfig(workers=0)
    with pytest.raises(ValueError):
        ServingConfig(port=70_000)
    with pytest.raises(ValueError):
        ServingConfig(default_deadline_ms=0)
    with pytest.raises(ValueError):
        ServingConfig(drain_timeout_seconds=0)


# -- multi-tenancy ------------------------------------------------------------------


def test_config_validates_tenants():
    from repro.serving import TenantSpec

    with pytest.raises(ValueError):
        ServingConfig(tenants=("not-a-spec",))
    config = ServingConfig(tenants=[TenantSpec("a")])  # lists are coerced
    assert isinstance(config.tenants, tuple)


def test_tenant_specs_register_weights_and_overrides():
    from repro.serving import TenantSLO, TenantSpec

    config = ServingConfig(
        queue_depth=16,
        workers=1,
        tenants=(
            TenantSpec("fast", weight=4.0, queue_depth=2,
                       slo=TenantSLO(recall_floor=0.9)),
            TenantSpec("slow", system_config={"cache_policy": "lru", "cache_capacity": 37}),
        ),
    )
    with ServingFrontend(config=config) as frontend:
        status, payload = request(frontend, "GET", "/stats")
        assert status == 200
        tenants = payload["tenants"]
        assert tenants["fast"]["weight"] == 4.0
        assert tenants["fast"]["queue_capacity"] == 2
        assert tenants["slow"]["weight"] == 1.0
        assert tenants["slow"]["queue_capacity"] == 16
        # The per-tenant SystemConfig override reached the backend.
        assert frontend.backend.system_config_for("slow").cache_capacity == 37
        assert frontend.backend.system_config_for("fast").cache_capacity == (
            frontend.backend.system_config.cache_capacity
        )


def test_per_collection_stats_endpoint(frontend):
    # The tenant override must precede collection creation (applying one
    # drops the tenant's collection so it rebuilds under the new config).
    frontend.backend.apply_system_config(
        {"cache_policy": "lru", "cache_capacity": 8}, tenant="demo"
    )
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(300, 12)).astype(np.float32)
    request(frontend, "POST", "/collections", {"name": "demo", "dimension": 12})
    request(frontend, "POST", "/collections/demo/insert", {"vectors": vectors.tolist()})
    request(frontend, "POST", "/collections/demo/flush", {})
    body = {"queries": [vectors[0].tolist()], "top_k": 2}
    request(frontend, "POST", "/collections/demo/search", body)
    request(frontend, "POST", "/collections/demo/search", body)

    status, payload = request(frontend, "GET", "/collections/demo/stats")
    assert status == 200
    assert payload["name"] == "demo"
    assert payload["collection"]["num_rows"] == 300
    admission = payload["admission"]
    assert admission["served"] >= 2
    assert admission["admitted"] == (
        admission["served"] + admission["failed"] + admission["expired"]
        + admission["evicted"] + admission["in_flight"]
    )
    assert payload["system_config_override"] is True
    assert payload["cache"]["result_hits"] == 1
    # Unknown collections 404 like every other per-collection route.
    assert request(frontend, "GET", "/collections/ghost/stats")[0] == 404


def test_drop_collection_fails_queued_tenant_requests_cleanly():
    """Regression: dropping a collection with queued requests must never
    execute them against a missing collection and never leave them hanging.
    The drop joins the tenant's own queue, so requests admitted *before* it
    are served (admitted work is a promise), requests queued *behind* it are
    evicted with 409, and later arrivals get a clean 404."""
    gate = threading.Event()
    frontend = ServingFrontend(config=ServingConfig(queue_depth=16, workers=1)).start()
    try:
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(60, 6)).astype(np.float32)
        request(frontend, "POST", "/collections", {"name": "doomed", "dimension": 6})
        request(frontend, "POST", "/collections/doomed/insert", {"vectors": vectors.tolist()})
        request(frontend, "POST", "/collections/doomed/flush", {})

        started = threading.Event()

        def occupy_worker():
            started.set()
            gate.wait(10.0)

        blocker = frontend.admission.submit(occupy_worker)
        assert started.wait(5.0)

        before, after = [], []
        lock = threading.Lock()

        def search(bucket):
            status, payload = request(
                frontend,
                "POST",
                "/collections/doomed/search",
                {"queries": [vectors[0].tolist()], "top_k": 3},
            )
            with lock:
                bucket.append((status, payload))

        def queued(n):
            deadline = time.monotonic() + 5.0
            while frontend.admission.tenant_stats("doomed").queue_depth < n:
                assert time.monotonic() < deadline, "requests never queued"
                time.sleep(0.01)

        # One search admitted before the drop...
        early = threading.Thread(target=search, args=(before,))
        early.start()
        queued(1)

        dropper = {}

        def drop():
            dropper["response"] = request(frontend, "DELETE", "/collections/doomed")

        drop_thread = threading.Thread(target=drop)
        drop_thread.start()
        queued(2)
        # ...and two queued behind it.
        late = [threading.Thread(target=search, args=(after,)) for _ in range(2)]
        for thread in late:
            thread.start()
        queued(4)

        gate.set()
        blocker.result(timeout=5.0)
        for thread in [early, drop_thread, *late]:
            thread.join(timeout=10.0)

        status, payload = dropper["response"]
        assert status == 200
        assert payload["dropped"] == "doomed"
        assert payload["evicted_requests"] == 2
        # Admitted before the drop: served against the live collection.
        assert [s for s, _ in before] == [200]
        # Queued behind the drop: evicted, never executed against a missing
        # collection — 409, not a 500 or a hang.
        assert len(after) == 2
        for status, payload in after:
            assert status == 409, after
            assert "dropped" in payload["error"]
        assert frontend.admission.tenant_stats("doomed").evicted == 2
        # Later arrivals get a clean 404.
        assert request(
            frontend, "POST", "/collections/doomed/search",
            {"queries": [vectors[0].tolist()]},
        )[0] == 404
    finally:
        gate.set()
        frontend.drain()


def test_search_accepts_attribute_filter(frontend):
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(200, 8)).astype(np.float32)
    request(frontend, "POST", "/collections", {"name": "f", "dimension": 8})
    # Attribute columns ride along with insert; the HTTP insert body carries
    # plain vectors, so seed the attributed rows through the backend.
    collection = frontend.backend.get_collection("f")
    collection.insert(vectors, attributes={"parity": (np.arange(200) % 2).astype(np.int64)})
    collection.flush()

    status, payload = request(
        frontend,
        "POST",
        "/collections/f/search",
        {
            "queries": [vectors[3].tolist()],
            "top_k": 5,
            "filter": {"field": "parity", "op": "eq", "value": 1},
        },
    )
    assert status == 200
    assert all(i % 2 == 1 for i in payload["ids"][0] if i >= 0)
    # Malformed filters are a 400, not a 500.
    assert request(
        frontend, "POST", "/collections/f/search",
        {"queries": [vectors[3].tolist()], "filter": {"op": "eq", "value": 1}},
    )[0] == 400
    assert request(
        frontend, "POST", "/collections/f/search",
        {"queries": [vectors[3].tolist()],
         "filter": {"field": "parity", "op": "between", "value": 1}},
    )[0] == 400


# -- one send per response ------------------------------------------------------------


@pytest.fixture
def socket_writes(monkeypatch):
    """Byte counts of every write any handler makes to its connection."""
    writes: list[int] = []
    setup = _Handler.setup

    def recording_setup(handler):
        setup(handler)
        write = handler.wfile.write

        def record(data):
            writes.append(len(data))
            return write(data)

        handler.wfile.write = record

    monkeypatch.setattr(_Handler, "setup", recording_setup)
    return writes


@pytest.mark.xfail(
    strict=True, reason="head and body are still two sends (ROADMAP 1(a); CHANGES.md PR 17)"
)
def test_every_response_reaches_the_socket_in_one_write(loaded, socket_writes):
    """Head and body leave together: two small sends stall ~40 ms on a
    keep-alive connection (Nagle waits for the client's delayed ACK).

    Strict, so the change that makes it one send has to turn this test on.
    """
    frontend, vectors = loaded
    search = {"queries": [vectors[0].tolist()], "top_k": 5}
    exchanges = [
        ("GET", "/healthz", None, 200),
        ("GET", "/stats", None, 200),
        ("GET", "/collections/demo", None, 200),
        ("POST", "/collections/demo/search", search, 200),
        ("GET", "/nope", None, 404),
        ("POST", "/collections/demo/search", {}, 400),
        ("POST", "/collections/ghost/search", search, 404),
    ]
    for method, path, body, expected in exchanges:
        del socket_writes[:]
        status, payload = request(frontend, method, path, body)
        assert status == expected
        assert payload  # the single write carried a body, not just the head
        assert len(socket_writes) == 1, f"{method} {path}: writes {socket_writes}"


def test_multi_megabyte_response_is_delivered_whole(loaded):
    frontend, vectors = loaded
    queries = np.tile(vectors, (4, 1))  # 1200 queries x top_k 300: a few MB of JSON
    conn = http.client.HTTPConnection("127.0.0.1", frontend.port, timeout=60.0)
    try:
        conn.request(
            "POST",
            "/collections/demo/search",
            body=json.dumps({"queries": queries.tolist(), "top_k": 300}),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    assert response.status == 200
    assert len(raw) == int(response.getheader("Content-Length")) > 2_000_000
    payload = json.loads(raw)
    assert len(payload["ids"]) == 1200 and all(len(row) == 300 for row in payload["ids"])
    assert payload["ids"][7][0] == 7


# -- responses are JSON -----------------------------------------------------------------


def strict_json(raw: bytes):
    """Parse like an RFC 8259 parser: ``Infinity``/``NaN`` literals are errors."""

    def reject(literal):
        raise ValueError(f"non-JSON literal {literal!r} in response")

    return json.loads(raw, parse_constant=reject)


def test_under_full_search_response_is_strict_json(loaded):
    frontend, vectors = loaded
    reference = frontend.backend.search("demo", vectors[:2], 310, use_cache=False)
    status, raw = raw_request(
        frontend, "POST", "/collections/demo/search",
        {"queries": vectors[:2].tolist(), "top_k": 310, "use_cache": False},
    )
    assert status == 200
    payload = strict_json(raw)
    # 300 rows, top_k 310: ten padded slots per query, ``-1`` / ``null``.
    for row in range(2):
        assert payload["ids"][row] == reference.ids[row].tolist()
        assert payload["ids"][row][300:] == [-1] * 10
        assert payload["distances"][row][300:] == [None] * 10
        assert payload["distances"][row][:300] == reference.distances[row, :300].tolist()


def test_no_route_can_emit_a_non_json_body(frontend, monkeypatch):
    monkeypatch.setattr(frontend, "stats_payload", lambda: {"ratio": float("nan")})
    status, raw = raw_request(frontend, "GET", "/stats")
    assert status == 500
    assert "not valid JSON" in strict_json(raw)["error"]
