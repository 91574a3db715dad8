"""Fuzz of the HTTP edge: no byte sequence a client sends gets a 5xx or a hang.

A live :class:`~repro.serving.server.ServingFrontend` with a small indexed
collection to search and an empty one to insert into and index receives raw request bytes (broken request lines, bad or missing
``Content-Length`` headers, bodies shorter or longer than declared) and JSON
bodies of arbitrary shape (nested values, wrong types, NaN and infinities,
huge numbers, non-object bodies) on every POST route.  Every response must be
2xx or 4xx with a JSON object body, and the connection must finish within a
per-example bound.
Afterwards ``/healthz`` and a valid search still answer, so neither a handler
thread nor an admission worker was lost.
"""

from __future__ import annotations

import json
import socket
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import ServingConfig, ServingFrontend
from repro.serving import server as serving_server

#: Seconds one example may take, from connect to the server's close.
EXAMPLE_SECONDS = 5.0
#: The body deadline during the fuzz, so a body shorter than declared answers fast.
BODY_READ_SECONDS = 0.3
DIMENSION = 8

FUZZ = settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def frontend():
    patch = pytest.MonkeyPatch()
    patch.setattr(serving_server, "BODY_READ_SECONDS", BODY_READ_SECONDS)
    frontend = ServingFrontend(config=ServingConfig(queue_depth=16, workers=2)).start()
    vectors = np.random.default_rng(3).normal(size=(64, DIMENSION)).astype(np.float32)
    for path, body in (
        ("/collections", {"name": "demo", "dimension": DIMENSION}),
        ("/collections/demo/insert", {"vectors": vectors.tolist()}),
        ("/collections/demo/flush", {}),
        ("/collections/demo/index", {"index_type": "FLAT"}),
        ("/collections", {"name": "fuzz_a", "dimension": DIMENSION}),
    ):
        assert exchange(frontend, post(path, json.dumps(body).encode()))[0] == [200]
    yield frontend
    frontend.drain()
    patch.undo()


def post(path: str, body: bytes) -> bytes:
    head = f"POST {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


def statuses(received: bytes) -> list[int]:
    """The status of every response in ``received``, read head by head.

    Every response body must be a JSON object, protocol refusals included.
    """
    found = []
    while received.startswith(b"HTTP/"):
        head, _, rest = received.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        found.append(int(lines[0].split()[1]))
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        assert isinstance(json.loads(rest[:length]), dict), head + rest[:length]
        received = rest[length:]
    return found


def exchange(frontend, data: bytes) -> tuple[list[int], bytes]:
    """Send ``data``, half-close, and read until the server closes."""
    started = time.monotonic()
    received = b""
    with socket.create_connection(("127.0.0.1", frontend.port), timeout=EXAMPLE_SECONDS) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                received += chunk
        except (ConnectionResetError, BrokenPipeError):  # closed with bytes unread
            pass
    assert time.monotonic() - started < EXAMPLE_SECONDS
    return statuses(received), received


#: The protocol's own answers to a method or an HTTP version the server does
#: not speak (``http.server``'s 501 and 505): refusals, not server faults.
PROTOCOL_REFUSALS = {501, 505}


def assert_no_server_error(found: list[int], received: bytes) -> None:
    assert all(200 <= s < 500 or s in PROTOCOL_REFUSALS for s in found), received[:500]


def assert_alive(frontend) -> None:
    assert exchange(frontend, b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n")[0] == [200]
    query = json.dumps({"queries": [[0.5] * DIMENSION], "top_k": 3}).encode()
    found, received = exchange(frontend, post("/collections/demo/search", query))
    assert found == [200], received
    assert len(json.loads(received.partition(b"\r\n\r\n")[2])["ids"][0]) == 3


NUMBERS = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([0, -1, 2**63, 10**400, 1e308, -1e308, 1e-320]),
    st.floats(allow_nan=True, allow_infinity=True),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=12))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=24,
)
ROW_VALUES = st.one_of(st.floats(-1e3, 1e3), NUMBERS)
ROWS = st.lists(st.lists(ROW_VALUES, min_size=DIMENSION, max_size=DIMENSION), min_size=1, max_size=3)
FIELDS = {
    "/collections": {
        "name": st.one_of(st.sampled_from(["fuzz_a", "fuzz_b", ""]), VALUES),
        "dimension": st.one_of(st.integers(-2, 16), VALUES),
        "metric": st.one_of(st.sampled_from(["l2", "ip", "angular"]), VALUES),
    },
    "/collections/demo/search": {
        "queries": st.one_of(ROWS, VALUES),
        "top_k": st.one_of(st.integers(-2, 20), VALUES),
        "use_cache": VALUES,
        "deadline_ms": VALUES,
        "filter": st.one_of(
            st.fixed_dictionaries({"field": VALUES, "op": VALUES, "value": VALUES}), VALUES
        ),
    },
    "/collections/fuzz_a/insert": {"vectors": st.one_of(ROWS, VALUES), "ids": VALUES},
    "/collections/fuzz_a/index": {
        "index_type": st.one_of(st.sampled_from(["FLAT", "IVF_FLAT", "BOGUS"]), VALUES),
        "params": VALUES,
    },
}


def nested(depth: int) -> bytes:
    return b'{"queries": ' + b"[" * depth + b"]" * depth + b"}"


BODIES = st.one_of(
    st.sampled_from(sorted(FIELDS)).flatmap(
        lambda path: st.tuples(
            st.just(path),
            st.fixed_dictionaries({}, optional=FIELDS[path]).map(json.dumps),
        )
    ),
    st.tuples(st.sampled_from(sorted(FIELDS)), VALUES.map(json.dumps)),
    st.tuples(
        st.sampled_from(sorted(FIELDS)),
        st.sampled_from([2, 100, 3_000, 50_000]).map(lambda depth: nested(depth).decode()),
    ),
)


@FUZZ
@given(body=BODIES)
def test_json_bodies_never_get_a_server_error(frontend, body):
    path, text = body
    assert_no_server_error(*exchange(frontend, post(path, text.encode())))


LENGTHS = st.one_of(
    st.sampled_from(["", "-1", "+3", " 7 ", "0x10", "1e3", "twelve", "99999999999999999999"]),
    st.integers(0, 64).map(str),
    st.just(str(2**28 + 1)),
)
REQUEST_LINES = st.one_of(
    st.sampled_from(
        [
            "POST /collections/demo/search HTTP/1.1",
            "POST /collections HTTP/1.1",
            "GET /healthz HTTP/1.1",
            "GET /stats HTTP/1.0",
            "DELETE /collections/ghost HTTP/1.1",
            "PUT /collections HTTP/1.1",
            "POST /collections/demo/search HTTP/9.9",
            "POST  HTTP/1.1",
            "GET /collections/%ff%00/stats HTTP/1.1",
        ]
    ),
    st.text(alphabet=st.characters(codec="latin-1"), max_size=40),
)


@FUZZ
@given(
    line=REQUEST_LINES,
    length=st.one_of(st.none(), LENGTHS),
    body=st.binary(max_size=96),
)
def test_raw_requests_never_get_a_server_error(frontend, line, length, body):
    head = line.encode("latin-1") + b"\r\nHost: fuzz\r\n"
    if length is not None:
        head += f"Content-Length: {length}\r\n".encode("latin-1")
    found, received = exchange(frontend, head + b"\r\n" + body)
    assert_no_server_error(found, received)


@pytest.mark.parametrize(
    "line, status",
    [
        (b'GET /"quoted" \\back\\slash HTTP/1.1', 400),  # four words
        (b'PU"T /collections\\x HTTP/1.1', 501),
        (b'GET /healthz HTTP/2"\\0', 400),  # an unparsable version
        (b"GET /healthz HTTP/2.0", 505),
        (b"GARBAGE", 400),  # one word
    ],
)
def test_protocol_refusals_answer_a_json_error(frontend, line, status):
    found, received = exchange(frontend, line + b"\r\nHost: fuzz\r\n\r\n")
    assert found == [status], received
    head, _, body = received.partition(b"\r\n\r\n")
    assert b"Content-Type: application/json" in head and b"Connection: close" in head
    assert json.loads(body)["error"]


def test_the_server_answers_after_the_fuzz(frontend):
    for depth in (2_000, 200_000):
        found, received = exchange(frontend, post("/collections/demo/search", nested(depth)))
        assert found == [400], received
    assert_alive(frontend)
