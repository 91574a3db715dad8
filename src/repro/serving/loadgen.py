"""Open-loop load generation against the serving front-end.

The distinction this module exists for: a **closed-loop** client (issue a
request, wait for the answer, issue the next) can never drive a server past
saturation — when the server slows down, the client slows down with it, so
measured latency stays flat and the saturation point is invisible.  Real
traffic is **open-loop**: arrivals do not care how the server is doing.
:class:`LoadGenerator` therefore precomputes a Poisson arrival schedule
(exponential inter-arrival gaps at the target rate) and dispatches each
request at its scheduled instant regardless of outstanding work.  Offered
load beyond capacity then shows up the only ways it can: queueing delay
(latency tail), shed requests (429), expired deadlines (504).

The generator records, per run (:class:`LoadReport`): achieved vs offered
QPS, served-request latency quantiles (p50/p99/p99.9), shed/expired/rejected
counts, client dispatch lag (how late requests left the client — the
open-loop guarantee being auditable), and a queue-depth time series sampled
from the server's ``/stats`` endpoint.

:func:`measure_saturation` is the deliberate closed-loop complement: a few
back-to-back worker loops measure the server's maximum sustainable
throughput, which the open-loop phases are then scaled against.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence
from urllib.parse import urlsplit

import numpy as np

from repro.vdms.request import MAX_TOP_K

__all__ = [
    "LoadGenerator",
    "LoadReport",
    "MixedLoadReport",
    "MultiTenantLoadGenerator",
    "TenantLoadProfile",
    "measure_saturation",
    "run_load",
    "run_mixed_load",
]


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


@dataclass
class LoadReport:
    """Outcome of one open-loop run.

    Attributes
    ----------
    offered_qps:
        The target arrival rate of the Poisson schedule.
    achieved_qps:
        Requests actually dispatched per second of wall-clock run time
        (lower than offered only if the client itself could not keep up —
        check ``dispatch_lag_p99_ms``).
    served / shed / expired / rejected / errors:
        Final request outcomes: HTTP 200 / 429 (queue full) / 504 (deadline
        passed while queued) / 503 (draining) / anything else.
    latency_p50_ms, latency_p99_ms, latency_p999_ms:
        Quantiles over *served* requests only — shed requests fail in
        microseconds and would flatter the tail.
    dispatch_lag_p99_ms:
        How late requests left the client relative to their scheduled
        arrival instant.  Large values mean the client saturated before the
        server did and "offered" overstates the real arrival rate.
    queue_depth_mean / queue_depth_max / queue_depth_samples:
        Server-side admission-queue depth sampled from ``/stats`` during
        the run (empty when sampling is disabled).
    """

    offered_qps: float
    duration_seconds: float
    sent: int
    served: int
    shed: int
    expired: int
    rejected: int
    errors: int
    achieved_qps: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_p999_ms: float
    dispatch_lag_p99_ms: float
    queue_depth_mean: float
    queue_depth_max: int
    queue_depth_samples: list[int] = field(default_factory=list)

    @property
    def shed_rate(self) -> float:
        """Fraction of sent requests shed with 429."""
        return self.shed / self.sent if self.sent else 0.0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (CLI ``--json`` output and benchmark reports)."""
        return {
            "offered_qps": self.offered_qps,
            "duration_seconds": self.duration_seconds,
            "sent": self.sent,
            "served": self.served,
            "shed": self.shed,
            "expired": self.expired,
            "rejected": self.rejected,
            "errors": self.errors,
            "achieved_qps": self.achieved_qps,
            "shed_rate": self.shed_rate,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_p999_ms": self.latency_p999_ms,
            "dispatch_lag_p99_ms": self.dispatch_lag_p99_ms,
            "queue_depth_mean": self.queue_depth_mean,
            "queue_depth_max": self.queue_depth_max,
        }


class _Client:
    """Minimal JSON-over-HTTP client with a persistent connection."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"expected an http://host:port URL, got {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in range(2):  # one retry on a dropped keep-alive connection
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._conn.request(method, path, body=payload, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt == 1:
                    raise
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        return response.status, decoded

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _resolve_dimension(url: str, collection: str) -> int:
    """Ask the server for a collection's vector dimension."""
    client = _Client(url)
    try:
        status, payload = client.request("GET", f"/collections/{collection}")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(
            f"cannot resolve dimension of collection {collection!r}: "
            f"HTTP {status} {payload.get('error', '')}"
        )
    return int(payload["dimension"])


def _search_request(
    collection: str,
    query: np.ndarray,
    *,
    top_k: int,
    use_cache: bool,
    deadline_ms: float | None,
    filter: dict[str, Any] | None = None,
) -> tuple[str, dict[str, Any]]:
    """Path and JSON body of one single-query search."""
    body: dict[str, Any] = {"queries": [query.tolist()], "top_k": top_k, "use_cache": use_cache}
    if deadline_ms is not None:
        body["deadline_ms"] = float(deadline_ms)
    if filter is not None:
        body["filter"] = dict(filter)
    return f"/collections/{collection}/search", body


#: Final request outcome per HTTP status; anything else counts as an error.
_OUTCOME_BY_STATUS = {200: "served", 429: "shed", 504: "expired", 503: "rejected"}


class _StreamTally:
    """What one arrival stream (one tenant's traffic) observed during a run."""

    def __init__(self) -> None:
        self.counts = {"sent": 0, "served": 0, "shed": 0, "expired": 0, "rejected": 0, "errors": 0}
        self.latencies: list[float] = []
        self.lags: list[float] = []
        self.depth_samples: list[int] = []

    def report(self, offered_qps: float, elapsed: float) -> LoadReport:
        samples = self.depth_samples
        return LoadReport(
            offered_qps=offered_qps,
            duration_seconds=elapsed,
            achieved_qps=self.counts["sent"] / elapsed if elapsed > 0 else 0.0,
            latency_p50_ms=_percentile(self.latencies, 50),
            latency_p99_ms=_percentile(self.latencies, 99),
            latency_p999_ms=_percentile(self.latencies, 99.9),
            dispatch_lag_p99_ms=_percentile(self.lags, 99),
            queue_depth_mean=float(np.mean(samples)) if samples else 0.0,
            queue_depth_max=max(samples) if samples else 0,
            queue_depth_samples=samples,
            **self.counts,
        )


def _dispatch_open_loop(
    url: str,
    schedule: Sequence[tuple[float, int, int]],
    num_streams: int,
    request_for: Callable[[int, int], tuple[str, dict[str, Any]]],
    queue_depths: Callable[[dict], Iterable[tuple[int, int]]],
    *,
    sample_stats_every: float | None,
    max_client_threads: int,
) -> tuple[list[_StreamTally], float]:
    """Dispatch a time-ordered arrival schedule open-loop; tally per stream.

    ``schedule`` holds ``(scheduled second, stream, query index)`` arrivals;
    ``request_for(stream, query index)`` builds each request at dispatch
    time and ``queue_depths(stats payload)`` yields the ``(stream, depth)``
    readings one ``/stats`` sample contributes.  Returns one tally per
    stream and the wall-clock seconds the run took.
    """
    # Connections open lazily on first use; a malformed URL raises here, in
    # the caller's thread, before any worker starts.
    clients = [_Client(url) for _ in range(max_client_threads)]
    lock = threading.Lock()
    tallies = [_StreamTally() for _ in range(num_streams)]
    stop_sampling = threading.Event()

    def fire(client: _Client, stream: int, query_index: int, scheduled: float) -> None:
        tally = tallies[stream]
        path, body = request_for(stream, query_index)
        dispatched = time.monotonic()
        try:
            status, _ = client.request("POST", path, body)
        except Exception:
            with lock:
                tally.counts["errors"] += 1
            return
        finished = time.monotonic()
        with lock:
            tally.lags.append((dispatched - start - scheduled) * 1000.0)
            tally.counts[_OUTCOME_BY_STATUS.get(status, "errors")] += 1
            if status == 200:
                tally.latencies.append((finished - dispatched) * 1000.0)

    def sample_stats() -> None:
        client = _Client(url)
        try:
            while not stop_sampling.wait(sample_stats_every):
                try:
                    status, payload = client.request("GET", "/stats")
                except Exception:
                    continue
                if status == 200:
                    with lock:
                        for stream, depth in queue_depths(payload):
                            tallies[stream].depth_samples.append(depth)
        finally:
            client.close()

    sampler = None
    if sample_stats_every is not None:
        sampler = threading.Thread(target=sample_stats, name="repro-loadgen-stats", daemon=True)
        sampler.start()

    # A fixed worker pool with one persistent keep-alive connection per
    # worker: spawning a thread (and a TCP connection) per request would
    # cost more than the request itself and poison the latency samples.
    # The dispatcher below stays open-loop — it enqueues each request at
    # its scheduled instant regardless of outstanding work; an idle
    # worker picks it up immediately.
    work: queue.Queue = queue.Queue()

    def worker_loop(client: _Client) -> None:
        try:
            while True:
                item = work.get()
                if item is None:
                    return
                fire(client, *item)
        finally:
            client.close()

    workers = [
        threading.Thread(
            target=worker_loop, args=(client,), name=f"repro-loadgen-{slot}", daemon=True
        )
        for slot, client in enumerate(clients)
    ]
    for thread in workers:
        thread.start()

    # Workers block on the empty queue, so ``start`` is set before any fires.
    start = time.monotonic()
    for scheduled, stream, query_index in schedule:
        # Open-loop dispatch: sleep until the scheduled instant, never
        # until the previous response.
        delay = start + scheduled - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        work.put((stream, query_index, scheduled))
        with lock:
            tallies[stream].counts["sent"] += 1
    for _ in workers:
        work.put(None)
    for thread in workers:
        thread.join(timeout=120.0)
    elapsed = time.monotonic() - start
    stop_sampling.set()
    if sampler is not None:
        sampler.join(timeout=5.0)
    return tallies, elapsed


class LoadGenerator:
    """Open-loop (Poisson-arrival) load generator for a serving front-end.

    Parameters
    ----------
    url:
        Base URL of a running :class:`~repro.serving.server.ServingFrontend`.
    collection:
        Collection to search; its dimension is resolved over HTTP unless
        ``dimension`` is given.
    qps:
        Target offered arrival rate.
    duration_seconds:
        Length of the arrival schedule.
    deadline_ms:
        Optional per-request deadline forwarded in each search body.
    use_cache:
        Forwarded to the search endpoint; the default benchmark setting is
        ``False`` so every request costs real scatter-gather work.
    sample_stats_every:
        Interval of the ``/stats`` queue-depth sampler; ``None`` disables
        sampling.
    max_client_threads:
        Size of the client worker pool.  Each worker keeps one persistent
        HTTP connection, so the pool bounds concurrent in-flight requests;
        it must comfortably exceed (offered QPS × server latency) or the
        client turns closed-loop — dispatch lag in the report reveals when
        it did.
    """

    def __init__(
        self,
        url: str,
        collection: str,
        *,
        qps: float,
        duration_seconds: float,
        dimension: int | None = None,
        top_k: int = 10,
        deadline_ms: float | None = None,
        use_cache: bool = True,
        seed: int = 0,
        sample_stats_every: float | None = 0.1,
        max_client_threads: int = 64,
    ) -> None:
        if not qps > 0:
            raise ValueError("qps must be positive")
        if not duration_seconds > 0:
            raise ValueError("duration_seconds must be positive")
        if not 1 <= top_k <= MAX_TOP_K:
            raise ValueError(f"top_k must be in 1..{MAX_TOP_K}")
        if deadline_ms is not None and not deadline_ms > 0:
            raise ValueError("deadline_ms must be positive when set")
        if max_client_threads < 1:
            raise ValueError("max_client_threads must be >= 1")
        self.url = url.rstrip("/")
        self.collection = collection
        self.qps = float(qps)
        self.duration_seconds = float(duration_seconds)
        self.dimension = dimension
        self.top_k = int(top_k)
        self.deadline_ms = deadline_ms
        self.use_cache = bool(use_cache)
        self.seed = int(seed)
        self.sample_stats_every = sample_stats_every
        self.max_client_threads = int(max_client_threads)

    def run(self) -> LoadReport:
        """Execute the schedule and aggregate a :class:`LoadReport`."""
        if self.dimension is None:
            self.dimension = _resolve_dimension(self.url, self.collection)
        dimension = int(self.dimension)
        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(1.0 / self.qps, size=max(1, int(self.qps * self.duration_seconds * 2)))
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < self.duration_seconds]
        queries = rng.normal(size=(max(1, len(arrivals)), dimension)).astype(np.float32)

        def request_for(_stream: int, index: int) -> tuple[str, dict[str, Any]]:
            return _search_request(
                self.collection,
                queries[index],
                top_k=self.top_k,
                use_cache=self.use_cache,
                deadline_ms=self.deadline_ms,
            )

        [tally], elapsed = _dispatch_open_loop(
            self.url,
            [(float(scheduled), 0, index) for index, scheduled in enumerate(arrivals)],
            1,
            request_for,
            # One stream: its backlog is the server's global admission queue.
            lambda payload: [(0, int(payload.get("queue_depth", 0)))],
            sample_stats_every=self.sample_stats_every,
            max_client_threads=self.max_client_threads,
        )
        return tally.report(self.qps, elapsed)


def run_load(url: str, collection: str, *, qps: float, duration_seconds: float, **kwargs: Any) -> LoadReport:
    """One-shot convenience wrapper around :class:`LoadGenerator`."""
    return LoadGenerator(
        url, collection, qps=qps, duration_seconds=duration_seconds, **kwargs
    ).run()


@dataclass(frozen=True)
class TenantLoadProfile:
    """One tenant's share of a mixed multi-tenant traffic schedule.

    Attributes
    ----------
    collection:
        The tenant's collection (and admission-ledger name).
    qps:
        The tenant's own Poisson arrival rate.
    top_k, deadline_ms, use_cache:
        Per-request search parameters, as in :class:`LoadGenerator`.
    popularity_skew:
        Zipf exponent over the tenant's query pool: ``0`` draws queries
        uniformly, larger values concentrate traffic on a few hot queries
        (which is what makes the tenant's result cache earn hits).
    query_pool:
        Number of distinct queries the tenant draws from.
    filter:
        Optional attribute filter forwarded in every search body, as a
        ``{"field": ..., "op": ..., "value": ...}`` mapping — per-tenant
        filter profiles exercise completely different execution plans.
    dimension:
        Vector dimension; resolved over HTTP when ``None``.
    """

    collection: str
    qps: float
    top_k: int = 10
    deadline_ms: float | None = None
    use_cache: bool = True
    popularity_skew: float = 0.0
    query_pool: int = 256
    filter: dict[str, Any] | None = None
    dimension: int | None = None

    def __post_init__(self) -> None:
        if not self.collection:
            raise ValueError("collection must be non-empty")
        if not self.qps > 0:
            raise ValueError("qps must be positive")
        if not 1 <= self.top_k <= MAX_TOP_K:
            raise ValueError(f"top_k must be in 1..{MAX_TOP_K}")
        if self.popularity_skew < 0:
            raise ValueError("popularity_skew must be >= 0")
        if self.query_pool < 1:
            raise ValueError("query_pool must be >= 1")
        if self.deadline_ms is not None and not float(self.deadline_ms) > 0:
            raise ValueError("deadline_ms must be positive when set")


@dataclass
class MixedLoadReport:
    """Per-tenant :class:`LoadReport` entries of one mixed open-loop run."""

    tenants: dict[str, LoadReport]
    duration_seconds: float

    @property
    def total_sent(self) -> int:
        """Requests dispatched across all tenants."""
        return sum(report.sent for report in self.tenants.values())

    @property
    def total_served(self) -> int:
        """Requests served across all tenants."""
        return sum(report.served for report in self.tenants.values())

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for benchmark reports."""
        return {
            "duration_seconds": self.duration_seconds,
            "total_sent": self.total_sent,
            "total_served": self.total_served,
            "tenants": {name: report.to_dict() for name, report in self.tenants.items()},
        }


class MultiTenantLoadGenerator:
    """Mixed multi-tenant open-loop traffic against one front-end.

    Each :class:`TenantLoadProfile` gets its own Poisson arrival schedule at
    its own rate; the schedules are merged into a single time-ordered
    dispatch plan served by one shared client worker pool — the same
    open-loop discipline as :class:`LoadGenerator`, so a burst tenant's
    arrivals keep coming whether or not the server keeps up, and whatever
    isolation the server provides (or fails to provide) shows up in the
    *per-tenant* latency tails and shed counts this generator reports.

    The queue-depth sampler reads each tenant's depth from the ``tenants``
    map of ``/stats``, so per-tenant backlog growth is auditable too.
    """

    def __init__(
        self,
        url: str,
        profiles: list[TenantLoadProfile],
        *,
        duration_seconds: float,
        seed: int = 0,
        sample_stats_every: float | None = 0.1,
        max_client_threads: int = 64,
    ) -> None:
        if not profiles:
            raise ValueError("at least one tenant profile is required")
        names = [profile.collection for profile in profiles]
        if len(set(names)) != len(names):
            raise ValueError("tenant collections must be unique")
        if not duration_seconds > 0:
            raise ValueError("duration_seconds must be positive")
        if max_client_threads < 1:
            raise ValueError("max_client_threads must be >= 1")
        self.url = url.rstrip("/")
        self.profiles = list(profiles)
        self.duration_seconds = float(duration_seconds)
        self.seed = int(seed)
        self.sample_stats_every = sample_stats_every
        self.max_client_threads = int(max_client_threads)

    def run(self) -> MixedLoadReport:
        """Execute the merged schedule and report per tenant."""
        rng = np.random.default_rng(self.seed)
        pools: list[np.ndarray] = []
        schedules: list[tuple[float, int, int]] = []  # (arrival, tenant, query index)
        for tenant_index, profile in enumerate(self.profiles):
            dimension = profile.dimension
            if dimension is None:
                dimension = _resolve_dimension(self.url, profile.collection)
            pool = rng.normal(size=(profile.query_pool, dimension)).astype(np.float32)
            pools.append(pool)
            gaps = rng.exponential(
                1.0 / profile.qps,
                size=max(1, int(profile.qps * self.duration_seconds * 2)),
            )
            arrivals = np.cumsum(gaps)
            arrivals = arrivals[arrivals < self.duration_seconds]
            if profile.popularity_skew > 0.0:
                ranks = np.arange(1, profile.query_pool + 1, dtype=np.float64)
                weights = ranks ** (-profile.popularity_skew)
                weights /= weights.sum()
                picks = rng.choice(profile.query_pool, size=len(arrivals), p=weights)
            else:
                picks = rng.integers(0, profile.query_pool, size=len(arrivals))
            for arrival, pick in zip(arrivals, picks):
                schedules.append((float(arrival), tenant_index, int(pick)))
        schedules.sort()

        def request_for(tenant_index: int, query_index: int) -> tuple[str, dict[str, Any]]:
            profile = self.profiles[tenant_index]
            return _search_request(
                profile.collection,
                pools[tenant_index][query_index],
                top_k=profile.top_k,
                use_cache=profile.use_cache,
                deadline_ms=profile.deadline_ms,
                filter=profile.filter,
            )

        def queue_depths(payload: dict) -> Iterable[tuple[int, int]]:
            tenants = payload.get("tenants") or {}
            for tenant_index, profile in enumerate(self.profiles):
                entry = tenants.get(profile.collection)
                if entry is not None:
                    yield tenant_index, int(entry.get("queue_depth", 0))

        tallies, elapsed = _dispatch_open_loop(
            self.url,
            schedules,
            len(self.profiles),
            request_for,
            queue_depths,
            sample_stats_every=self.sample_stats_every,
            max_client_threads=self.max_client_threads,
        )
        reports = {
            profile.collection: tally.report(profile.qps, elapsed)
            for profile, tally in zip(self.profiles, tallies)
        }
        return MixedLoadReport(tenants=reports, duration_seconds=elapsed)


def run_mixed_load(
    url: str,
    profiles: list[TenantLoadProfile],
    *,
    duration_seconds: float,
    **kwargs: Any,
) -> MixedLoadReport:
    """One-shot convenience wrapper around :class:`MultiTenantLoadGenerator`."""
    return MultiTenantLoadGenerator(
        url, profiles, duration_seconds=duration_seconds, **kwargs
    ).run()


def measure_saturation(
    url: str,
    collection: str,
    *,
    threads: int = 4,
    duration_seconds: float = 1.5,
    top_k: int = 10,
    use_cache: bool = False,
    seed: int = 0,
) -> float:
    """Closed-loop saturation probe: maximum sustainable served QPS.

    Runs ``threads`` back-to-back request loops for ``duration_seconds`` and
    returns served requests per second.  Being closed-loop it cannot
    overload the server — which is exactly why the number it returns is the
    capacity the open-loop phases should be scaled against.  The query
    dimension is the collection's, read from the server.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(256, _resolve_dimension(url, collection))).astype(np.float32)
    served = 0
    lock = threading.Lock()
    deadline = time.monotonic() + float(duration_seconds)

    def loop(slot: int) -> None:
        nonlocal served
        client = _Client(url)
        index = slot
        try:
            while time.monotonic() < deadline:
                path, body = _search_request(
                    collection,
                    queries[index % len(queries)],
                    top_k=top_k,
                    use_cache=use_cache,
                    deadline_ms=None,
                )
                index += threads
                try:
                    status, _ = client.request("POST", path, body)
                except Exception:
                    continue
                if status == 200:
                    with lock:
                        served += 1
        finally:
            client.close()

    workers = [
        threading.Thread(target=loop, args=(slot,), name=f"repro-saturate-{slot}", daemon=True)
        for slot in range(threads)
    ]
    start = time.monotonic()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=duration_seconds + 30.0)
    elapsed = time.monotonic() - start
    return served / elapsed if elapsed > 0 else 0.0
