"""Admission control: per-tenant bounded queues, deadlines and fair scheduling.

The serving front-end must degrade *predictably* under overload.  An
unbounded queue degrades unpredictably: every queued request eventually
completes, but tail latency grows without bound and the clients that gave up
long ago still consume server work.  The :class:`AdmissionController`
implements the standard counter-measures in one place, decoupled from the
HTTP layer so they are unit-testable with plain callables:

* **Bounded queues** — each tenant owns a bounded queue; a submission
  against a full queue is *shed* immediately (:class:`QueueFullError`,
  surfaced as HTTP 429).  Shedding costs microseconds, so the server stays
  responsive precisely when it is overloaded.  Each tenant is bounded
  independently, so one tenant's backlog cannot consume another tenant's
  queue slots.
* **Weighted-fair scheduling** — workers drain the tenant queues through a
  :class:`~repro.serving.tenancy.StrideScheduler`: each dequeue charges the
  tenant ``1 / weight``, and workers always pick the backlogged tenant with
  the smallest pass.  A tenant with weight 2 receives twice the service of
  a tenant with weight 1 while both are backlogged; an idle tenant rejoins
  at the current virtual time, so sleeping never accumulates credit.  With
  a single tenant the dequeue order is exactly FIFO.
* **Per-request deadlines** — a request may carry an absolute deadline
  (``time.monotonic()`` domain).  Workers check it when they *dequeue* the
  request: if the deadline passed while the request waited, executing it
  would waste service capacity on an answer the client no longer wants, so
  it is rejected (:class:`DeadlineExceededError`, surfaced as HTTP 504)
  without touching the backend.
* **Eviction** — :meth:`AdmissionController.fail_tenant` atomically fails
  every *queued* request of one tenant (:class:`TenantEvictedError`,
  surfaced as HTTP 409).  This is the drop-collection path: workers must
  never dequeue a request against a collection that no longer exists.
* **Graceful drain** — :meth:`AdmissionController.drain` flips the
  controller into a draining state (new submissions raise
  :class:`ServerDrainingError`, surfaced as HTTP 503), waits until every
  *admitted* request has been completed, then stops the worker threads.
  Admitted work is a promise: drain never abandons it.

Execution happens on a fixed pool of ``workers`` threads, so the controller
also bounds concurrency — the queues absorb bursts, the workers bound the
parallel load on the backend.  Every tenant keeps a full admission ledger
(:class:`AdmissionSnapshot`), and the controller-wide ledger is the exact
sum of the per-tenant ledgers.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.serving.tenancy import StrideScheduler

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionSnapshot",
    "DEFAULT_TENANT",
    "DeadlineExceededError",
    "QueueFullError",
    "ServerDrainingError",
    "TenantEvictedError",
]

#: Tenant requests are attributed to when the caller does not name one.
DEFAULT_TENANT = "__default__"


class AdmissionError(RuntimeError):
    """Base class for admission-control rejections."""


class QueueFullError(AdmissionError):
    """The bounded request queue is full; the request was shed (HTTP 429)."""


class DeadlineExceededError(AdmissionError):
    """The request's deadline passed while it was queued (HTTP 504)."""


class ServerDrainingError(AdmissionError):
    """The controller is draining or closed; no new work is admitted (HTTP 503)."""


class TenantEvictedError(AdmissionError):
    """The request's tenant was evicted while the request was queued (HTTP 409)."""


@dataclass(frozen=True)
class AdmissionSnapshot:
    """A consistent snapshot of an admission ledger.

    The controller-wide snapshot (:meth:`AdmissionController.stats`) and the
    per-tenant snapshots (:meth:`AdmissionController.tenant_stats`) share
    this shape; the controller-wide counters are the sums of the per-tenant
    ones.

    Attributes
    ----------
    admitted:
        Requests accepted into the queue since start.
    shed:
        Submissions rejected because the queue was full (429s).
    rejected:
        Submissions rejected because the controller was draining (503s).
    expired:
        Admitted requests rejected at dequeue because their deadline had
        already passed (504s).
    served:
        Admitted requests whose callable completed normally.
    failed:
        Admitted requests whose callable raised.
    queue_depth:
        Requests currently waiting for a worker.
    in_flight:
        Admitted requests not yet finished (queued + executing).
    max_queue_depth:
        High-water mark of ``queue_depth`` since start.
    draining:
        Whether :meth:`AdmissionController.drain` has been initiated.
    evicted:
        Admitted requests failed by :meth:`AdmissionController.fail_tenant`
        while still queued (409s).
    """

    admitted: int
    shed: int
    rejected: int
    expired: int
    served: int
    failed: int
    queue_depth: int
    in_flight: int
    max_queue_depth: int
    draining: bool
    evicted: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for the ``/stats`` endpoint."""
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "rejected": self.rejected,
            "expired": self.expired,
            "served": self.served,
            "failed": self.failed,
            "evicted": self.evicted,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "max_queue_depth": self.max_queue_depth,
            "draining": self.draining,
        }


class _TenantState:
    """One tenant's bounded queue and admission ledger."""

    __slots__ = (
        "queue_depth",
        "jobs",
        "admitted",
        "shed",
        "rejected",
        "expired",
        "served",
        "failed",
        "evicted",
        "in_flight",
        "max_queue_depth",
    )

    def __init__(self, queue_depth: int) -> None:
        self.queue_depth = queue_depth
        self.jobs: deque = deque()
        self.admitted = 0
        self.shed = 0
        self.rejected = 0
        self.expired = 0
        self.served = 0
        self.failed = 0
        self.evicted = 0
        self.in_flight = 0
        self.max_queue_depth = 0


class AdmissionController:
    """Per-tenant bounded queues drained by a weighted-fair worker pool.

    The shared workers pick the next request by stride scheduling over the
    per-tenant queues; with a single tenant that is exact FIFO.

    Examples
    --------
    >>> controller = AdmissionController(queue_depth=8, workers=2)
    >>> future = controller.submit(lambda: 21 * 2)
    >>> future.result()
    42
    >>> controller.drain()
    True
    """

    def __init__(
        self,
        *,
        queue_depth: int = 64,
        workers: int = 2,
    ) -> None:
        if int(queue_depth) < 1:
            raise ValueError("queue_depth must be >= 1")
        if int(workers) < 1:
            raise ValueError("workers must be >= 1")
        self.queue_depth = int(queue_depth)
        self.workers = int(workers)
        self._tenants: dict[str, _TenantState] = {}
        self._scheduler = StrideScheduler()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)
        self._total_queued = 0
        self._in_flight = 0
        self._max_queue_depth = 0
        self._draining = False
        self._closed = False
        self._stopped = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{slot}",
                daemon=True,
            )
            for slot in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- tenants ------------------------------------------------------------------

    def register_tenant(
        self,
        name: str,
        *,
        weight: float = 1.0,
        queue_depth: int | None = None,
    ) -> None:
        """Create or update a tenant's scheduling weight and queue bound.

        Unknown tenants are registered implicitly (weight 1, controller
        queue depth) on first submission, so registration is only needed to
        set non-default limits.  Updating an existing tenant keeps its
        ledger, any queued work and its scheduling pass.
        """
        depth = self.queue_depth if queue_depth is None else int(queue_depth)
        if depth < 1:
            raise ValueError("tenant queue_depth must be >= 1")
        with self._lock:
            self._scheduler.set_weight(name, weight)
            state = self._tenants.get(name)
            if state is None:
                self._tenants[name] = _TenantState(depth)
            else:
                state.queue_depth = depth

    def _tenant_locked(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            self._scheduler.set_weight(name, 1.0)
            state = _TenantState(self.queue_depth)
            self._tenants[name] = state
        return state

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        deadline: float | None = None,
        tenant: str | None = None,
        **kwargs: Any,
    ) -> concurrent.futures.Future:
        """Admit ``fn(*args, **kwargs)`` for execution, or reject it now.

        ``deadline`` is an absolute ``time.monotonic()`` instant; ``None``
        means the request waits however long it takes.  ``tenant`` names the
        admission ledger and fair-scheduling queue the request is accounted
        to (default: the shared :data:`DEFAULT_TENANT`).  Raises
        :class:`ServerDrainingError` when draining, :class:`QueueFullError`
        when the bounded queue is full.  The returned future resolves to the
        callable's result, its exception, :class:`DeadlineExceededError` if
        the deadline passed before a worker picked the request up, or
        :class:`TenantEvictedError` if the tenant was evicted first.
        """
        future: concurrent.futures.Future = concurrent.futures.Future()
        name = tenant if tenant is not None else DEFAULT_TENANT
        with self._lock:
            state = self._tenant_locked(name)
            if self._draining:
                state.rejected += 1
                raise ServerDrainingError("server is draining; not accepting new requests")
            if len(state.jobs) >= state.queue_depth:
                state.shed += 1
                raise QueueFullError(
                    f"request queue is full ({state.queue_depth} waiting); request shed"
                )
            if not state.jobs:
                # A tenant returning from idle must not spend credit it
                # accumulated while asleep: fairness is measured from *now*.
                self._scheduler.rejoin(name)
            state.jobs.append((fn, args, kwargs, deadline, future))
            state.admitted += 1
            state.in_flight += 1
            self._in_flight += 1
            self._total_queued += 1
            if len(state.jobs) > state.max_queue_depth:
                state.max_queue_depth = len(state.jobs)
            if self._total_queued > self._max_queue_depth:
                self._max_queue_depth = self._total_queued
            self._work.notify()
        return future

    # -- introspection ------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether drain has been initiated."""
        return self._draining

    def _snapshot_locked(self, state: _TenantState) -> AdmissionSnapshot:
        return AdmissionSnapshot(
            admitted=state.admitted,
            shed=state.shed,
            rejected=state.rejected,
            expired=state.expired,
            served=state.served,
            failed=state.failed,
            evicted=state.evicted,
            queue_depth=len(state.jobs),
            in_flight=state.in_flight,
            max_queue_depth=state.max_queue_depth,
            draining=self._draining,
        )

    def stats(self) -> AdmissionSnapshot:
        """A consistent controller-wide snapshot (sum of the tenant ledgers)."""
        with self._lock:
            tenants = list(self._tenants.values())
            return AdmissionSnapshot(
                admitted=sum(s.admitted for s in tenants),
                shed=sum(s.shed for s in tenants),
                rejected=sum(s.rejected for s in tenants),
                expired=sum(s.expired for s in tenants),
                served=sum(s.served for s in tenants),
                failed=sum(s.failed for s in tenants),
                evicted=sum(s.evicted for s in tenants),
                queue_depth=self._total_queued,
                in_flight=self._in_flight,
                max_queue_depth=self._max_queue_depth,
                draining=self._draining,
            )

    def tenant_stats(self, name: str) -> AdmissionSnapshot:
        """One tenant's admission ledger (a zero ledger for unknown tenants)."""
        with self._lock:
            state = self._tenants.get(name) or _TenantState(self.queue_depth)
            return self._snapshot_locked(state)

    def _payload_locked(self, name: str) -> dict[str, Any]:
        state = self._tenants.get(name) or _TenantState(self.queue_depth)
        payload = self._snapshot_locked(state).to_dict()
        payload["weight"] = self._scheduler.weights.get(name, 1.0)
        payload["queue_capacity"] = state.queue_depth
        return payload

    def tenant_payload(self, name: str) -> dict[str, Any]:
        """One tenant's ledger plus its scheduling parameters, as a dict."""
        with self._lock:
            return self._payload_locked(name)

    def all_tenant_payloads(self) -> dict[str, dict[str, Any]]:
        """Every tenant's :meth:`tenant_payload`, keyed by tenant name."""
        with self._lock:
            return {name: self._payload_locked(name) for name in sorted(self._tenants)}

    # -- eviction -----------------------------------------------------------------

    def fail_tenant(self, name: str, reason: str | None = None) -> int:
        """Fail every *queued* request of one tenant, atomically.

        Requests already executing on a worker are allowed to finish (they
        hold a live reference to whatever backend object they need);
        everything still waiting resolves to :class:`TenantEvictedError`.
        Returns the number of evicted requests.  The tenant's ledger stays
        queryable afterwards — eviction is an outcome, not an erasure.
        """
        message = reason or f"tenant {name!r} was evicted while the request was queued"
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                return 0
            evicted = list(state.jobs)
            state.jobs.clear()
            count = len(evicted)
            state.evicted += count
            state.in_flight -= count
            self._in_flight -= count
            self._total_queued -= count
            if self._in_flight == 0:
                self._idle.notify_all()
        for _fn, _args, _kwargs, _deadline, future in evicted:
            future.set_exception(TenantEvictedError(message))
        return count

    # -- lifecycle ----------------------------------------------------------------

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Stop admitting, finish every admitted request, stop the workers.

        Returns ``True`` when every admitted request completed within
        ``timeout`` seconds (``None`` waits forever).  Even on timeout the
        workers are stopped — after finishing the remaining queued work —
        so the method always leaves the controller closed; it never abandons
        a request silently (``False`` tells the caller in-flight work
        remained).  Idempotent: later calls return immediately.
        """
        with self._lock:
            already_closed = self._closed
            self._draining = True
            if not already_closed:
                deadline = None if timeout is None else time.monotonic() + timeout
                while self._in_flight > 0:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        break
                    self._idle.wait(timeout=remaining)
                drained = self._in_flight == 0
                self._closed = True
                self._stopped = True
                self._work.notify_all()
            else:
                drained = self._in_flight == 0
        if already_closed:
            return drained
        for thread in self._threads:
            thread.join(timeout=5.0)
        return drained

    def close(self) -> None:
        """Alias for :meth:`drain` with the default timeout."""
        self.drain()

    # -- workers ------------------------------------------------------------------

    def _pop_next_locked(self) -> tuple | None:
        """Pick the next job by stride scheduling (caller holds the lock)."""
        name = self._scheduler.pick(name for name, state in self._tenants.items() if state.jobs)
        if name is None:
            return None
        self._scheduler.charge(name)
        state = self._tenants[name]
        self._total_queued -= 1
        return (*state.jobs.popleft(), state)

    def _finish(self, outcome: str, state: _TenantState) -> None:
        with self._lock:
            if outcome == "served":
                state.served += 1
            elif outcome == "failed":
                state.failed += 1
            else:
                state.expired += 1
            state.in_flight -= 1
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.notify_all()

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while True:
                    job = self._pop_next_locked()
                    if job is not None:
                        break
                    if self._stopped:
                        return
                    self._work.wait(timeout=1.0)
            fn, args, kwargs, deadline, future, state = job
            if deadline is not None and time.monotonic() > deadline:
                self._finish("expired", state)
                future.set_exception(
                    DeadlineExceededError("deadline passed while the request was queued")
                )
                continue
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:  # noqa: BLE001 - relayed to the waiter
                self._finish("failed", state)
                future.set_exception(error)
            else:
                self._finish("served", state)
                future.set_result(result)
