"""Unit tests for the admission controller (no HTTP involved)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serving.admission import (
    AdmissionController,
    DeadlineExceededError,
    QueueFullError,
    ServerDrainingError,
)


@pytest.fixture
def controller():
    controller = AdmissionController(queue_depth=4, workers=1)
    yield controller
    controller.drain(timeout=5.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        AdmissionController(queue_depth=0)
    with pytest.raises(ValueError):
        AdmissionController(workers=0)


def test_submit_executes_and_returns_result(controller):
    assert controller.submit(lambda a, b: a + b, 19, 23).result(timeout=5.0) == 42


def test_submit_propagates_exceptions(controller):
    future = controller.submit(lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        future.result(timeout=5.0)
    assert controller.stats().failed == 1


def _block_worker(controller, gate):
    """Submit a job that occupies a worker; returns once it is executing."""
    started = threading.Event()

    def job():
        started.set()
        gate.wait(10.0)

    future = controller.submit(job)
    assert started.wait(5.0)  # the job left the queue and holds the worker
    return future


def test_full_queue_sheds():
    controller = AdmissionController(queue_depth=2, workers=1)
    try:
        gate = threading.Event()
        blocker = _block_worker(controller, gate)
        # Worker is busy on `blocker`; fill the queue, then overflow it.
        queued = [controller.submit(lambda: None) for _ in range(2)]
        with pytest.raises(QueueFullError):
            controller.submit(lambda: None)
        stats = controller.stats()
        assert stats.shed == 1
        assert stats.admitted == 3
        gate.set()
        blocker.result(timeout=5.0)
        for future in queued:
            future.result(timeout=5.0)
    finally:
        controller.drain(timeout=5.0)


def test_deadline_checked_at_dequeue():
    controller = AdmissionController(queue_depth=4, workers=1)
    try:
        gate = threading.Event()
        blocker = _block_worker(controller, gate)
        executed = []
        expired = controller.submit(
            executed.append, "ran", deadline=time.monotonic() + 0.05
        )
        time.sleep(0.15)  # deadline passes while the request waits in queue
        gate.set()
        blocker.result(timeout=5.0)
        with pytest.raises(DeadlineExceededError):
            expired.result(timeout=5.0)
        assert executed == []  # the backend was never touched
        assert controller.stats().expired == 1
    finally:
        controller.drain(timeout=5.0)


def test_generous_deadline_is_served(controller):
    future = controller.submit(lambda: "ok", deadline=time.monotonic() + 30.0)
    assert future.result(timeout=5.0) == "ok"


def test_drain_completes_every_admitted_request():
    controller = AdmissionController(queue_depth=16, workers=2)
    results = []
    lock = threading.Lock()

    def job(index):
        time.sleep(0.02)
        with lock:
            results.append(index)

    futures = [controller.submit(job, index) for index in range(10)]
    assert controller.drain(timeout=10.0) is True
    assert sorted(results) == list(range(10))
    assert all(future.done() for future in futures)
    stats = controller.stats()
    assert stats.served == 10
    assert stats.in_flight == 0


def test_draining_rejects_new_submissions():
    controller = AdmissionController(queue_depth=4, workers=1)
    controller.drain(timeout=5.0)
    with pytest.raises(ServerDrainingError):
        controller.submit(lambda: None)
    assert controller.stats().rejected == 1


def test_drain_is_idempotent():
    controller = AdmissionController(queue_depth=4, workers=1)
    assert controller.drain(timeout=5.0) is True
    assert controller.drain(timeout=5.0) is True


def test_drain_stops_worker_threads():
    controller = AdmissionController(queue_depth=4, workers=3)
    controller.submit(lambda: None).result(timeout=5.0)
    controller.drain(timeout=5.0)
    assert len(controller._threads) == 3
    assert not any(thread.is_alive() for thread in controller._threads)


def test_stats_counters_are_consistent(controller):
    for _ in range(3):
        controller.submit(lambda: None).result(timeout=5.0)
    stats = controller.stats()
    assert stats.admitted == 3
    assert stats.served == 3
    assert stats.shed == stats.rejected == stats.expired == stats.failed == 0
    assert stats.in_flight == 0
    assert stats.max_queue_depth >= 0
    assert stats.to_dict()["served"] == 3


# -- multi-tenancy ------------------------------------------------------------------


def _record_order(controller, tenant, label, order, lock):
    def job():
        with lock:
            order.append(label)
    return controller.submit(job, tenant=tenant)


def test_register_tenant_validation(controller):
    with pytest.raises(ValueError):
        controller.register_tenant("a", weight=0.0)
    with pytest.raises(ValueError):
        controller.register_tenant("a", weight=-1.0)
    with pytest.raises(ValueError, match="tenant 'a'"):
        controller.register_tenant("a", weight=float("inf"))
    with pytest.raises(ValueError):
        controller.register_tenant("a", queue_depth=0)


def test_register_tenant_update_keeps_ledger(controller):
    controller.register_tenant("a", weight=1.0)
    controller.submit(lambda: None, tenant="a").result(timeout=5.0)
    controller.register_tenant("a", weight=3.0, queue_depth=7)
    payload = controller.tenant_payload("a")
    assert payload["served"] == 1  # the ledger survived the update
    assert payload["weight"] == 3.0
    assert payload["queue_capacity"] == 7


def test_stride_scheduling_serves_tenants_by_weight():
    """Weight 2 : 1 backlogs drain in the exact stride order (a b a a b a ...)."""
    controller = AdmissionController(queue_depth=16, workers=1)
    controller.register_tenant("a", weight=2.0)
    controller.register_tenant("b", weight=1.0)
    order: list[str] = []
    lock = threading.Lock()
    try:
        gate = threading.Event()
        blocker = _block_worker(controller, gate)
        futures = [_record_order(controller, "a", "a", order, lock) for _ in range(6)]
        futures += [_record_order(controller, "b", "b", order, lock) for _ in range(3)]
        gate.set()
        blocker.result(timeout=5.0)
        for future in futures:
            future.result(timeout=5.0)
    finally:
        controller.drain(timeout=5.0)
    assert order == ["a", "b", "a", "a", "b", "a", "a", "b", "a"]


def test_fair_policy_is_fifo_for_a_single_tenant():
    controller = AdmissionController(queue_depth=16, workers=1)
    order: list[int] = []
    lock = threading.Lock()
    try:
        gate = threading.Event()
        blocker = _block_worker(controller, gate)
        futures = [_record_order(controller, "a", i, order, lock) for i in range(8)]
        gate.set()
        blocker.result(timeout=5.0)
        for future in futures:
            future.result(timeout=5.0)
    finally:
        controller.drain(timeout=5.0)
    assert order == list(range(8))


def test_idle_tenant_accrues_no_credit_while_asleep():
    """A tenant waking from idle joins at the current virtual time, not at 0."""
    controller = AdmissionController(queue_depth=32, workers=1)
    controller.register_tenant("busy", weight=1.0)
    controller.register_tenant("sleeper", weight=1.0)
    order: list[str] = []
    lock = threading.Lock()
    try:
        # The sleeper stays idle while busy burns through a long backlog...
        for _ in range(10):
            controller.submit(lambda: None, tenant="busy").result(timeout=5.0)
        gate = threading.Event()
        blocker = _block_worker(controller, gate)
        futures = [_record_order(controller, "busy", "busy", order, lock) for _ in range(4)]
        # ...then wakes with one request.  Re-synced to the global pass, it is
        # served after at most one backlogged busy request — it cannot cash in
        # the 10 turns it slept through and starve busy, nor be starved itself.
        futures.append(_record_order(controller, "sleeper", "sleeper", order, lock))
        gate.set()
        blocker.result(timeout=5.0)
        for future in futures:
            future.result(timeout=5.0)
    finally:
        controller.drain(timeout=5.0)
    assert "sleeper" in order[:2]
    assert order.count("busy") == 4


def test_fair_policy_bounds_queues_per_tenant():
    controller = AdmissionController(queue_depth=2, workers=1)
    controller.register_tenant("small", queue_depth=1)
    try:
        gate = threading.Event()
        blocker = _block_worker(controller, gate)
        held = [controller.submit(lambda: None, tenant="small")]
        with pytest.raises(QueueFullError):
            controller.submit(lambda: None, tenant="small")
        # Another tenant's queue is unaffected by small's full queue.
        held.append(controller.submit(lambda: None, tenant="roomy"))
        held.append(controller.submit(lambda: None, tenant="roomy"))
        assert controller.tenant_stats("small").shed == 1
        assert controller.tenant_stats("roomy").shed == 0
        gate.set()
        blocker.result(timeout=5.0)
        for future in held:
            future.result(timeout=5.0)
    finally:
        controller.drain(timeout=5.0)


def test_fail_tenant_evicts_queued_requests_only():
    from repro.serving.admission import TenantEvictedError

    controller = AdmissionController(queue_depth=16, workers=1)
    try:
        gate = threading.Event()
        blocker = _block_worker(controller, gate)
        doomed = [controller.submit(lambda: None, tenant="doomed") for _ in range(3)]
        other = controller.submit(lambda: "ok", tenant="other")
        assert controller.fail_tenant("doomed", reason="collection dropped") == 3
        for future in doomed:
            with pytest.raises(TenantEvictedError, match="collection dropped"):
                future.result(timeout=5.0)
        gate.set()
        blocker.result(timeout=5.0)
        assert other.result(timeout=5.0) == "ok"
        payload = controller.tenant_payload("doomed")
        assert payload["evicted"] == 3
        assert payload["admitted"] == 3
        assert payload["queue_depth"] == 0
        assert controller.tenant_stats("other").evicted == 0
        # Eviction is an outcome, not an erasure: the controller-wide ledger
        # still accounts for the evicted requests.
        assert controller.stats().evicted == 3
    finally:
        controller.drain(timeout=5.0)


def test_fail_tenant_unknown_tenant_is_a_noop(controller):
    assert controller.fail_tenant("never-seen") == 0


def test_controller_stats_are_the_sum_of_tenant_ledgers():
    controller = AdmissionController(queue_depth=2, workers=1)
    controller.register_tenant("small", queue_depth=1)
    try:
        gate = threading.Event()
        blocker = _block_worker(controller, gate)
        held = [controller.submit(lambda: None, tenant="small")]
        with pytest.raises(QueueFullError):
            controller.submit(lambda: None, tenant="small")
        held.append(controller.submit(lambda: 1 / 0, tenant="flaky"))
        held.append(
            controller.submit(lambda: None, tenant="late", deadline=time.monotonic() - 1.0)
        )
        queued = [controller.submit(lambda: None, tenant="doomed")]
        controller.fail_tenant("doomed")
        gate.set()
        blocker.result(timeout=5.0)
        for future in held[:1]:
            future.result(timeout=5.0)
        with pytest.raises(ZeroDivisionError):
            held[1].result(timeout=5.0)
        with pytest.raises(DeadlineExceededError):
            held[2].result(timeout=5.0)
        stats = controller.stats()
        payloads = controller.all_tenant_payloads()
        for counter in ("admitted", "shed", "rejected", "expired", "served",
                        "failed", "evicted", "in_flight"):
            assert getattr(stats, counter) == sum(
                payload[counter] for payload in payloads.values()
            ), counter
        # Every admitted request reached exactly one terminal outcome.
        assert stats.admitted == (
            stats.served + stats.failed + stats.expired + stats.evicted + stats.in_flight
        )
    finally:
        controller.drain(timeout=5.0)
