"""RequestScheduler: coalescing, single-flight dedup, per-session FIFO,
failure isolation and shutdown semantics.

The policy tests run against a scripted fake proxy (deterministic, no
threads inside), the integration tests against a real deployment in
concurrent mode.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.scheduler import RequestScheduler
from repro.errors import EnclaveError, EngineUnavailableError, ReproError
from repro.obs import MetricsRegistry


class FakeProxy:
    """Scripted proxy: records every call, optional gate to hold the
    first call open so a backlog builds behind it, optional per-record
    failures keyed by session id."""

    def __init__(self, *, fail_sessions=(), gate=None):
        self.calls = []
        self.fail_sessions = set(fail_sessions)
        self.gate = gate            # threading.Event the first call waits on
        self._gated_once = False
        self._lock = threading.Lock()
        self.closed = False

    def _maybe_wait(self):
        with self._lock:
            first = not self._gated_once
            self._gated_once = True
        if first and self.gate is not None:
            assert self.gate.wait(timeout=5.0)

    def request(self, session_id, record):
        with self._lock:
            self.calls.append(("request", ((session_id, record),)))
        self._maybe_wait()
        if session_id in self.fail_sessions:
            raise EngineUnavailableError(f"scripted failure: {session_id}")
        return b"reply:" + record

    def request_batch(self, batch):
        batch = tuple(batch)
        with self._lock:
            self.calls.append(("request_batch", batch))
        self._maybe_wait()
        for session_id, _ in batch:
            if session_id in self.fail_sessions:
                raise EngineUnavailableError(
                    f"scripted failure: {session_id}"
                )
        return tuple(b"reply:" + record for _, record in batch)

    def request_many(self, batch):
        batch = tuple(batch)
        with self._lock:
            self.calls.append(("request_many", batch))
        self._maybe_wait()
        entries = []
        for session_id, record in batch:
            if session_id in self.fail_sessions:
                entries.append(
                    ("err",
                     EngineUnavailableError(
                         f"scripted failure: {session_id}"))
                )
            else:
                entries.append(("ok", b"reply:" + record))
        return tuple(entries)

    def close(self):
        self.closed = True

    def measurement(self):
        return b"fake-measurement"


def records_of(proxy, method):
    return [call for name, call in proxy.calls if name == method]


def test_light_load_is_a_plain_request_ecall():
    proxy = FakeProxy()
    with RequestScheduler(proxy, max_workers=2,
                          coalesce_window=0.0) as scheduler:
        reply = scheduler.request("s1", b"r1")
    assert reply == b"reply:r1"
    assert [name for name, _ in proxy.calls] == ["request"]


def test_backlog_coalesces_into_one_request_many_ecall():
    gate = threading.Event()
    proxy = FakeProxy(gate=gate)
    scheduler = RequestScheduler(proxy, max_workers=1, coalesce_window=0.0)
    results = {}

    def submit(sid, record):
        results[sid] = scheduler.request(sid, record)

    threads = [threading.Thread(target=submit, args=("s0", b"head"))]
    threads[0].start()
    while not proxy.calls:          # head request is inside the proxy
        pass
    for i in range(1, 5):
        thread = threading.Thread(target=submit,
                                  args=(f"s{i}", b"record%d" % i))
        thread.start()
        threads.append(thread)
    while len(scheduler._queue) < 4:
        pass
    gate.set()
    for thread in threads:
        thread.join(timeout=5.0)
    scheduler.close()
    assert results["s0"] == b"reply:head"
    assert all(results[f"s{i}"] == b"reply:record%d" % i
               for i in range(1, 5))
    many = records_of(proxy, "request_many")
    assert len(many) == 1 and len(many[0]) == 4


def test_per_record_failure_hits_only_the_failing_session():
    gate = threading.Event()
    proxy = FakeProxy(gate=gate, fail_sessions=("bad",))
    scheduler = RequestScheduler(proxy, max_workers=1, coalesce_window=0.0)
    outcomes = {}

    def submit(sid, record):
        try:
            outcomes[sid] = scheduler.request(sid, record)
        except ReproError as exc:
            outcomes[sid] = exc

    head = threading.Thread(target=submit, args=("head", b"h"))
    head.start()
    while not proxy.calls:
        pass
    threads = [threading.Thread(target=submit, args=(sid, b"x"))
               for sid in ("good-1", "bad", "good-2")]
    for thread in threads:
        thread.start()
    while len(scheduler._queue) < 3:
        pass
    gate.set()
    for thread in [head] + threads:
        thread.join(timeout=5.0)
    scheduler.close()
    assert outcomes["good-1"] == b"reply:x"
    assert outcomes["good-2"] == b"reply:x"
    assert isinstance(outcomes["bad"], EngineUnavailableError)


def test_single_flight_dedup_is_scoped_to_one_session():
    gate = threading.Event()
    registry = MetricsRegistry()
    proxy = FakeProxy(gate=gate)
    scheduler = RequestScheduler(proxy, max_workers=1,
                                 coalesce_window=0.0, registry=registry)
    results = []

    def submit(sid):
        results.append(scheduler.request(sid, b"same-bytes"))

    head = threading.Thread(target=submit, args=("head",))
    head.start()
    while not proxy.calls:
        pass
    # Same session + same record twice -> one queued execution shared;
    # another session with identical bytes -> its own record.
    threads = [threading.Thread(target=submit, args=(sid,))
               for sid in ("alice", "alice", "bob")]
    for thread in threads:
        thread.start()
    while registry.counter("scheduler.dedup_hits").value < 1:
        pass
    while len(scheduler._queue) < 2:
        pass
    gate.set()
    for thread in [head] + threads:
        thread.join(timeout=5.0)
    scheduler.close()
    assert len(results) == 4
    many = records_of(proxy, "request_many")
    assert len(many) == 1
    # alice's duplicate was absorbed; bob's identical bytes were NOT
    # merged across sessions.
    assert sorted(sid for sid, _ in many[0]) == ["alice", "bob"]
    assert registry.counter("scheduler.dedup_hits").value == 1


def test_preformed_batch_executes_alone_with_batch_semantics():
    gate = threading.Event()
    proxy = FakeProxy(gate=gate)
    scheduler = RequestScheduler(proxy, max_workers=1, coalesce_window=0.0)
    outcomes = {}

    def submit_single(sid):
        outcomes[sid] = scheduler.request(sid, b"solo")

    def submit_batch():
        outcomes["batch"] = scheduler.request_batch(
            [("tenant", b"b1"), ("tenant", b"b2")]
        )

    head = threading.Thread(target=submit_single, args=("head",))
    head.start()
    while not proxy.calls:
        pass
    threads = [threading.Thread(target=submit_batch),
               threading.Thread(target=submit_single, args=("other",))]
    for thread in threads:
        thread.start()
    while len(scheduler._queue) < 2:
        pass
    gate.set()
    for thread in [head] + threads:
        thread.join(timeout=5.0)
    scheduler.close()
    assert outcomes["batch"] == (b"reply:b1", b"reply:b2")
    assert outcomes["other"] == b"reply:solo"
    # The pre-formed batch crossed in its own request_batch transition,
    # never merged with the queued single.
    batches = records_of(proxy, "request_batch")
    assert len(batches) == 1
    assert [record for _, record in batches[0]] == [b"b1", b"b2"]


def test_per_session_fifo_keeps_submission_order():
    gate = threading.Event()
    proxy = FakeProxy(gate=gate)
    scheduler = RequestScheduler(proxy, max_workers=4, coalesce_window=0.0)
    order = []
    lock = threading.Lock()

    def submit(record):
        reply = scheduler.request("one-session", record)
        with lock:
            order.append(reply)

    head = threading.Thread(target=submit, args=(b"first",))
    head.start()
    while not proxy.calls:
        pass
    rest = [threading.Thread(target=submit, args=(b"second",)),
            ]
    rest[0].start()
    while not scheduler._queue:
        pass
    gate.set()
    for thread in [head] + rest:
        thread.join(timeout=5.0)
    scheduler.close()
    crossed = [record for _, call in proxy.calls for _, record in
               (call if isinstance(call[0], tuple) else ())]
    assert crossed == [b"first", b"second"]


def test_close_rejects_new_work():
    proxy = FakeProxy()
    scheduler = RequestScheduler(proxy, max_workers=1)
    scheduler.close()
    with pytest.raises(EnclaveError):
        scheduler.request("s", b"r")
    scheduler.close()               # idempotent
    assert not proxy.closed
    scheduler.close(close_proxy=True)
    assert proxy.closed


def test_non_queue_calls_forward_to_the_proxy():
    proxy = FakeProxy()
    with RequestScheduler(proxy, max_workers=1) as scheduler:
        assert scheduler.measurement() == b"fake-measurement"


def test_parameter_validation():
    proxy = FakeProxy()
    with pytest.raises(ValueError):
        RequestScheduler(proxy, max_workers=0)
    with pytest.raises(ValueError):
        RequestScheduler(proxy, max_batch=0)
    with pytest.raises(ValueError):
        RequestScheduler(proxy, coalesce_window=-1.0)
    with pytest.raises(ValueError):
        RequestScheduler(proxy, queue_capacity=0)


# ----------------------------------------------------------------------
# Integration: the real pipeline in concurrent mode
# ----------------------------------------------------------------------
def test_concurrent_deployment_serves_many_clients():
    config = DeploymentConfig(seed=5, k=2, max_workers=3, max_batch=4)
    with XSearchDeployment.create(config=config) as deployment:
        assert deployment.scheduler is not None
        assert deployment.frontend is deployment.scheduler
        clients = [deployment.client(user_id=f"user-{i}")
                   for i in range(6)]
        results = {}
        errors = []

        def go(index, client):
            try:
                results[index] = client.search(
                    f"measured query {index}", limit=3
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=go, args=(i, client))
                   for i, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(results) == 6


def test_default_deployment_has_no_scheduler():
    with XSearchDeployment.create(
            config=DeploymentConfig(seed=5, k=2)) as deployment:
        assert deployment.scheduler is None
        assert deployment.frontend is deployment.proxy
