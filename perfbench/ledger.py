"""The traced run's per-layer ledger: wrappers around each layer's calls.

:class:`Ledger` replaces public functions of each layer with timing
wrappers, at the name callers look them up by (``repro.core.proxy.
obfuscate_query``, not ``repro.core.obfuscation.obfuscate_query``), and
restores the originals afterwards.  Nothing under ``src/`` changes and
untraced runs install nothing.

Every wrapped call is a span on its thread.  A span's *self* time is its
duration minus the time of the spans nested in it on the same thread.
Self time is kept twice: thread CPU time, which the ledger sums (threads
that block on one another spend no CPU waiting, so the sum of self CPU
over every row can be compared with the process CPU of the phase), and
wall time, for the rows that are waits (queue wait, the network round
trip).  A thread-local ecall depth tells client-side channel crypto
(``broker.*``) from the same calls made inside an ecall (``enclave.*``).

Only aggregates are kept: call counts, seconds and byte counts.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: Row fields: calls, self CPU, self wall, inclusive CPU, inclusive wall.
CALLS, SELF_CPU, SELF_WALL, INCL_CPU, INCL_WALL = range(5)

#: Every row the wrappers below book into.
ROWS = (
    "broker.other", "broker.seal", "broker.open", "netserve.client",
    "wire.codec", "netserve.read", "scheduler", "proxy.host",
    "sealing.checkpoint", "sgx.boundary", "enclave.other", "enclave.open",
    "enclave.seal", "obfuscation", "gateway", "engine", "engine.parse",
    "filtering",
)


class _ThreadState:
    __slots__ = ("stack", "depth", "rows", "client_bytes", "reply_sizes",
                 "ticket_wall")

    def __init__(self):
        self.stack = []                 # [child wall, child cpu] per span
        self.depth = 0                  # ecalls in progress on this thread
        self.rows = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        self.client_bytes = 0           # channel plaintext, client side
        self.reply_sizes = []           # reply plaintext sizes, client side
        self.ticket_wall = 0.0          # proxy-host wall x tickets served


class Ledger:
    """Self-time accounting for one traced phase."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner, name: str, row, **options) -> None:
        """Replace ``owner.name`` with a wrapper booking into ``row``."""
        original = vars(owner)[name]
        setattr(owner, name, self._wrap(original, row, **options))
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, fn, row, *, enters_enclave=False, on_exit=None):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            state = ledger._state()
            name = row(state) if callable(row) else row
            frame = [0.0, 0.0]
            state.stack.append(frame)
            if enters_enclave:
                state.depth += 1
            wall0 = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu0
                wall = time.perf_counter() - wall0
                if enters_enclave:
                    state.depth -= 1
                state.stack.pop()
                acc = state.rows[name]
                acc[CALLS] += 1
                acc[SELF_CPU] += cpu - frame[1]
                acc[SELF_WALL] += wall - frame[0]
                acc[INCL_CPU] += cpu
                acc[INCL_WALL] += wall
                if state.stack:
                    parent = state.stack[-1]
                    parent[0] += wall
                    parent[1] += cpu
            if on_exit is not None:
                on_exit(state, args, result, wall)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Reading the ledger
    # ------------------------------------------------------------------
    def rows(self) -> dict:
        """Merged ``row -> [calls, self cpu, self wall, incl cpu, incl wall]``."""
        merged = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, acc in state.rows.items():
                total = merged[name]
                for index, value in enumerate(acc):
                    total[index] += value
        return dict(merged)

    def client_bytes(self) -> int:
        with self._lock:
            return sum(state.client_bytes for state in self._states)

    def reply_sizes(self) -> list:
        with self._lock:
            return [size for state in self._states
                    for size in state.reply_sizes]

    def ticket_wall(self) -> float:
        with self._lock:
            return sum(state.ticket_wall for state in self._states)


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def install_gateway(ledger: Ledger) -> None:
    """Wrap the engine gateway's ocall handlers.

    The enclave's ocall table holds bound methods taken when the enclave
    is spawned, so these wrappers go in before the deployment is built
    and stay for the whole run; they book nothing while the ledger is
    inactive.
    """
    from repro.core.gateway import EngineGateway

    for name in ("sock_connect", "send", "recv", "close"):
        ledger.patch(EngineGateway, name, "gateway")


def install_hot_path(ledger: Ledger) -> None:
    """Wrap every other layer of the search path."""
    from repro.core import proxy as proxy_module
    from repro.core.broker import Broker
    from repro.core.proxy import XSearchEnclaveCode, XSearchProxyHost
    from repro.core.scheduler import RequestScheduler
    from repro.crypto.channel import ChannelEndpoint
    from repro.netserve import wire
    from repro.netserve.client import RemoteTransport
    from repro.search.engine import SearchEngine
    from repro.sgx.runtime import Enclave

    def seal_row(state):
        return "enclave.seal" if state.depth else "broker.seal"

    def open_row(state):
        return "enclave.open" if state.depth else "broker.open"

    def count_sealed(state, args, result, wall):
        if not state.depth:
            state.client_bytes += len(args[1])

    def count_opened(state, args, result, wall):
        if not state.depth:
            state.client_bytes += len(result)
            state.reply_sizes.append(len(result))

    def tickets(weight):
        def book(state, args, result, wall):
            state.ticket_wall += wall * weight(args)
        return book

    for name in ("search", "search_batch"):
        ledger.patch(Broker, name, "broker.other")
    ledger.patch(ChannelEndpoint, "encrypt", seal_row, on_exit=count_sealed)
    ledger.patch(ChannelEndpoint, "decrypt", open_row, on_exit=count_opened)
    ledger.patch(RemoteTransport, "call", "netserve.client")
    for name in sorted(vars(wire)):
        if name.startswith(("encode_", "decode_")):
            ledger.patch(wire, name, "wire.codec")
    ledger.patch(wire, "read_frame", "netserve.read")
    for name in ("request", "request_batch"):
        ledger.patch(RequestScheduler, name, "scheduler")
    # A coalesced request_many serves one waiting ticket per record.
    ledger.patch(XSearchProxyHost, "request", "proxy.host",
                 on_exit=tickets(lambda args: 1))
    ledger.patch(XSearchProxyHost, "request_batch", "proxy.host",
                 on_exit=tickets(lambda args: 1))
    ledger.patch(XSearchProxyHost, "request_many", "proxy.host",
                 on_exit=tickets(lambda args: len(args[1])))
    ledger.patch(XSearchProxyHost, "checkpoint_now", "sealing.checkpoint")
    ledger.patch(Enclave, "call", "sgx.boundary", enters_enclave=True)
    for name, member in sorted(vars(XSearchEnclaveCode).items()):
        if getattr(member, "__sgx_ecall__", False):
            ledger.patch(XSearchEnclaveCode, name, "enclave.other")
    ledger.patch(proxy_module, "obfuscate_query", "obfuscation")
    ledger.patch(proxy_module, "filter_results", "filtering")
    ledger.patch(proxy_module, "parse_results_body", "engine.parse")
    ledger.patch(SearchEngine, "search_or", "engine")
