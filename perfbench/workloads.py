"""The three benchmark workloads: how each one is set up and loaded.

Everything here drives the system through its public API only:
``XSearchDeployment.create`` with a :class:`DeploymentConfig`, the
deployment's default client, and — for ``served`` — an
:class:`XSearchServer` on loopback reached by two :class:`RemoteClient`
connections.  The engine is the unpaced in-process
:class:`SearchEngine`, so every millisecond measured is real work of the
pipeline, not a modelled sleep.

A phase returns a :class:`Phase`: per-call latencies, the replies (kept
in memory for the correctness checks and the accuracy metrics, never
printed) and the counters read around it.
"""

from __future__ import annotations

import random
import resource
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.core.deployment import (
    DEFAULT_ATTESTATION_KEY_BITS,
    DeploymentConfig,
    XSearchDeployment,
)
from repro.errors import ReproError
from repro.netserve.client import RemoteClient
from repro.netserve.server import XSearchServer
from repro.search.engine import SearchEngine
from repro.sgx.attestation import AttestationService, QuotingEnclave
from repro.sgx.sealing import SealingPlatform

#: Fake queries per search (the paper's default and every workload's).
K = 3
#: Client connections (and client threads) of the ``served`` workload.
SERVED_CONNECTIONS = 2
#: The synthetic web is the same for every run; the workload seed picks
#: the query stream and the enclave's obfuscation draws.
CORPUS_SEED = 0
#: Seed of the attestation RSA keys.  Prime search takes a different
#: amount of work for every draw; a fixed draw makes it the same work on
#: every run, so ``setup_s`` moves only when set-up itself does.
KEY_SEED = 0
#: Peak RSS is read once this many searches of a phase have completed,
#: so it covers set-up plus the same amount of work on every run.
RSS_SEARCHES = 400


@dataclass(frozen=True)
class Spec:
    """What distinguishes one workload from another."""

    name: str
    warm: int                 # logged queries ingested before timing
    limit: int                # results requested per search
    batch: int                # queries per client call
    max_workers: int = None   # None = serial deployment, no scheduler
    sealing: bool = False     # sealed-history checkpoints every 64 records
    served: bool = False      # loopback TCP server in front
    tail: int = 99            # percentile reported as latency_tail_ms


SPECS = {
    "interactive": Spec("interactive", warm=2000, limit=5, batch=1),
    "served": Spec("served", warm=2000, limit=5, batch=1, max_workers=2,
                   served=True),
    # 60 to 90 batch calls in a 34 s run: p80 is the highest percentile
    # that keeps at least ten calls beyond it.
    "bulk": Spec("bulk", warm=5000, limit=20, batch=8, max_workers=2,
                 sealing=True, tail=80),
}


class Stack:
    """One ready-to-serve system: deployment, optional server, clients."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.deployment = None
        self.server = None
        self.remotes = []
        self.phases = {}      # set-up phase name -> seconds
        self.warmed = 0

    @property
    def setup_seconds(self) -> float:
        return sum(self.phases.values())

    def close(self) -> None:
        for remote in self.remotes:
            remote.close()
        if self.server is not None:
            self.server.close()
        if self.deployment is not None:
            self.deployment.close()


def set_up(spec: Spec, seed: int, warm_queries) -> Stack:
    """Build the workload's system and time each set-up phase."""
    stack = Stack(spec)
    mark = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stack.phases[phase] = now - mark
        mark = now

    try:
        engine = SearchEngine.with_synthetic_corpus(seed=CORPUS_SEED)
        lap("corpus")
        keys = random.Random(KEY_SEED)
        service = AttestationService(DEFAULT_ATTESTATION_KEY_BITS, rng=keys)
        quoting = QuotingEnclave(DEFAULT_ATTESTATION_KEY_BITS, rng=keys)
        service.provision_platform(quoting)
        lap("attestation")
        options = {"sealing_platform": SealingPlatform()} if spec.sealing else {}
        config = DeploymentConfig(k=K, seed=seed,
                                  max_workers=spec.max_workers,
                                  proxy_options=options)
        stack.deployment = XSearchDeployment.create(
            config=config, engine=engine, attestation=(service, quoting),
        )
        if spec.served:
            stack.server = XSearchServer(stack.deployment,
                                         idle_timeout=None).start()
            for index in range(SERVED_CONNECTIONS):
                stack.remotes.append(RemoteClient(
                    stack.server.address,
                    service_public_key=service.public_key,
                    expected_measurement=stack.deployment.proxy.measurement,
                    user_id=f"bench-{index}",
                ))
        lap("connect")
        stack.warmed = stack.deployment.warm_history(warm_queries)
        lap("warm")
    except BaseException:
        stack.close()
        raise
    return stack


@dataclass
class Call:
    """One client call: its queries, latency and replies (None = failed)."""

    queries: tuple
    latency: float
    replies: list = None


@dataclass
class Phase:
    """One measured phase of a workload."""

    calls: list
    start: float                      # perf_counter at the first send
    end: float                        # perf_counter after the last reply
    cpu: float
    rss_mb: float
    errors: Counter
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def attempted(self) -> int:
        """Searches sent, which is also the queries taken from the stream."""
        return sum(len(call.queries) for call in self.calls)

    @property
    def completed(self) -> int:
        return sum(len(call.queries) for call in self.calls
                   if call.replies is not None)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Progress:
    """Completed searches of a phase, and the peak RSS at the mark."""

    def __init__(self):
        self.errors = Counter()
        self.rss_mb = None
        self._done = 0
        self._lock = threading.Lock()

    def record(self, call: "Call", error: Exception = None) -> None:
        with self._lock:
            if error is not None:
                self.errors[type(error).__name__] += 1
                return
            self._done += len(call.queries)
            if self.rss_mb is None and self._done >= RSS_SEARCHES:
                self.rss_mb = peak_rss_mb()


def counters(stack: Stack) -> dict:
    """Aggregate counters of the system at one instant."""
    proxy = stack.deployment.proxy
    stats = proxy.perf_stats()
    return {
        "boundary": proxy.enclave.boundary_snapshot(),
        "swap_cycles": proxy.enclave.epc.stats.swap_cycles,
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
        "observations": len(stack.deployment.tracking.observations),
        "busy_rebuffs": sum(r.transport.busy_rebuffs for r in stack.remotes),
    }


def run_phase(stack: Stack, queries, seconds: float, *,
              min_calls: int = 1) -> Phase:
    """Load the stack for ``seconds`` with queries taken in log order."""
    before = counters(stack)
    progress = _Progress()
    cpu0 = time.process_time()
    calls, start = _closed_loop(stack, queries, seconds, min_calls, progress)
    end = time.perf_counter()
    cpu = time.process_time() - cpu0
    return Phase(calls=calls, start=start, end=end, cpu=cpu,
                 rss_mb=progress.rss_mb or peak_rss_mb(),
                 errors=progress.errors, before=before,
                 after=counters(stack))


def _closed_loop(stack: Stack, queries, seconds: float, min_calls: int,
                 progress: _Progress):
    """Each client issues its next call as soon as its last returns.

    The clients are the ``served`` workload's remote connections, or
    else the deployment's own client, each on a thread of its own.  They
    take the next queries of the stream in turn, so with one client the
    calls are in log order.
    """
    spec = stack.spec
    clients = stack.remotes or [stack.deployment.client]
    calls = []
    failures = []
    lock = threading.Lock()
    position = 0
    start = time.perf_counter()
    deadline = start + seconds

    def take():
        nonlocal position
        with lock:
            if time.perf_counter() >= deadline and len(calls) >= min_calls:
                return None
            chunk = tuple(queries[position:position + spec.batch])
            if len(chunk) < spec.batch:
                raise RuntimeError("query stream exhausted")
            position += spec.batch
            return chunk

    def loop(client) -> None:
        try:
            while (chunk := take()) is not None:
                sent = time.perf_counter()
                error = replies = None
                try:
                    if spec.batch == 1:
                        replies = [client.search(chunk[0], limit=spec.limit)]
                    else:
                        replies = client.search_batch(chunk, limit=spec.limit)
                except ReproError as exc:
                    error = exc
                call = Call(chunk, time.perf_counter() - sent, replies)
                with lock:
                    calls.append(call)
                progress.record(call, error)
        except BaseException as exc:    # re-raised on the calling thread
            failures.append(exc)

    threads = [threading.Thread(target=loop, args=(client,),
                                name=f"bench-client-{index}")
               for index, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return calls, start
