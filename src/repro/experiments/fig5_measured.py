"""Figure 5, measured — the one open-loop sweep runner, in process.

The original :mod:`~repro.experiments.fig5_throughput_latency` sweep
drives analytic service models (:mod:`repro.net.queueing`): useful for
the cross-system comparison, but it asserts nothing about our actual
pipeline.  The paper's Figure 5 comes from one load method — wrk2-style
open-loop arrivals, offered rate against p50/p99 latency — and this
module holds the one runner for it.  Three harnesses build different
targets and hand them to the same two loops: this module's
:func:`run_virtual`/:func:`run_wallclock` an in-process deployment
(client → broker → scheduler → enclave → engine),
:mod:`~repro.experiments.fig5_server` a loopback TCP server and
:mod:`~repro.experiments.fig5_cluster` an N-replica cluster.  Besides
the latency curve, each point records the two quantities that prove
the scheduler's coalescing works: the batch-size histogram and mean
*ecalls per request* (< 1 once batching amortises transitions).

* :func:`run_des` — **virtual mode**.  A single-threaded discrete-event
  simulation (DES) of the scheduler's policy (N workers, adaptive
  coalescing up to ``max_batch``, engine fan-out ``fanout``) in which
  every simulated batch *executes the real pipeline* — real crypto,
  real enclave, real engine — and its simulated service time is
  derived from the measured boundary-cycle delta of that execution.
  No threads, no wall clock: byte-identical results and trace digests
  for equal seeds, which is what the tier-1 tests pin.
* :func:`run_lanes` — **wall-clock mode**.  Real lanes of attested
  client sessions submitting on an open-loop schedule, latencies
  measured from *intended* send times with a
  :class:`~repro.net.clock.SystemClock`.  The engine is a
  :class:`PacedEngine` (a fixed service time per exchange, slept while
  the GIL is released) so concurrency shows up as real overlap.
  ``tools/bench_smoke.sh`` records the in-process curve at 1 and 4
  workers into ``BENCH_fig5.json``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import threading
from dataclasses import dataclass

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.scheduler import DEFAULT_COALESCE_WINDOW, DEFAULT_MAX_BATCH
from repro.net.clock import SystemClock
from repro.net.loadgen import OpenLoopLoadGenerator, saturation_rate
from repro.obs import (
    MetricsRegistry,
    NullRecorder,
    TraceRecorder,
    trace_digest,
)
from repro.search.engine import SearchEngine
from repro.sgx.runtime import DEFAULT_CLOCK_HZ

#: Simulated engine service time per exchange, seconds.  Large enough
#: to dominate Python-level jitter, small enough for a smoke run.
DEFAULT_ENGINE_LATENCY = 0.004
#: Modelled in-enclave compute per record (virtual mode), seconds.
DEFAULT_COMPUTE_PER_RECORD = 0.0002
DEFAULT_LIMIT = 5
#: Keep-up fraction for wall-clock knees.  Wall-clock runs jitter; a
#: slightly looser bound than the simulated sweeps keeps the knee
#: estimate stable across machines.
WALL_KEEP_UP = 0.9
#: The enclave entry points that serve search records.
_REQUEST_ECALLS = ("request", "request_batch", "request_many")
_QUERY_TERMS = (
    "hotel", "rome", "weather", "nba", "election", "recipe", "flight",
    "paris", "battery", "train", "cinema", "stocks", "museum", "pizza",
)


def _query_pool(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [
        f"{rng.choice(_QUERY_TERMS)} {rng.choice(_QUERY_TERMS)} {i}"
        for i in range(count)
    ]


def _schedule(rate: float, duration_seconds: float, seed: int) -> tuple:
    """One rate's open-loop arrival times and the queries they carry."""
    arrivals = OpenLoopLoadGenerator(
        rate_rps=rate, duration_seconds=duration_seconds, seed=seed,
    ).arrival_times()
    return arrivals, _query_pool(len(arrivals), seed)


class PacedEngine:
    """Wraps a :class:`SearchEngine`, charging a fixed service time per
    exchange.  ``clock.sleep`` releases the GIL, so in wall-clock mode
    concurrent fan-out/worker threads genuinely overlap their engine
    waits — the overlap Figure 5's scaling claim is about."""

    def __init__(self, engine: SearchEngine, *, latency: float,
                 clock=None):
        self._engine = engine
        self._latency = latency
        self._clock = clock if clock is not None else SystemClock()

    def search(self, query, limit):
        self._clock.sleep(self._latency)
        return self._engine.search(query, limit)

    def search_or(self, subqueries, limit):
        self._clock.sleep(self._latency)
        return self._engine.search_or(subqueries, limit)

    def __getattr__(self, name):
        return getattr(self._engine, name)


@dataclass(frozen=True)
class MeasuredPoint:
    """One measured point of the saturation curve."""

    offered_rps: float
    achieved_rps: float
    mean_latency: float
    p50_latency: float
    p99_latency: float
    requests: int
    ecalls: int
    ecalls_per_request: float
    mean_batch_size: float
    batch_histogram: dict  # batch size -> count

    def as_dict(self) -> dict:
        return {
            "offered_rps": self.offered_rps,
            "achieved_rps": round(self.achieved_rps, 3),
            "mean_latency": round(self.mean_latency, 6),
            "p50_latency": round(self.p50_latency, 6),
            "p99_latency": round(self.p99_latency, 6),
            "requests": self.requests,
            "ecalls": self.ecalls,
            "ecalls_per_request": round(self.ecalls_per_request, 4),
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_histogram": {
                str(size): count
                for size, count in sorted(self.batch_histogram.items())
            },
        }


@dataclass
class MeasuredFig5Result:
    mode: str  # "virtual", "wall", "server-virtual" or "server-wall"
    max_workers: int
    points: list
    saturation_rps: float
    trace_digest: dict = None

    def saturated_points(self) -> list:
        """Points past the knee (offered above the saturation rate)."""
        return [p for p in self.points
                if p.offered_rps > self.saturation_rps]

    def summary(self) -> dict:
        summary = {
            "mode": self.mode,
            "max_workers": self.max_workers,
            "saturation_rps": self.saturation_rps,
            "points": [point.as_dict() for point in self.points],
        }
        saturated = self.saturated_points() or self.points[-1:]
        summary["ecalls_per_request_saturated"] = round(
            sum(p.ecalls_per_request for p in saturated) / len(saturated),
            4,
        )
        if self.trace_digest is not None:
            summary["traces"] = {
                "trace_count": self.trace_digest.get("trace_count"),
                "invariants_ok": self.trace_digest.get("invariants_ok"),
            }
        return summary

    def digest(self) -> str:
        """Canonical hash of the whole result (the determinism pin)."""
        payload = {"summary": self.summary(),
                   "traces": self.trace_digest}
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _percentile(sorted_values: list, p: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(round(p / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[index]


def _achieved_rps(completions: list) -> float:
    """Steady-state completion rate: completions per second between the
    first and last finish.  An open-loop smoke run drains its whole
    backlog, so dividing by the makespan (arrival window + drain tail)
    would understate short runs; the inter-completion rate is the
    honest capacity estimate at every load level."""
    if len(completions) < 2:
        return float(len(completions))
    span = max(completions) - min(completions)
    if span <= 0:
        return float(len(completions))
    return (len(completions) - 1) / span


def _point(offered: float, latencies: list, completions: list,
           ecalls: int, batch_sizes: list) -> MeasuredPoint:
    ordered = sorted(latencies)
    histogram = {}
    for size in batch_sizes:
        histogram[size] = histogram.get(size, 0) + 1
    count = len(latencies)
    return MeasuredPoint(
        offered_rps=offered,
        achieved_rps=_achieved_rps(completions),
        mean_latency=sum(ordered) / count if count else 0.0,
        p50_latency=_percentile(ordered, 50.0),
        p99_latency=_percentile(ordered, 99.0),
        requests=count,
        ecalls=ecalls,
        ecalls_per_request=ecalls / count if count else 0.0,
        mean_batch_size=(sum(batch_sizes) / len(batch_sizes)
                         if batch_sizes else 0.0),
        batch_histogram=histogram,
    )


# ----------------------------------------------------------------------
# Virtual mode: deterministic discrete-event sweep over the real pipeline
# ----------------------------------------------------------------------
def run_des(enclave, search_batch, *, max_workers: int, rates,
            duration_seconds: float, seed: int, limit: int,
            max_batch: int, fanout, engine_latency: float,
            compute_per_record: float, clock_hz: float) -> list:
    """One :class:`MeasuredPoint` per rate, from a DES of the scheduler.

    Each simulated batch is really executed (``search_batch(queries,
    limit=limit)`` through ``enclave``), and its simulated service
    time is

    ``boundary_cycles / clock_hz  +  compute_per_record × B
    + engine_latency × ceil(B / fanout)``

    — the measured transition cost of that very batch, the modelled
    enclave compute, and the batch's engine exchanges divided across
    ``fanout`` parallel connections (``None``: two per worker).
    Workers, arrivals and coalescing follow
    :class:`~repro.core.scheduler.RequestScheduler` semantics: a freed
    worker takes the whole backlog up to ``max_batch``, so one ecall
    covers B requests exactly when load is highest.
    """
    if fanout is None:
        fanout = 2 * max_workers   # the deployment's concurrent default
    points = []
    for rate in rates:
        arrivals, queries = _schedule(rate, duration_seconds, seed)
        workers = [0.0] * max_workers
        heapq.heapify(workers)
        latencies = []
        completions = []
        batch_sizes = []
        ecalls_before = enclave.boundary_snapshot().ecalls
        index = 0
        while index < len(arrivals):
            free_at = heapq.heappop(workers)
            start = max(free_at, arrivals[index])
            batch = [index]
            index += 1
            while (index < len(arrivals)
                   and len(batch) < max_batch
                   and arrivals[index] <= start):
                batch.append(index)
                index += 1
            size = len(batch)
            before = enclave.boundary_snapshot().cycles
            search_batch([queries[j] for j in batch], limit=limit)
            cycles = enclave.boundary_snapshot().cycles - before
            sends = -(-size // fanout)  # ceil
            service = (cycles / clock_hz
                       + compute_per_record * size
                       + engine_latency * sends)
            done = start + service
            for j in batch:
                latencies.append(done - arrivals[j])
                completions.append(done)
            batch_sizes.append(size)
            heapq.heappush(workers, done)
        ecalls = enclave.boundary_snapshot().ecalls - ecalls_before
        points.append(_point(rate, latencies, completions,
                             ecalls, batch_sizes))
    return points


# ----------------------------------------------------------------------
# Wall-clock mode: real lanes under real open-loop load
# ----------------------------------------------------------------------
class _Lane:
    """One submitter lane: its own attested client session, serving its
    round-robin share of the arrival schedule in order (a wrk2
    connection).  Latency is measured from the *intended* send time."""

    def __init__(self, client, arrivals, queries, limit, clock, epoch):
        self._client = client
        self._arrivals = arrivals
        self._queries = queries
        self._limit = limit
        self._clock = clock
        self._epoch = epoch
        self.latencies = []
        self.completions = []
        self.errors = 0

    def run(self) -> None:
        for intended, query in zip(self._arrivals, self._queries):
            now = self._clock.time() - self._epoch
            if now < intended:
                self._clock.sleep(intended - now)
            try:
                self._client.search(query, limit=self._limit)
            except Exception:
                self.errors += 1
                continue
            done = self._clock.time() - self._epoch
            self.latencies.append(done - intended)
            self.completions.append(done)


def _request_ecalls(enclaves, before) -> int:
    """Search-serving ecalls each enclave took since its ``before``
    boundary snapshot, summed."""
    total = 0
    for enclave, snapshot in zip(enclaves, before):
        delta = enclave.boundary_snapshot() - snapshot
        total += sum(count for name, count in delta.ecall_counts.items()
                     if name in _REQUEST_ECALLS)
    return total


def _batch_totals(registry) -> tuple:
    """``(batches, records)`` the deployment's schedulers have executed
    so far, read from the shared metrics registry."""
    if registry is None:
        return 0, 0
    return tuple(getattr(registry.get(name), "value", 0)
                 for name in ("scheduler.batches", "scheduler.submitted"))


def run_lanes(deployment, clients, enclaves, *, rates,
              duration_seconds: float, seed: int, limit: int) -> list:
    """One :class:`MeasuredPoint` per rate, from live open-loop lanes.

    Each rate's arrivals are dealt round-robin over ``clients`` (one
    lane thread each); ecalls are counted on ``enclaves`` and batch
    sizes read from ``deployment.registry``'s scheduler counters.
    """
    clock = SystemClock()
    count = len(clients)
    points = []
    for rate in rates:
        arrivals, queries = _schedule(rate, duration_seconds, seed)
        before = [enclave.boundary_snapshot() for enclave in enclaves]
        totals_before = _batch_totals(deployment.registry)
        epoch = clock.time()
        lanes = [
            _Lane(client, arrivals[i::count], queries[i::count], limit,
                  clock, epoch)
            for i, client in enumerate(clients)
            if arrivals[i::count]
        ]
        threads = [
            threading.Thread(target=lane.run, name=f"fig5-lane-{i}",
                             daemon=True)
            for i, lane in enumerate(lanes)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Per-batch sizes are not kept; the rate's mean batch size,
        # once per batch, reconstructs its histogram from the deltas.
        totals = _batch_totals(deployment.registry)
        batches = totals[0] - totals_before[0]
        records = totals[1] - totals_before[1]
        batch_sizes = [max(1, round(records / max(batches, 1)))] * batches
        latencies = [value for lane in lanes for value in lane.latencies]
        completions = [done for lane in lanes for done in lane.completions]
        points.append(_point(rate, latencies, completions,
                             _request_ecalls(enclaves, before),
                             batch_sizes))
    return points


# ----------------------------------------------------------------------
# The in-process target
# ----------------------------------------------------------------------
def run_virtual(*, max_workers: int = 4, rates=(50, 100, 200, 400, 800),
                duration_seconds: float = 1.0, seed: int = 0,
                k: int = 3, limit: int = DEFAULT_LIMIT,
                max_batch: int = DEFAULT_MAX_BATCH,
                fanout: int = None,
                engine_latency: float = DEFAULT_ENGINE_LATENCY,
                compute_per_record: float = DEFAULT_COMPUTE_PER_RECORD,
                clock_hz: float = DEFAULT_CLOCK_HZ) -> MeasuredFig5Result:
    """Deterministic saturation sweep: the :func:`run_des` model over
    an in-process deployment, each batch through
    ``broker.search_batch``."""
    recorder = TraceRecorder()
    config = DeploymentConfig(seed=seed, k=k)
    with XSearchDeployment.create(config=config,
                                  recorder=recorder) as deployment:
        points = run_des(
            deployment.proxy.enclave, deployment.broker.search_batch,
            max_workers=max_workers, rates=rates,
            duration_seconds=duration_seconds, seed=seed, limit=limit,
            max_batch=max_batch, fanout=fanout,
            engine_latency=engine_latency,
            compute_per_record=compute_per_record, clock_hz=clock_hz,
        )
    return MeasuredFig5Result(
        mode="virtual",
        max_workers=max_workers,
        points=points,
        saturation_rps=saturation_rate(points),
        trace_digest=trace_digest(recorder),
    )


def run_wallclock(*, max_workers: int = 4,
                  rates=(15, 30, 60, 120, 240, 420),
                  duration_seconds: float = 0.4, seed: int = 0,
                  k: int = 2, limit: int = 1,
                  max_batch: int = DEFAULT_MAX_BATCH,
                  coalesce_window: float = DEFAULT_COALESCE_WINDOW,
                  lanes: int = 16,
                  engine_latency: float = 0.04,
                  ) -> MeasuredFig5Result:
    """Measured saturation sweep against the live concurrent pipeline.

    Builds a real ``max_workers`` deployment over a paced engine and
    drives it with ``lanes`` concurrent client sessions on an open-loop
    schedule.  Wall-clock numbers — not deterministic; the committed
    artefact records them alongside the virtual mode's pinned curve.
    """
    engine = PacedEngine(SearchEngine.with_synthetic_corpus(seed=seed),
                         latency=engine_latency)
    config = DeploymentConfig(
        seed=seed, k=k, max_workers=max_workers,
        coalesce_window=coalesce_window, max_batch=max_batch,
    )
    with XSearchDeployment.create(
        config=config, engine=engine,
        recorder=NullRecorder(), registry=MetricsRegistry(),
    ) as deployment:
        clients = [deployment.client(user_id=f"lane-{i}")
                   for i in range(lanes)]
        points = run_lanes(
            deployment, clients, [deployment.proxy.enclave],
            rates=rates, duration_seconds=duration_seconds, seed=seed,
            limit=limit,
        )
    return MeasuredFig5Result(
        mode="wall",
        max_workers=max_workers,
        points=points,
        saturation_rps=saturation_rate(points,
                                       keep_up_fraction=WALL_KEEP_UP),
    )


def format_table(result: MeasuredFig5Result) -> str:
    lines = [
        f"measured Figure 5 — {result.mode} mode, "
        f"{result.max_workers} worker(s), knee at "
        f"{result.saturation_rps:,.0f} req/s",
        "  offered req/s   achieved req/s   p50 (ms)   p99 (ms)"
        "   ecalls/req   mean batch",
    ]
    for point in result.points:
        lines.append(
            f"  {point.offered_rps:>13,.0f}   {point.achieved_rps:>14,.1f}"
            f"   {point.p50_latency * 1e3:>8.2f}"
            f"   {point.p99_latency * 1e3:>8.2f}"
            f"   {point.ecalls_per_request:>10.3f}"
            f"   {point.mean_batch_size:>10.2f}"
        )
    return "\n".join(lines)


def main() -> MeasuredFig5Result:  # pragma: no cover - CLI entry
    result = run_virtual()
    print(format_table(result))
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
