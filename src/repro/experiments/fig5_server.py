"""Figure 5 over the wire — the loopback network serving harness.

:mod:`repro.experiments.fig5_measured` proved the concurrent scheduler
scales *in process*; this harness repeats the exercise with the full
network serving layer in the loop: client → TCP socket →
:class:`~repro.netserve.server.XSearchServer` → scheduler → enclave →
engine.  The delta between the two harnesses is the cost of the wire —
framing, syscalls, per-connection reader threads — and the acceptance
gate in ``tools/bench_smoke.sh`` pins it: the 4-worker knee over real
sockets must stay within 30% of the in-process knee.

Both modes run through the one sweep runner of ``fig5_measured``:

* **virtual mode** (:func:`run_virtual`) — the same single-threaded
  discrete-event sweep, except every simulated batch executes through
  a real :class:`~repro.netserve.client.RemoteClient` over a loopback
  socket (real frames, real server dispatch, real crypto/enclave), on
  a :class:`~repro.net.clock.VirtualClock` for every protocol wait.
  Requests run serially, so the trace digest is deterministic:
  byte-identical for equal seeds, which the tier-1 tests pin.
* **wall-clock mode** (:func:`run_wallclock`) — real lanes of
  :class:`RemoteClient` sessions on an open-loop schedule against a
  paced engine, the knee measured exactly as in process.
"""

from __future__ import annotations

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.scheduler import DEFAULT_COALESCE_WINDOW, DEFAULT_MAX_BATCH
from repro.experiments.fig5_measured import (
    DEFAULT_COMPUTE_PER_RECORD,
    DEFAULT_ENGINE_LATENCY,
    DEFAULT_LIMIT,
    WALL_KEEP_UP,
    MeasuredFig5Result,
    PacedEngine,
    format_table,
    run_des,
    run_lanes,
)
from repro.net.clock import VirtualClock
from repro.net.loadgen import saturation_rate
from repro.netserve.client import RemoteClient
from repro.netserve.server import XSearchServer
from repro.obs import (
    MetricsRegistry,
    NullRecorder,
    TraceRecorder,
    trace_digest,
)
from repro.search.engine import SearchEngine
from repro.sgx.runtime import DEFAULT_CLOCK_HZ

__all__ = ["run_virtual", "run_wallclock", "format_table"]


def _remote_client(deployment, server, **options) -> RemoteClient:
    return RemoteClient(
        server.address,
        service_public_key=deployment.attestation_service.public_key,
        expected_measurement=deployment.proxy.measurement,
        busy_retries=8, **options,
    )


def run_virtual(*, max_workers: int = 4, rates=(50, 100, 200, 400, 800),
                duration_seconds: float = 1.0, seed: int = 0,
                k: int = 3, limit: int = DEFAULT_LIMIT,
                max_batch: int = DEFAULT_MAX_BATCH,
                fanout: int = None,
                engine_latency: float = DEFAULT_ENGINE_LATENCY,
                compute_per_record: float = DEFAULT_COMPUTE_PER_RECORD,
                clock_hz: float = DEFAULT_CLOCK_HZ) -> MeasuredFig5Result:
    """Deterministic saturation sweep with the wire in the pipeline.

    The discrete-event model is
    :func:`repro.experiments.fig5_measured.run_des`;
    the executed pipeline additionally crosses the loopback socket and
    the server's dispatch path, so the pinned trace digest covers the
    serving layer's spans too.
    """
    if fanout is None:
        fanout = 2 * max_workers
    recorder = TraceRecorder()
    config = DeploymentConfig(seed=seed, k=k,
                              proxy_options={"fanout": fanout})
    with XSearchDeployment.create(config=config,
                                  recorder=recorder) as deployment, \
            XSearchServer(deployment, idle_timeout=None,
                          recorder=recorder) as server, \
            _remote_client(deployment, server, user_id="fig5-virtual",
                           clock=VirtualClock(),
                           recorder=recorder) as client:
        points = run_des(
            deployment.proxy.enclave, client.search_batch,
            max_workers=max_workers, rates=rates,
            duration_seconds=duration_seconds, seed=seed, limit=limit,
            max_batch=max_batch, fanout=fanout,
            engine_latency=engine_latency,
            compute_per_record=compute_per_record, clock_hz=clock_hz,
        )
    return MeasuredFig5Result(
        mode="server-virtual",
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
    """Measured saturation sweep through real loopback sockets.

    The same lanes, rates, paced engine and open-loop accounting as
    :func:`repro.experiments.fig5_measured.run_wallclock`, with every
    lane a :class:`RemoteClient` on its own TCP connection, so the two
    harnesses' knees are directly comparable.
    """
    engine = PacedEngine(SearchEngine.with_synthetic_corpus(seed=seed),
                         latency=engine_latency)
    registry = MetricsRegistry()
    recorder = NullRecorder()
    config = DeploymentConfig(
        seed=seed, k=k, max_workers=max_workers,
        coalesce_window=coalesce_window, max_batch=max_batch,
    )
    with XSearchDeployment.create(
        config=config, engine=engine,
        recorder=recorder, registry=registry,
    ) as deployment, XSearchServer(deployment,
                                   max_connections=lanes + 4,
                                   idle_timeout=None,
                                   recorder=recorder,
                                   registry=registry) as server:
        clients = [
            _remote_client(deployment, server, user_id=f"lane-{i}",
                           recorder=recorder, registry=registry)
            for i in range(lanes)
        ]
        points = run_lanes(
            deployment, clients, [deployment.proxy.enclave],
            rates=rates, duration_seconds=duration_seconds, seed=seed,
            limit=limit,
        )
        for client in clients:
            client.close()
    return MeasuredFig5Result(
        mode="server-wall",
        max_workers=max_workers,
        points=points,
        saturation_rps=saturation_rate(points,
                                       keep_up_fraction=WALL_KEEP_UP),
    )


def main() -> MeasuredFig5Result:  # pragma: no cover - CLI entry
    result = run_virtual()
    print(format_table(result))
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
