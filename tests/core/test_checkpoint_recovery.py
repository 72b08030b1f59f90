"""Crash-and-restart recovery: checkpoints, respawn, degraded mode.

Everything here drives the real stack through a seeded FaultPlan — no
monkeypatching — and asserts the recovery invariants: the respawned
enclave carries the same measurement, the history comes back exactly as
checkpointed, and clients heal transparently.
"""

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.errors import EnclaveError, EnclaveLostError, TransientError
from repro.faults import (
    ENGINE_SITES,
    KIND_CRASH,
    KIND_DROP,
    KIND_GARBLE,
    KIND_PRESSURE,
    KIND_REFUSE,
    KIND_TIMEOUT,
    KIND_TRANSIENT,
    FaultPlan,
    SITE_ATTESTATION,
    SITE_ECALL,
    SITE_ENGINE_RECV,
    SITE_ENGINE_SEND,
    SITE_EPC,
)
from repro.sgx.sealing import SealingPlatform


def faulty_deployment(plan, *, connect=True):
    return XSearchDeployment.create(config=DeploymentConfig(
        seed=11, k=2, connect=connect,
        proxy_options={"fault_plan": plan,
                       "sealing_platform": SealingPlatform(),
                       "checkpoint_interval": 2},
    ))


# ----------------------------------------------------------------------
# Periodic checkpoints
# ----------------------------------------------------------------------
def test_periodic_checkpoint_tracks_request_volume():
    deployment = faulty_deployment(FaultPlan(seed=0))
    with deployment:
        assert deployment.proxy.checkpoint_count == 0
        deployment.client.search("first probe", limit=5)
        deployment.client.search("second probe", limit=5)
        assert deployment.proxy.checkpoint_count == 1
        assert deployment.proxy.last_checkpoint_entries == 2
        deployment.client.search("third probe", limit=5)
        deployment.client.search("fourth probe", limit=5)
        assert deployment.proxy.checkpoint_count == 2
        assert deployment.proxy.last_checkpoint_entries == 4
    # close() takes a final checkpoint on top of the periodic ones.
    assert deployment.proxy.checkpoint_count == 3


def test_no_sealing_platform_means_no_checkpointing():
    deployment = XSearchDeployment.create(config=DeploymentConfig(
        seed=11, proxy_options={"fault_plan": FaultPlan()}))
    with deployment:
        deployment.client.search("probe", limit=5)
        assert deployment.proxy.checkpoint_count == 0


# ----------------------------------------------------------------------
# Crash → respawn → restore
# ----------------------------------------------------------------------
def test_crash_respawn_restores_checkpointed_history():
    plan = FaultPlan(seed=0)
    deployment = faulty_deployment(plan)
    with deployment:
        proxy = deployment.proxy
        measurement_before = proxy.measurement
        deployment.client.search("query one", limit=5)
        deployment.client.search("query two", limit=5)
        assert proxy.checkpoint_count == 1

        plan.trigger(SITE_ECALL, KIND_CRASH)
        results = deployment.client.search("query three", limit=5)

        # The request was served: the broker healed behind the scenes.
        assert isinstance(results, list)
        assert proxy.respawn_count == 1
        assert deployment.broker.reconnects == 1
        # Same code + same config = same measurement: clients re-attest
        # against the identity they already trust.
        assert proxy.measurement == measurement_before
        # The sealed checkpoint (2 entries) came back in full.
        assert proxy.last_restore_expected == 2
        assert proxy.last_restore_count == 2


def test_crash_without_checkpoint_restarts_empty_but_alive():
    plan = FaultPlan(seed=0)
    deployment = XSearchDeployment.create(config=DeploymentConfig(
        seed=11, proxy_options={"fault_plan": plan}))
    with deployment:
        deployment.client.search("warmup", limit=5)
        plan.trigger(SITE_ECALL, KIND_CRASH)
        results = deployment.client.search("after crash", limit=5)
        assert isinstance(results, list)
        assert deployment.proxy.respawn_count == 1
        assert deployment.proxy.last_restore_count is None


def test_destroyed_enclave_raises_the_transient_loss_error():
    deployment = XSearchDeployment.create(config=DeploymentConfig(seed=11))
    deployment.proxy.enclave.destroy()
    with pytest.raises(EnclaveLostError):
        deployment.proxy.enclave.call("perf_stats")
    # ...which is still an EnclaveError for legacy handlers.
    assert issubclass(EnclaveLostError, EnclaveError)
    assert issubclass(EnclaveLostError, TransientError)


def test_closed_host_refuses_work_and_close_is_idempotent():
    deployment = faulty_deployment(FaultPlan(seed=0))
    deployment.client.search("before close", limit=5)
    deployment.close()
    deployment.close()
    with pytest.raises(EnclaveError):
        deployment.proxy.perf_stats()


# ----------------------------------------------------------------------
# Engine-leg faults: retry absorbs, degraded mode backstops
# ----------------------------------------------------------------------
@pytest.mark.parametrize("site,kind", [
    (SITE_ENGINE_SEND, KIND_DROP),
    (SITE_ENGINE_SEND, KIND_TIMEOUT),
    (SITE_ENGINE_RECV, KIND_GARBLE),
    (SITE_ENGINE_RECV, KIND_DROP),
])
def test_single_transport_fault_is_absorbed_by_retry(site, kind):
    plan = FaultPlan(seed=0)
    deployment = faulty_deployment(plan)
    with deployment:
        baseline = deployment.client.search("stable query", limit=5)
        plan.trigger(site, kind)
        retried = deployment.client.search("stable query", limit=5)
        # Serving recovered on a fresh connection — live, not degraded.
        assert not deployment.client.last_degraded
        assert retried == baseline


def test_outage_serves_degraded_from_cache_then_recovers():
    plan = FaultPlan(seed=0)
    deployment = faulty_deployment(plan)
    with deployment:
        live = deployment.client.search("repeated query", limit=5)
        assert not deployment.client.last_degraded

        handles = [plan.block(site, KIND_REFUSE) for site in ENGINE_SITES]
        stale = deployment.client.search("repeated query", limit=5)
        assert deployment.client.last_degraded
        assert stale == live
        stats = deployment.proxy.perf_stats()
        assert stats["degraded_hits"] == 1
        assert stats["engine_retries"] >= 1

        for handle in handles:
            plan.unblock(handle)
        fresh = deployment.client.search("repeated query", limit=5)
        assert not deployment.client.last_degraded
        assert fresh == live


def test_outage_with_cold_cache_fails_with_engine_unavailable():
    from repro.errors import EngineUnavailableError

    plan = FaultPlan(seed=0)
    deployment = faulty_deployment(plan)
    with deployment:
        for site in ENGINE_SITES:
            plan.block(site, KIND_REFUSE)
        with pytest.raises(EngineUnavailableError):
            deployment.client.search("never seen before", limit=5)
        assert deployment.proxy.perf_stats()["engine_failures"] == 1


# ----------------------------------------------------------------------
# EPC pressure and attestation transients
# ----------------------------------------------------------------------
def test_epc_pressure_degrades_performance_not_correctness():
    plan = FaultPlan(seed=0)
    deployment = faulty_deployment(plan)
    with deployment:
        baseline = deployment.client.search("pressure probe", limit=5)
        epc = deployment.proxy.enclave.epc
        swaps_before = epc.stats.swap_events
        plan.trigger(SITE_EPC, KIND_PRESSURE)
        after = deployment.client.search("pressure probe", limit=5)
        assert after == baseline  # contents intact
        assert epc.stats.swap_events > swaps_before  # but pages paid EWB


def test_attestation_transient_is_retried_by_connect():
    plan = FaultPlan(seed=0)
    plan.trigger(SITE_ATTESTATION, KIND_TRANSIENT)
    deployment = faulty_deployment(plan, connect=False)
    with deployment:
        deployment.broker.connect()  # absorbs the injected transient
        assert deployment.broker.attested
        results = deployment.client.search("attested query", limit=5)
        assert isinstance(results, list)


def test_attestation_outage_exhausts_and_surfaces():
    from repro.errors import RetryExhaustedError

    plan = FaultPlan(seed=0)
    plan.block(SITE_ATTESTATION, KIND_TRANSIENT)
    deployment = faulty_deployment(plan, connect=False)
    with deployment:
        with pytest.raises(RetryExhaustedError):
            deployment.broker.connect()
