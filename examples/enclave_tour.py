#!/usr/bin/env python3
"""A tour of the SGX substrate: attestation, sealing, EPC, boundary costs.

Walks through the security machinery underneath the X-Search proxy with
the actual library objects — including what happens when a *modified*
proxy tries to get attested.

Run:  python examples/enclave_tour.py
"""

from repro.core import DeploymentConfig, XSearchDeployment
from repro.core.protocol import SearchRequest
from repro.sgx import (
    PAGE_SIZE,
    SealingPlatform,
    USABLE_EPC_BYTES,
    measure_bytes,
)
from repro.errors import AttestationError, SealingError


def main():
    deployment = XSearchDeployment.create(config=DeploymentConfig(k=2, seed=3))
    proxy = deployment.proxy
    enclave = proxy.enclave

    print("1. Measurement & attestation")
    print(f"   enclave measurement : {proxy.measurement}")
    verdict = proxy.attestation_evidence()
    print(f"   attestation verdict : {verdict.status} "
          f"(platform {verdict.quote.platform_id.hex()[:8]}…)")

    print("\n2. A client refusing a modified proxy")
    from repro.core.broker import Broker

    paranoid = Broker(
        proxy,
        service_public_key=deployment.attestation_service.public_key,
        expected_measurement=measure_bytes(b"some other enclave build"),
        session_id="paranoid",
    )
    try:
        paranoid.connect()
    except AttestationError as exc:
        print(f"   rejected as expected: {exc}")

    print("\n3. Boundary crossings are metered (the §5.3.3 bottleneck)")
    deployment.client.search("cheap hotel rome", limit=5)
    counter = enclave.counter
    print(f"   ecalls: {counter.ecalls}   ocalls: {counter.ocalls}   "
          f"transition cycles: {counter.cycles:,} "
          f"({enclave.transition_seconds() * 1e6:.1f} µs simulated)")

    print("\n4. The EPC budget (Figure 6's constraint)")
    epc = enclave.epc
    print(f"   usable EPC          : {USABLE_EPC_BYTES // (1024 * 1024)} MiB "
          f"({epc.usable_pages:,} pages of {PAGE_SIZE} B)")
    print(f"   current occupancy   : {epc.occupancy_bytes:,} B "
          f"(history + session state)")

    print("\n5. Sealing: persisting enclave state across restarts")
    platform = SealingPlatform()
    snapshot = b"serialized history snapshot"
    sealed = platform.seal(proxy.measurement, snapshot)
    print(f"   sealed {len(snapshot)} B -> {len(sealed)} B blob "
          "(only this enclave identity can unseal)")
    try:
        platform.unseal(measure_bytes(b"another enclave"), sealed)
    except SealingError as exc:
        print(f"   foreign enclave unseal rejected: {exc}")
    restored = platform.unseal(proxy.measurement, sealed)
    assert restored == snapshot
    print("   same-identity unseal: OK")


if __name__ == "__main__":
    main()
