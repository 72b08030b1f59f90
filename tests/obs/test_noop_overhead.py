"""The zero-overhead contract, as a tier-1 test.

Instrumentation must never perturb the boundary-crossing accounting the
benchmarks assert on: a deployment run uninstrumented, with the no-op
recorder, and with a live :class:`~repro.obs.TraceRecorder` must produce
bit-for-bit identical ``Enclave.boundary_snapshot()`` deltas.
(``tools/check_api.py`` enforces the same thing outside pytest.)
"""

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.obs import NullRecorder, TraceRecorder

UNINSTRUMENTED = object()


def boundary_fingerprint(recorder):
    kwargs = {} if recorder is UNINSTRUMENTED else {"recorder": recorder}
    with XSearchDeployment.create(config=DeploymentConfig(seed=11, k=2),
                                  **kwargs) as dep:
        dep.client.search("warmup query", limit=3)  # one-time connect
        before = dep.proxy.enclave.boundary_snapshot()
        for i in range(6):
            dep.client.search(f"probe query {i}", limit=3)
        dep.client.search_batch(["batch one", "batch two"], limit=3)
        delta = dep.proxy.enclave.boundary_snapshot() - before
    return {
        "ecalls": delta.ecalls,
        "ocalls": delta.ocalls,
        "ecall_counts": dict(delta.ecall_counts),
        "ocall_counts": dict(delta.ocall_counts),
        "cycles": delta.cycles,
    }


@pytest.mark.parametrize("make_recorder", [NullRecorder, TraceRecorder],
                         ids=["null-recorder", "trace-recorder"])
def test_instrumentation_leaves_boundary_deltas_untouched(make_recorder):
    assert boundary_fingerprint(make_recorder()) == boundary_fingerprint(
        UNINSTRUMENTED
    )


def test_uninstrumented_deployment_records_nothing():
    recorder = NullRecorder()
    with XSearchDeployment.create(config=DeploymentConfig(seed=11, k=2),
                                  recorder=recorder) as dep:
        dep.client.search("probe query", limit=3)
    assert recorder.traces == ()
    assert recorder.enabled is False
