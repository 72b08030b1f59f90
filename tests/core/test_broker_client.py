"""The client-side broker: attestation policy and the encrypted tunnel."""

import pytest

from repro.core.broker import Broker
from repro.core.client import XSearchClient
from repro.core.proxy import XSearchEnclaveCode, XSearchProxyHost
from repro.errors import AttestationError, ProtocolError
from repro.search.tracking import TrackingSearchEngine
from repro.sgx.attestation import AttestationService, QuotingEnclave
from repro.sgx.measurement import measure_bytes


@pytest.fixture(scope="module")
def stack(small_engine):
    service = AttestationService(1024)
    quoting_enclave = QuotingEnclave(1024)
    service.provision_platform(quoting_enclave)
    proxy = XSearchProxyHost(
        TrackingSearchEngine(small_engine),
        k=2,
        history_capacity=1000,
        quoting_enclave=quoting_enclave,
        attestation_service=service,
        rng_seed=3,
    )
    return service, proxy


def make_broker(stack, session_id, expected=None):
    service, proxy = stack
    return Broker(
        proxy,
        service_public_key=service.public_key,
        expected_measurement=expected or proxy.measurement,
        session_id=session_id,
    )


def test_connect_and_search(stack):
    broker = make_broker(stack, "b1")
    broker.connect()
    assert broker.attested
    results = broker.search("cheap hotel rome", limit=10)
    assert results
    assert all(r.title for r in results)


def test_search_before_connect_rejected(stack):
    broker = make_broker(stack, "b2")
    with pytest.raises(AttestationError):
        broker.search("q")


def test_double_connect_rejected(stack):
    broker = make_broker(stack, "b3")
    broker.connect()
    with pytest.raises(ProtocolError):
        broker.connect()


def test_wrong_expected_measurement_refuses_connection(stack):
    broker = make_broker(
        stack, "b4", expected=measure_bytes(b"the published good proxy")
    )
    with pytest.raises(AttestationError):
        broker.connect()
    assert not broker.attested
    assert not broker.is_connected


def test_ingest_feeds_history(stack):
    broker = make_broker(stack, "b5")
    broker.connect()
    assert broker.ingest(["alpha beta", "gamma delta"]) == 2


def test_client_wrapper(stack):
    broker = make_broker(stack, "b6")
    client = XSearchClient(broker, user_id="alice")
    results = client.search("  diabetes symptoms  ")
    assert results
    assert client.queries_sent == 1
    # Auto-connected on first use.
    assert broker.is_connected


def test_client_rejects_empty_query(stack):
    broker = make_broker(stack, "b7")
    client = XSearchClient(broker)
    with pytest.raises(ProtocolError):
        client.search("   ")


def test_sessions_are_isolated(stack):
    broker_a = make_broker(stack, "iso-a")
    broker_b = make_broker(stack, "iso-b")
    broker_a.connect()
    broker_b.connect()
    assert broker_a.search("hotel rome", limit=5)
    assert broker_b.search("nfl playoffs", limit=5)
