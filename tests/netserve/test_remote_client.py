"""RemoteClient end-to-end: same answers, same errors, over the wire."""

from __future__ import annotations

import pytest

from _helpers import make_client
from repro.errors import AuthenticationError, ProtocolError, ReproError
from repro.netserve import wire


def test_search_end_to_end(remote):
    results = remote.search("cheap hotel rome", limit=5)
    assert results
    assert remote.queries_sent == 1
    assert remote.last_degraded is False


def test_remote_matches_in_process_results(served):
    deployment, server = served
    local = deployment.client(user_id="local-twin")
    over_wire = make_client(deployment, server, user_id="remote-twin")
    try:
        query = "nba standings tonight"
        assert over_wire.search(query, limit=5) == local.search(
            query, limit=5
        )
    finally:
        over_wire.close()


@pytest.mark.parametrize("method, query", [
    ("search", "cheap hotel rome"),
    ("search_batch", ["nfl playoffs"]),
], ids=["search", "search_batch"])
def test_limit_is_keyword_only(remote, method, query):
    with pytest.raises(TypeError):
        getattr(remote, method)(query, 2)
    assert remote.queries_sent == 0


def test_search_batch_end_to_end(remote):
    queries = ["cheap hotel rome", "nfl playoffs", "diabetes symptoms"]
    batches = remote.search_batch(queries, limit=3)
    assert len(batches) == len(queries)
    assert all(isinstance(results, list) for results in batches)


def test_empty_query_rejected_client_side(remote):
    with pytest.raises(ProtocolError):
        remote.search("   ")


def test_ping_round_trips(remote):
    assert remote.ping(b"are you there") == b"are you there"


def test_server_side_error_is_rebuilt_typed(served, remote):
    """A garbage record reaches the enclave, fails authentication, and
    the typed error crosses the wire intact — connection kept."""
    remote.search("cheap hotel rome")  # establish the session
    channel = remote.broker._proxy
    with pytest.raises(ReproError) as info:
        channel.request(channel.session_id, b"not an AEAD record")
    assert isinstance(info.value, (AuthenticationError, ProtocolError))
    # The client-held channel desynchronised nothing (the record never
    # decrypted), and the TCP connection survived the typed error.
    assert remote.ping(b"alive") == b"alive"


def test_transport_counts_are_observable(remote):
    remote.search("cheap hotel rome")
    assert remote.transport.server_info["protocol"] == wire.WIRE_VERSION
    assert remote.transport.busy_rebuffs == 0
    assert remote.transport.drain_notices == 0
    assert remote.broker.reconnects == 0


def test_context_manager_closes(served):
    deployment, server = served
    with make_client(deployment, server, user_id="ctx") as client:
        assert client.search("cheap hotel rome", limit=2)
    # Closed: the next call transparently reconnects rather than failing.
    assert client.search("nfl playoffs", limit=2)
    client.close()
