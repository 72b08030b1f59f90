"""The client-side query broker (paper §4.2).

The broker "runs within the client's domain, such as a local daemon
process executing alongside the client's Web browser" and is in charge of
the SGX attestation step.  Before sending a single query it:

1. obtains the signed attestation verdict for the proxy's enclave;
2. verifies the attestation-service signature, the enclave measurement
   against the published X-Search measurement, and that the quote binds
   the channel key it is about to use;
3. establishes the encrypted tunnel whose end point lives inside the
   enclave.

Only then do queries flow: broker encrypts → enclave decrypts, executes,
encrypts results → broker decrypts and hands them to the web client.

Fault tolerance: when a request dies because the enclave was lost
(:class:`~repro.errors.EnclaveLostError`), the broker *heals* — it
re-attests the respawned enclave (same expected measurement; a swapped
binary still fails verification), performs a fresh handshake under a new
session id, re-encrypts the request under the new channel keys and
retries, all under its :class:`~repro.core.retry.RetryPolicy`.  Transient
attestation-service hiccups during ``connect()`` are retried the same
way.
"""

from __future__ import annotations

import secrets

from repro.core.protocol import Ack, IngestRequest, SearchRequest, SearchResponse
from repro.core.proxy import XSearchProxyHost
from repro.core.retry import (
    DEFAULT_BROKER_RETRY,
    RetryPolicy,
    call_with_retry,
)
from repro.crypto.channel import HandshakeInitiator
from repro.errors import (
    AttestationError,
    EnclaveLostError,
    ProtocolError,
    RetryExhaustedError,
    TransientError,
)
from repro.obs.tracing import PLACEMENT_CLIENT, event, span
from repro.sim import hooks
from repro.sgx.attestation import RemoteVerifier, report_data_for_key
from repro.sgx.measurement import Measurement

DEFAULT_LIMIT = 20


class Broker:
    """The local daemon mediating between a web client and the proxy.

    ``retry_policy`` is the default recovery policy for the query path
    (enclave-loss heal-and-retry); individual calls may override it.
    ``clock`` is injectable so tests drive backoff on a virtual clock,
    and ``session_ids`` is an injectable id factory (used for the
    initial session and every heal) so deterministic simulations can
    pin the whole session-id stream; production brokers keep the
    cryptographically random default.
    """

    #: Whether the most recent response was served in degraded mode.
    last_degraded = False

    def __init__(self, proxy: XSearchProxyHost, *,
                 service_public_key,
                 expected_measurement: Measurement,
                 session_id: str = None,
                 retry_policy: RetryPolicy = None,
                 clock=None, session_ids=None,
                 recorder=None, registry=None):
        self._recorder = recorder
        self._registry = registry
        self._verifier = RemoteVerifier(service_public_key, expected_measurement)
        self._session_ids = session_ids
        self._session_id = (
            session_id if session_id is not None
            else self._mint_session_id()
        )
        # Against a cluster router the broker binds a per-session channel:
        # every call is routed to the replica its session is pinned to
        # (and, after a failover, to the survivor that inherited it).
        self._router = proxy if hasattr(proxy, "for_session") else None
        self._proxy = (
            self._router.for_session(self._session_id)
            if self._router is not None else proxy
        )
        self._endpoint = None
        self._retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_BROKER_RETRY
        )
        self._clock = clock
        self.attested = False
        self.reconnects = 0
        self.last_degraded = False

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------
    def connect(self, *, retry_policy: RetryPolicy = None) -> None:
        """Attest the proxy and establish the encrypted tunnel.

        Transient attestation failures (the quoting service being briefly
        unreachable) are retried under ``retry_policy`` (defaults to the
        broker's policy); a *verification* failure — wrong measurement,
        bad signature — is never retried.
        """
        if self._endpoint is not None:
            raise ProtocolError("broker is already connected")
        policy = retry_policy if retry_policy is not None else self._retry_policy
        with span(self._recorder, "broker.connect",
                  placement=PLACEMENT_CLIENT,
                  **{"retry.max_attempts": policy.max_attempts}):
            call_with_retry(
                self._connect_once,
                policy=policy,
                clock=self._clock,
                retry_on=(TransientError,),
                on_retry=self._on_connect_retry,
            )

    def _connect_once(self) -> None:
        verdict = self._proxy.attestation_evidence()
        enclave_public = self._proxy.channel_public()
        self._verifier.verify(
            verdict,
            expected_report_data=report_data_for_key(enclave_public),
        )
        self.attested = True

        initiator = HandshakeInitiator()
        confirmation = self._proxy.begin_session(
            self._session_id, initiator.hello()
        )
        endpoint = initiator.finish(enclave_public)
        # Key confirmation closes the handshake's splice window: if the
        # enclave that accepted the session is not the one whose public
        # value we keyed against (it crashed, respawned or failed over
        # between the two calls), the tags disagree and we restart the
        # handshake cleanly instead of wedging the session with
        # mismatched keys on its first record.
        if not endpoint.matches_confirmation(
            confirmation, self._session_id.encode("utf-8")
        ):
            self.attested = False
            raise EnclaveLostError(
                "handshake was spliced across enclave generations "
                "(key confirmation failed); restarting attestation"
            )
        self._endpoint = endpoint
        event(self._recorder, "broker.attested")

    def _on_connect_retry(self, attempt: int, exc: Exception) -> None:
        event(self._recorder, "retry", attempt=attempt,
              error=type(exc).__name__)
        self._reset_session_for_retry(exc)

    def _on_heal_connect_retry(self, attempt: int, exc: Exception) -> None:
        # The heal's inner connect loop is a *nested* retry with its own
        # policy; its events are named "connect.retry" so a trace's
        # "retry" events stay countable against the root span's budget.
        event(self._recorder, "connect.retry", attempt=attempt,
              error=type(exc).__name__)
        self._reset_session_for_retry(exc)

    def _reset_session_for_retry(self, exc: Exception) -> None:
        if isinstance(exc, EnclaveLostError):
            # The session id may be half-established on some enclave (or
            # pinned to a dead replica); restart under a fresh id so the
            # retried handshake starts from a clean slate.
            self._session_id = self._mint_session_id()
            if self._router is not None:
                self._proxy = self._router.for_session(self._session_id)

    def _mint_session_id(self) -> str:
        if self._session_ids is not None:
            return self._session_ids()
        return secrets.token_hex(8)

    def _heal(self, attempt: int, exc: Exception) -> None:
        """Recover from an enclave loss between retry attempts.

        The respawned enclave has fresh channel keys and an empty session
        table, so the broker re-attests (verifying the measurement did
        not change), opens a new session id and derives new keys.  Runs
        under the connect-time retry policy so an attestation transient
        during recovery does not kill the heal.
        """
        hooks.step("broker.heal", attempt=attempt)
        self._endpoint = None
        self.attested = False
        self._session_id = self._mint_session_id()
        if self._router is not None:
            # Re-route under the new session id: if the old replica was
            # retired the consistent-hash ring now lands this session on
            # a survivor (which absorbed the dead replica's checkpoint).
            self._proxy = self._router.for_session(self._session_id)
        self.reconnects += 1
        event(self._recorder, "retry", attempt=attempt,
              error=type(exc).__name__)
        event(self._recorder, "broker.heal", attempt=attempt)
        if self._registry is not None:
            self._registry.counter("broker.heals").inc()
        call_with_retry(
            self._connect_once,
            policy=self._retry_policy,
            clock=self._clock,
            retry_on=(TransientError,),
            on_retry=self._on_heal_connect_retry,
        )

    @property
    def is_connected(self) -> bool:
        return self._endpoint is not None

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def search(self, query: str, *, limit: int = DEFAULT_LIMIT,
               timeout: float = None,
               retry_policy: RetryPolicy = None) -> list:
        """Privately execute one web search; returns filtered results.

        ``limit``, ``timeout`` and ``retry_policy`` are keyword-only:
        ``timeout`` bounds the total time spent including retries,
        ``retry_policy`` overrides the broker's enclave-loss recovery
        policy for this call.  Whether the response was served degraded
        (engine down, last-known results) is exposed as
        :attr:`last_degraded`.
        """
        policy = retry_policy if retry_policy is not None else self._retry_policy
        with span(self._recorder, "broker.search",
                  placement=PLACEMENT_CLIENT, limit=limit,
                  query_bytes=len(query.encode("utf-8")),
                  **{"retry.max_attempts": policy.max_attempts}) as root:
            with self._latency_timer("latency.broker.search"):
                response = self._request_with_recovery(
                    lambda endpoint: SearchRequest(query, limit).encode(),
                    timeout=timeout, retry_policy=policy,
                )
            decoded = SearchResponse.decode(response)
            self.last_degraded = decoded.degraded
            root.set(
                outcome="degraded" if decoded.degraded else "reply",
                degraded=decoded.degraded,
                result_count=len(decoded.results),
            )
            return list(decoded.results)

    def search_batch(self, queries, *, limit: int = DEFAULT_LIMIT,
                     timeout: float = None,
                     retry_policy: RetryPolicy = None) -> list:
        """Execute several searches in one batched proxy round trip.

        All records ride a single ``request_batch`` ecall, so the enclave
        transition cost is amortised over the batch (the proxy's hot-path
        optimisation); each query is still individually encrypted and
        individually obfuscated inside the enclave.  Returns one result
        list per query, in order.  An empty batch returns ``[]`` without
        touching the proxy at all.
        """
        queries = list(queries)
        if not queries:
            return []
        policy = retry_policy if retry_policy is not None else self._retry_policy
        deadline = self._deadline(timeout)

        def attempt():
            endpoint = self._require_connected()
            records = [
                endpoint.encrypt(SearchRequest(query, limit).encode())
                for query in queries
            ]
            replies = self._proxy.request_batch(
                [(self._session_id, record) for record in records]
            )
            if len(replies) != len(records):
                raise ProtocolError("proxy returned a mis-sized batch reply")
            return [endpoint.decrypt(reply) for reply in replies]

        with span(self._recorder, "broker.search_batch",
                  placement=PLACEMENT_CLIENT, limit=limit,
                  batch_size=len(queries),
                  **{"retry.max_attempts": policy.max_attempts}) as root:
            with self._latency_timer("latency.broker.search_batch"):
                plaintexts = self._recover(
                    attempt, policy=policy, deadline=deadline,
                )
            decoded = [SearchResponse.decode(p) for p in plaintexts]
            self.last_degraded = any(d.degraded for d in decoded)
            root.set(
                outcome="degraded" if self.last_degraded else "reply",
                degraded=self.last_degraded,
                degraded_count=sum(1 for d in decoded if d.degraded),
            )
            return [list(d.results) for d in decoded]

    def ingest(self, queries, *, timeout: float = None,
               retry_policy: RetryPolicy = None) -> int:
        """Feed a batch of real queries into the proxy history.

        Used by simulations to model the traffic of many other users; a
        production broker does not expose this to the web client.
        """
        queries = tuple(queries)
        policy = retry_policy if retry_policy is not None else self._retry_policy
        with span(self._recorder, "broker.ingest",
                  placement=PLACEMENT_CLIENT, batch_size=len(queries),
                  **{"retry.max_attempts": policy.max_attempts}) as root:
            with self._latency_timer("latency.broker.ingest"):
                reply = self._request_with_recovery(
                    lambda endpoint: IngestRequest(queries).encode(),
                    timeout=timeout, retry_policy=policy,
                )
            count = Ack.decode(reply).count
            root.set(outcome="reply", degraded=False, ingested=count)
            return count

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _request_with_recovery(self, build_plaintext, *, timeout,
                               retry_policy):
        """One request → decrypted reply bytes, healing enclave losses.

        The plaintext is rebuilt and re-encrypted on every attempt: the
        channel nonces are counters and a heal swaps the keys entirely,
        so a captured ciphertext must never be replayed.
        """
        policy = retry_policy if retry_policy is not None else self._retry_policy
        deadline = self._deadline(timeout)

        def attempt():
            endpoint = self._require_connected()
            record = endpoint.encrypt(build_plaintext(endpoint))
            reply = self._proxy.request(self._session_id, record)
            return endpoint.decrypt(reply)

        return self._recover(
            attempt, policy=policy, deadline=deadline,
        )

    def _recover(self, attempt, *, policy, deadline):
        """Run one query attempt under the heal-on-enclave-loss policy.

        When even the heals run out, the session is abandoned outright:
        the final failed attempt consumed channel nonces the enclave
        never saw, so keeping the endpoint would wedge every later call
        on an authentication failure.  Dropping it makes the next call
        start from a clean attested handshake instead.
        """
        try:
            return call_with_retry(
                attempt, policy=policy, clock=self._clock,
                retry_on=(EnclaveLostError,), deadline=deadline,
                on_retry=self._heal,
            )
        except RetryExhaustedError as exc:
            if isinstance(exc.last_cause, EnclaveLostError):
                self._endpoint = None
                self.attested = False
                self._session_id = self._mint_session_id()
                if self._router is not None:
                    self._proxy = self._router.for_session(self._session_id)
            raise

    def _latency_timer(self, name: str):
        """A metrics timer for one broker operation (inert without a
        registry — the clock is not even resolved)."""
        from repro.obs.metrics import timer

        if self._registry is None:
            return timer(None, name, None)
        clock = self._clock
        if clock is None:
            from repro.core.retry import _SYSTEM_CLOCK
            clock = _SYSTEM_CLOCK
        return timer(self._registry, name, clock)

    def _deadline(self, timeout):
        if timeout is None:
            return None
        clock = self._clock
        if clock is None:
            from repro.core.retry import _SYSTEM_CLOCK
            clock = _SYSTEM_CLOCK
        return clock.time() + timeout

    def _require_connected(self):
        if self._endpoint is None:
            raise AttestationError(
                "broker is not connected: call connect() (attestation) first"
            )
        return self._endpoint
