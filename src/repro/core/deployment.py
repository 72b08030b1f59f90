"""One-call wiring of a complete X-Search deployment (Figure 2).

Builds every premise of the adversary model: the trusted client domain
(client + broker), the untrusted cloud node (proxy host + enclave +
quoting enclave), the attestation service and the honest-but-curious
search engine — and connects them exactly the way the protocol
prescribes.  With ``DeploymentConfig(replicas=N)`` the cloud node
becomes an :class:`~repro.core.cluster.XSearchCluster`: N independent
enclave replicas behind a consistent-hash
:class:`~repro.core.cluster.SessionRouter`.

The deployment is also the recommended API surface: it is a context
manager (``with XSearchDeployment.create(...) as deployment:``) whose
exit tears the proxy (or the whole cluster) down cleanly, and
``deployment.client`` doubles as the default client *and* a factory —
``deployment.client(user_id="bob")`` mints an additional attested
client with its own broker session.

Configuration is a value, not a pile of keywords: build a frozen
:class:`DeploymentConfig` and pass
``XSearchDeployment.create(config=DeploymentConfig(k=3, seed=7))``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.broker import Broker
from repro.core.client import XSearchClient
from repro.core.cluster import (
    DEFAULT_FAILOVER_THRESHOLD,
    DEFAULT_VNODES,
    ReplicaHandle,
    XSearchCluster,
)
from repro.core.proxy import (
    DEFAULT_HISTORY_CAPACITY,
    DEFAULT_K,
    XSearchProxyHost,
)
from repro.core.retry import RetryPolicy
from repro.core.scheduler import (
    DEFAULT_COALESCE_WINDOW,
    DEFAULT_MAX_BATCH,
    RequestScheduler,
)
from repro.search.engine import SearchEngine
from repro.search.tracking import TrackingSearchEngine
from repro.sgx.attestation import AttestationService, QuotingEnclave
from repro.sgx.sealing import SealingPlatform

# 1024-bit RSA keeps simulated attestation fast; the key size is a
# deployment knob, not a protocol property (pass key_bits=2048 for the
# full-strength setup).
DEFAULT_ATTESTATION_KEY_BITS = 1024

#: Version stamp of the :class:`DeploymentConfig` schema.
CONFIG_VERSION = 1

#: ``proxy_options`` keys that :meth:`XSearchDeployment.create` sets
#: itself, mapped to the spelling that sets them instead.
_RESERVED_PROXY_OPTIONS = {
    "k": "DeploymentConfig.k",
    "history_capacity": "DeploymentConfig.history_capacity",
    "rng_seed": "DeploymentConfig.seed",
    "retry_policy": "DeploymentConfig.retry_policy",
    "fanout": "DeploymentConfig.fanout",
    "quoting_enclave": "create(attestation=...)",
    "attestation_service": "create(attestation=...)",
    "recorder": "create(recorder=...)",
    "registry": "create(registry=...)",
}


@dataclass(frozen=True)
class DeploymentConfig:
    """Everything :meth:`XSearchDeployment.create` needs, as one frozen
    value.

    ``proxy_options`` carries the :class:`XSearchProxyHost` passthroughs
    (``epc``, ``sealing_platform``, ``fault_plan``, ``cache_bytes``,
    ``pool_connections``, …) and rejects a key the deployment sets
    itself (``k``, ``fanout``, ``retry_policy``, …).
    ``replica_fault_plans`` maps a replica *index* to its own
    :class:`~repro.faults.plan.FaultPlan`, so one replica can be killed
    deterministically while the others serve.
    ``fanout=None`` resolves to the concurrent default (two engine
    connections per worker) when ``max_workers`` is set.
    """

    version: int = CONFIG_VERSION
    k: int = DEFAULT_K
    history_capacity: int = DEFAULT_HISTORY_CAPACITY
    seed: int = 0
    key_bits: int = DEFAULT_ATTESTATION_KEY_BITS
    connect: bool = True
    retry_policy: RetryPolicy = None
    max_workers: int = None
    coalesce_window: float = DEFAULT_COALESCE_WINDOW
    max_batch: int = DEFAULT_MAX_BATCH
    fanout: int = None
    replicas: int = 1
    vnodes: int = DEFAULT_VNODES
    failover_threshold: int = DEFAULT_FAILOVER_THRESHOLD
    replica_fault_plans: dict = None
    proxy_options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise ValueError(
                f"unsupported DeploymentConfig version {self.version!r} "
                f"(this build speaks version {CONFIG_VERSION})"
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.history_capacity < 1:
            raise ValueError("history_capacity must be >= 1")
        if self.replicas < 1:
            raise ValueError("a deployment needs at least one replica")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be positive (or None)")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.failover_threshold < 1:
            raise ValueError("failover_threshold must be >= 1")
        # Freeze owned copies so a caller mutating their dict afterwards
        # cannot change an already-built deployment's meaning.
        object.__setattr__(self, "proxy_options", dict(self.proxy_options))
        for key in self.proxy_options:
            if key in _RESERVED_PROXY_OPTIONS:
                raise ValueError(
                    f"proxy_options[{key!r}] is set by the deployment; "
                    f"use {_RESERVED_PROXY_OPTIONS[key]} instead"
                )
        if self.replica_fault_plans is not None:
            object.__setattr__(
                self, "replica_fault_plans", dict(self.replica_fault_plans)
            )

    @property
    def concurrent(self) -> bool:
        """Whether a :class:`RequestScheduler` fronts each replica."""
        return self.max_workers is not None

    def replace(self, **changes) -> "DeploymentConfig":
        """A copy with ``changes`` applied (the config is frozen)."""
        return dataclasses.replace(self, **changes)


class _ClientFacade:
    """What ``deployment.client`` returns: the default client, callable.

    Attribute access (``deployment.client.search(...)``) goes to the
    deployment's default client, so every pre-existing call site keeps
    working; *calling* it (``deployment.client(user_id="bob")``) mints a
    new attested client with its own broker session.  Minted clients go
    through ``deployment.frontend`` — the same scheduler (or cluster
    router) the default client uses — never straight at a proxy.  The
    default client itself is minted here too.
    """

    __slots__ = ("_deployment",)

    def __init__(self, deployment: "XSearchDeployment"):
        object.__setattr__(self, "_deployment", deployment)

    def __call__(self, *, user_id: str = "local-user",
                 session_id: str = None,
                 retry_policy: RetryPolicy = None,
                 clock=None, session_ids=None,
                 connect: bool = True) -> XSearchClient:
        deployment = object.__getattribute__(self, "_deployment")
        broker = Broker(
            deployment.frontend,
            service_public_key=deployment.attestation_service.public_key,
            expected_measurement=deployment.proxy.measurement,
            session_id=session_id,
            retry_policy=retry_policy,
            clock=clock,
            session_ids=session_ids,
            recorder=deployment.recorder,
            registry=deployment.registry,
        )
        if connect:
            broker.connect()
        return XSearchClient(broker, user_id=user_id)

    def __getattr__(self, name):
        deployment = object.__getattribute__(self, "_deployment")
        return getattr(deployment.default_client, name)

    def __setattr__(self, name, value):
        deployment = object.__getattribute__(self, "_deployment")
        setattr(deployment.default_client, name, value)

    def __repr__(self):
        deployment = object.__getattribute__(self, "_deployment")
        return f"<client facade for {deployment.default_client!r}>"


@dataclass
class XSearchDeployment:
    """A fully wired system: client ↔ broker ↔ enclave(s) ↔ engine."""

    engine: SearchEngine
    tracking: TrackingSearchEngine
    attestation_service: AttestationService
    quoting_enclave: QuotingEnclave
    proxy: XSearchProxyHost
    broker: Broker
    default_client: XSearchClient
    recorder: object = None
    registry: object = None
    scheduler: RequestScheduler = None
    cluster: XSearchCluster = None
    config: DeploymentConfig = None

    @classmethod
    def create(cls, *, config: DeploymentConfig = None,
               engine: SearchEngine = None,
               recorder=None, registry=None,
               attestation=None) -> "XSearchDeployment":
        """Stand up a complete deployment from a :class:`DeploymentConfig`.

        ``engine``, ``recorder``, ``registry`` and ``attestation`` stay
        call arguments — they are live objects, not configuration data.
        ``attestation`` is an ``(attestation_service, quoting_enclave)``
        pair, already provisioned for each other: the simulation
        harness shares one across hundreds of deployments so each run
        skips the RSA keygen (``config.key_bits`` is ignored when it is
        given).  When neither
        recorder nor registry is passed the process defaults from
        :func:`repro.obs.install` are used; ``config.seed`` drives the
        synthetic corpus and each replica's obfuscation RNG (replica
        ``i`` derives ``seed + i`` so fake-query streams are independent
        but reproducible).

        With ``config.replicas > 1`` the deployment runs a replica
        cluster: ``deployment.cluster`` holds it, ``deployment.frontend``
        is its session router, and ``deployment.proxy`` /
        ``deployment.scheduler`` keep pointing at replica 0 so existing
        single-node tooling still works.
        """
        if config is None:
            config = DeploymentConfig()
        if recorder is None and registry is None:
            from repro import obs

            recorder, registry = obs.installed()
        if engine is None:
            engine = SearchEngine.with_synthetic_corpus(seed=config.seed)
        tracking = TrackingSearchEngine(engine)

        if attestation is not None:
            attestation_service, quoting_enclave = attestation
        else:
            attestation_service = AttestationService(config.key_bits)
            quoting_enclave = QuotingEnclave(config.key_bits)
            attestation_service.provision_platform(quoting_enclave)

        shared_options = dict(config.proxy_options)
        if config.retry_policy is not None:
            shared_options["retry_policy"] = config.retry_policy
        if config.fanout is not None:
            shared_options["fanout"] = config.fanout
        elif config.max_workers is not None:
            # Concurrent mode: let the enclave fan engine queries out in
            # parallel unless the caller pinned fanout.  The pool is a
            # per-worker resource (two parallel engine connections per
            # worker, like cores × connections in a real deployment).
            shared_options["fanout"] = 2 * config.max_workers
        if config.replicas > 1:
            # Failover replays sealed checkpoints between replicas, so a
            # cluster runs on one shared sealing platform by default
            # (same simulated CPU: a real multi-machine fleet would
            # provision a shared sealing root the same way).
            shared_options.setdefault("sealing_platform", SealingPlatform())
        base_source = shared_options.pop("source", "xsearch-proxy.cloud")
        fault_plans = config.replica_fault_plans or {}

        def build_replica(index: int) -> ReplicaHandle:
            options = dict(shared_options)
            if index in fault_plans:
                options["fault_plan"] = fault_plans[index]
            proxy = XSearchProxyHost(
                tracking,
                k=config.k,
                history_capacity=config.history_capacity,
                quoting_enclave=quoting_enclave,
                attestation_service=attestation_service,
                rng_seed=(None if config.seed is None
                          else config.seed + index),
                recorder=recorder,
                registry=registry,
                source=(base_source if index == 0
                        else f"{base_source}.r{index}"),
                **options,
            )
            scheduler = None
            if config.max_workers is not None:
                scheduler = RequestScheduler(
                    proxy,
                    max_workers=config.max_workers,
                    coalesce_window=config.coalesce_window,
                    max_batch=config.max_batch,
                    recorder=recorder,
                    registry=registry,
                )
            return ReplicaHandle(f"replica-{index}", index, proxy,
                                 scheduler)

        handles = [build_replica(index)
                   for index in range(config.replicas)]
        cluster = XSearchCluster(
            handles,
            vnodes=config.vnodes,
            failover_threshold=config.failover_threshold,
            replica_factory=build_replica,
            recorder=recorder,
            registry=registry,
        )
        primary = handles[0]
        deployment = cls(
            engine=engine,
            tracking=tracking,
            attestation_service=attestation_service,
            quoting_enclave=quoting_enclave,
            proxy=primary.proxy,
            broker=None,
            default_client=None,
            recorder=recorder,
            registry=registry,
            scheduler=primary.scheduler,
            cluster=cluster,
            config=config,
        )
        deployment.default_client = deployment.client(connect=config.connect)
        deployment.broker = deployment.default_client._broker
        return deployment

    # ------------------------------------------------------------------
    # The client surface
    # ------------------------------------------------------------------
    @property
    def frontend(self):
        """What brokers talk to: the cluster's session router when more
        than one replica is deployed, otherwise the scheduler when
        concurrent mode is on (``max_workers=``), otherwise the proxy
        itself — so a single-replica deployment is byte-identical to
        previous releases."""
        if self.cluster is not None and self.cluster.size > 1:
            return self.cluster.router
        return self.scheduler if self.scheduler is not None else self.proxy

    @property
    def client(self) -> _ClientFacade:
        """The default client; call it to mint additional clients.

        ``deployment.client.search("query")`` uses the default attested
        session; ``deployment.client(user_id="bob")`` builds a new
        :class:`XSearchClient` with its own broker (fresh attestation and
        channel keys) against the same frontend.
        """
        return _ClientFacade(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the deployment down: stop every scheduler (draining its
        queue), checkpoint (when sealing is on), drain the engine
        connection pools and destroy the enclaves.  Idempotent."""
        if self.cluster is not None:
            self.cluster.close()
            return
        if self.scheduler is not None:
            self.scheduler.close()
        self.proxy.close()

    def __enter__(self) -> "XSearchDeployment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # History warm-up
    # ------------------------------------------------------------------
    def warm_history(self, queries) -> int:
        """Model other users' past traffic filling the history table."""
        return self.broker.ingest(queries)
