#!/usr/bin/env python
"""Guard the public API surface of ``repro.core`` and ``repro.obs``.

The deployment/client facade is the contract downstream code programs
against; this script fails (exit 1) if a public name disappears, if the
uniform call surface loses one of its keyword options, or if a removed
spelling (pre-config ``create`` keywords, positional ``limit``,
``new_broker``) comes back.  It also enforces the observability
layer's zero-overhead promise: a deployment instrumented with the no-op
recorder (or a live ``TraceRecorder``) must produce bit-for-bit the same
``Enclave.boundary_snapshot()`` deltas as an uninstrumented one.  Run it
after any refactor:

    PYTHONPATH=src python tools/check_api.py
"""

from __future__ import annotations

import inspect
import sys

# Names importable from repro.core, forever.
EXPECTED_CORE_NAMES = [
    "QueryHistory",
    "obfuscate_query",
    "ObfuscatedQuery",
    "filter_results",
    "score_result",
    "ScoredResult",
    "SearchRequest",
    "SearchResponse",
    "IngestRequest",
    "Ack",
    "XSearchEnclaveCode",
    "XSearchProxyHost",
    "EngineGateway",
    "Broker",
    "XSearchClient",
    "XSearchDeployment",
    "SealedHistoryStore",
    "snapshot_history",
    "restore_history",
    "DEFAULT_K",
    "DEFAULT_HISTORY_CAPACITY",
    "RetryPolicy",
    "call_with_retry",
    "NO_RETRY",
    "DEFAULT_ENGINE_RETRY",
    "DEFAULT_BROKER_RETRY",
    "RequestScheduler",
    "DeploymentConfig",
    "CONFIG_VERSION",
    "XSearchCluster",
    "SessionRouter",
    "ReplicaHandle",
    "HashRing",
    "DEFAULT_VNODES",
    "DEFAULT_FAILOVER_THRESHOLD",
]

# method -> keyword-only parameters the uniform surface promises (and
# no ``*args``: ``limit`` is never positional).
EXPECTED_CALL_SURFACE = {
    "XSearchClient.search": {"limit", "timeout", "retry_policy"},
    "XSearchClient.search_batch": {"limit", "timeout", "retry_policy"},
    "Broker.search": {"limit", "timeout", "retry_policy"},
    "Broker.search_batch": {"limit", "timeout", "retry_policy"},
}

# The exact keyword set of XSearchDeployment.create: configuration goes
# in the config, the rest are live objects.
EXPECTED_CREATE_PARAMS = ["config", "engine", "recorder", "registry",
                          "attestation"]

# Attributes/methods the facade must keep exposing.
EXPECTED_ATTRS = {
    "XSearchDeployment": ["create", "close", "__enter__", "__exit__",
                          "client", "warm_history"],
    "XSearchProxyHost": ["request", "request_batch", "request_many",
                         "close", "checkpoint_now", "seal_history",
                         "restore_history", "attestation_evidence",
                         "perf_stats", "measurement"],
    "Broker": ["connect", "search", "search_batch", "ingest",
               "is_connected", "last_degraded"],
    "RequestScheduler": ["request", "request_batch", "close",
                         "__enter__", "__exit__"],
    "DeploymentConfig": ["replace", "concurrent"],
    "XSearchCluster": ["frontend", "replicas", "size", "measurement",
                       "replica", "healthy_replicas", "kill_replica",
                       "add_replica", "remove_replica", "close",
                       "__enter__", "__exit__"],
    "SessionRouter": ["for_session", "replica_for", "pinned",
                      "sessions_on", "ring_map", "healthy_ids",
                      "state_of", "failover", "request",
                      "request_batch", "request_many", "begin_session",
                      "attestation_evidence", "measurement"],
    "HashRing": ["add", "remove", "route", "members"],
}

# Names importable from repro.obs, forever.
EXPECTED_OBS_NAMES = [
    "TraceRecorder",
    "NullRecorder",
    "Span",
    "SpanEvent",
    "Trace",
    "span",
    "event",
    "PLACEMENT_CLIENT",
    "PLACEMENT_HOST",
    "PLACEMENT_ENCLAVE",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "timer",
    "TraceChecker",
    "TraceViolation",
    "outcome_of",
    "OUTCOME_REPLY",
    "OUTCOME_DEGRADED",
    "OUTCOME_ERROR",
    "ProfileSession",
    "build_digest",
    "trace_digest",
    "metrics_digest",
    "attach_digest",
    "install",
    "installed",
]

EXPECTED_OBS_ATTRS = {
    "TraceRecorder": ["span", "event", "traces", "reset",
                      "dropped_traces", "enabled"],
    "NullRecorder": ["span", "event", "traces", "reset", "enabled"],
    "MetricsRegistry": ["counter", "gauge", "histogram", "timer",
                        "get", "names", "as_dict", "reset"],
    "TraceChecker": ["check", "check_recorder", "assert_ok"],
    "ProfileSession": ["__enter__", "__exit__", "digest", "attach"],
}

# Names importable from repro.analysis, forever (the xlint contract:
# tools/xlint.py, CI and third-party checkers all program against it).
EXPECTED_ANALYSIS_NAMES = [
    # adversary-model comparison
    "SystemModel",
    "SYSTEM_MODELS",
    "dominates",
    "ranked_by_privacy",
    "format_comparison_table",
    "uninformed_guess_rate",
    "obfuscation_never_hurts",
    # xlint
    "FINDING_SCHEMA_VERSION",
    "Finding",
    "Baseline",
    "load_baseline",
    "save_baseline",
    "sort_findings",
    "Checker",
    "CheckResult",
    "LintContext",
    "register_checker",
    "all_checkers",
    "get_checker",
    "run_checks",
    "ModuleGraph",
    "SourceModule",
    "BRIDGE_MODULES",
    "classify",
    "placement_of",
    "verify_registry",
    # dataflow/taint engine (XT rules)
    "TaintEngine",
    "TaintFlow",
    "FunctionSummary",
    "analyze",
    "TAINT_PLAINTEXT",
    "TAINT_KEY",
    "TAINT_NONCE",
    "TAINT_KINDS",
]

# Names importable from repro.analysis.dataflow, forever (the taint
# policy surface: registry tables third-party checkers extend and the
# engine entry points the dataflow checker drives).
EXPECTED_DATAFLOW_NAMES = [
    "analyze",
    "TaintEngine",
    "TaintFlow",
    "FunctionSummary",
    "Label",
    "SOURCE_CALLS",
    "SOURCE_ATTRIBUTES",
    "SOURCE_PARAMS",
    "DECLASSIFIER_CALLS",
    "ENCRYPT_NONCE_POSITIONS",
    "is_safe_attribute",
    "is_log_call",
]

#: The XT rule catalogue the dataflow checker must keep publishing
#: (waivers, baselines and CI greps reference these ids).
EXPECTED_XT_RULES = ["XT001", "XT002", "XT003", "XT004", "XT005"]

EXPECTED_ANALYSIS_ATTRS = {
    "Finding": ["fingerprint", "location", "to_dict", "from_dict",
                "render"],
    "Baseline": ["split", "to_dict", "from_dict", "__contains__"],
    "Checker": ["check", "finding", "id", "description", "rules"],
    "CheckResult": ["ok", "exit_code", "to_dict", "to_json", "to_text"],
    "ModuleGraph": ["from_root", "from_modules", "resolve_import",
                    "imports_of", "importers_of"],
    "SourceModule": ["from_source", "from_file", "import_statements"],
}

#: Every JSON finding must carry exactly these fields (the machine
#: contract CI and editors parse).
EXPECTED_FINDING_FIELDS = {
    "checker", "code", "path", "line", "column", "message", "hint",
    "module", "severity",
}

# Names importable from repro.netserve, forever (the serving contract:
# remote deployments, the bench harness and third-party clients program
# against it).
EXPECTED_NETSERVE_NAMES = [
    "Frame",
    "MAX_FRAME_BYTES",
    "RemoteClient",
    "RemoteFrontend",
    "RemoteTransport",
    "WIRE_VERSION",
    "XSearchServer",
]

#: Frame-type ids are pinned on the wire: a deployed server and a newer
#: client (or vice versa) must keep agreeing on what header byte 5 means.
#: Renumbering is a protocol break and requires a WIRE_VERSION bump.
EXPECTED_FRAME_TYPES = {
    "T_HELLO": 1,
    "T_WELCOME": 2,
    "T_ATTEST": 3,
    "T_ATTEST_OK": 4,
    "T_SESSION": 5,
    "T_SESSION_OK": 6,
    "T_SEARCH": 7,
    "T_SEARCH_BATCH": 8,
    "T_REPLY": 9,
    "T_REPLY_DEGRADED": 10,
    "T_ERROR": 11,
    "T_BUSY": 12,
    "T_PING": 13,
    "T_PONG": 14,
    "T_GOODBYE": 15,
}

EXPECTED_NETSERVE_ATTRS = {
    "XSearchServer": ["start", "close", "address",
                      "__enter__", "__exit__"],
    "RemoteClient": ["search", "search_batch", "ping", "close",
                     "broker", "transport", "user_id", "queries_sent",
                     "last_degraded", "__enter__", "__exit__"],
    "RemoteTransport": ["call", "ping", "close", "address",
                        "server_info"],
    "RemoteFrontend": ["for_session"],
}

# Names importable from repro.sim, forever (the DST harness surface:
# tools/simexplore.py, CI and the sim test suite program against it).
EXPECTED_SIM_NAMES = [
    "hooks",
    "step",
    "sim_wait",
    "SimAwareLock",
    "SimScheduler",
    "SimError",
    "SimDeadlockError",
    "SimTrace",
    "WorldSpec",
    "SimReport",
    "run_sim",
    "chaos_schedule",
    "ExploreResult",
    "shrink",
    "INVARIANTS",
    "MUTATIONS",
    "apply_mutation",
]

EXPECTED_SIM_ATTRS = {
    "SimScheduler": ["spawn", "run", "on_step", "manages_current",
                     "schedule", "events"],
    "WorldSpec": ["replace", "seed", "interleaving", "replicas",
                  "clients", "ops_per_client", "chaos", "mutation"],
    "SimReport": ["ok", "digest", "violations", "schedule",
                  "to_artifact"],
}


def check_finding_schema(problems: list) -> None:
    """The JSON finding contract: exact field set, stable version."""
    from repro.analysis import FINDING_SCHEMA_VERSION, Finding

    sample = Finding(checker="boundary", code="XB001", path="x.py",
                     line=1, message="m")
    fields = set(sample.to_dict())
    if fields != EXPECTED_FINDING_FIELDS:
        problems.append(
            f"finding JSON fields changed: {sorted(fields)} != "
            f"{sorted(EXPECTED_FINDING_FIELDS)} — bump "
            f"FINDING_SCHEMA_VERSION and update consumers"
        )
    if FINDING_SCHEMA_VERSION != 1:
        problems.append(
            "FINDING_SCHEMA_VERSION changed — update this guard "
            "alongside every JSON consumer"
        )


def check_registered_checkers(problems: list) -> None:
    """The five shipped checkers stay registered under their ids."""
    from repro.analysis import all_checkers

    ids = sorted(checker.id for checker in all_checkers())
    expected = ["boundary", "dataflow", "determinism", "locks", "taxonomy"]
    if not set(expected) <= set(ids):
        problems.append(
            f"built-in checkers missing: have {ids}, need {expected}"
        )


def check_dataflow_surface(problems: list) -> None:
    """The taint-engine contract: the policy/engine names and the XT
    rule catalogue stay stable (CI greps for XT ids, waivers reference
    them, and the registry tables are the documented extension point)."""
    import repro.analysis.dataflow as dataflow
    from repro.analysis import get_checker

    for name in EXPECTED_DATAFLOW_NAMES:
        if not hasattr(dataflow, name):
            problems.append(f"repro.analysis.dataflow.{name} is gone")
        if name not in getattr(dataflow, "__all__", ()):
            problems.append(
                f"repro.analysis.dataflow.__all__ no longer lists {name!r}"
            )

    checker = get_checker("dataflow")
    missing = [code for code in EXPECTED_XT_RULES
               if code not in checker.rules]
    if missing:
        problems.append(
            f"dataflow checker lost XT rule(s): {missing} "
            f"(published: {sorted(checker.rules)})"
        )


def check_scheduler_surface(problems: list) -> None:
    """The concurrent-mode contract: the config's scheduler fields and
    the scheduler's own tunables stay available."""
    import dataclasses

    from repro.core import DeploymentConfig, RequestScheduler

    config_fields = {f.name for f in dataclasses.fields(DeploymentConfig)}
    for keyword in ("max_workers", "coalesce_window", "max_batch"):
        if keyword not in config_fields:
            problems.append(
                f"DeploymentConfig lost field {keyword!r}"
            )
    init_params = inspect.signature(RequestScheduler.__init__).parameters
    for keyword in ("max_workers", "coalesce_window", "max_batch",
                    "queue_capacity"):
        if keyword not in init_params:
            problems.append(f"RequestScheduler lost keyword {keyword!r}")


def check_deployment_config_surface(problems: list) -> None:
    """The config-facade contract: ``create`` accepts a frozen
    :class:`DeploymentConfig` and nothing else configures it (a
    pre-config keyword is a ``TypeError``), ``limit`` is keyword-only,
    and the cluster surface is uniform (``deployment.cluster`` exists
    even at one replica; ``deployment.frontend`` is the session router
    exactly when there is more than one)."""
    import warnings

    from repro.core import DeploymentConfig, XSearchDeployment
    from repro.faults import FaultPlan

    params = list(inspect.signature(XSearchDeployment.create).parameters)
    if params != EXPECTED_CREATE_PARAMS:
        problems.append(
            f"XSearchDeployment.create takes {params}, expected exactly "
            f"{EXPECTED_CREATE_PARAMS}"
        )
    if hasattr(XSearchDeployment, "new_broker"):
        problems.append("removed XSearchDeployment.new_broker is back; "
                        "mint clients with deployment.client(...)")
    # Removed pre-config keywords: a plain TypeError, nothing built.
    for legacy in ({"k": 2}, {"fault_plan": FaultPlan()}):
        try:
            XSearchDeployment.create(**legacy).close()
        except TypeError:
            pass
        else:
            problems.append(
                f"XSearchDeployment.create({next(iter(legacy))}=...) is "
                f"accepted again; configuration goes in DeploymentConfig"
            )

    # The config path: preserved config, uniform cluster, no warning.
    config = DeploymentConfig(seed=11, k=2, history_capacity=64,
                              max_workers=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with XSearchDeployment.create(config=config) as deployment:
            if deployment.config != config:
                problems.append(
                    "create(config=...) does not preserve the config: "
                    f"{deployment.config!r} != {config!r}"
                )
            if deployment.cluster is None or deployment.cluster.size != 1:
                problems.append(
                    "deployment.cluster is not uniform at replicas=1"
                )
            if deployment.frontend is not deployment.scheduler:
                problems.append(
                    "single-replica concurrent frontend is no longer "
                    "the scheduler"
                )
            # Removed positional limit: a plain TypeError.
            for target in (deployment.default_client, deployment.broker):
                try:
                    target.search("probe query", 5)
                except TypeError:
                    pass
                else:
                    problems.append(
                        f"{type(target).__name__}.search accepts a "
                        f"positional limit again"
                    )
    if any(issubclass(w.category, DeprecationWarning) for w in caught):
        problems.append("create(config=...) spuriously warns")

    # Multi-replica: the frontend becomes the session router and the
    # minted clients keep working through it.
    cluster_config = DeploymentConfig(seed=11, k=2, replicas=2)
    with XSearchDeployment.create(config=cluster_config) as deployment:
        if deployment.frontend is not deployment.cluster.router:
            problems.append(
                "multi-replica frontend is not the session router"
            )
        if len(deployment.cluster.replicas) != 2:
            problems.append("DeploymentConfig(replicas=2) built "
                            f"{len(deployment.cluster.replicas)} replicas")
        minted = deployment.client(user_id="api-guard")
        if minted._broker._proxy.__class__.__name__ != "_SessionChannel":
            problems.append(
                "minted clients bypass the session router in cluster "
                "mode"
            )
        if not isinstance(minted.search("probe query", limit=2), list):
            problems.append("cluster-mode search no longer returns a list")


def check_sim_surface(problems: list) -> None:
    """The DST harness contract: the ``repro.sim`` names the explorer
    and the sim suite rely on, the injection points the world-builder
    needs (``create(attestation=...)``, ``Broker(session_ids=...)``),
    and the handshake's key-confirmation tags."""
    import repro.sim as sim

    for name in EXPECTED_SIM_NAMES:
        if not hasattr(sim, name):
            problems.append(f"repro.sim.{name} is gone")
        if name not in getattr(sim, "__all__", ()):
            problems.append(f"repro.sim.__all__ no longer lists {name!r}")

    # Instance-level attributes (schedule/events live on instances).
    probes = {"SimScheduler": lambda: sim.SimScheduler(0)}
    for cls_name, attrs in EXPECTED_SIM_ATTRS.items():
        cls = getattr(sim, cls_name, None)
        if cls is None:
            continue  # already reported above
        instance = probes[cls_name]() if cls_name in probes else None
        for attr in attrs:
            present = (
                hasattr(cls, attr)
                or attr in getattr(cls, "__dataclass_fields__", ())
                or (instance is not None and hasattr(instance, attr))
            )
            if not present:
                problems.append(f"sim.{cls_name}.{attr} is gone")

    # Step hooks must stay zero-cost outside a simulation: no
    # controller installed means step() is a pure no-op.
    if sim.hooks.current_controller() is not None:
        problems.append("a sim controller is installed outside a run")
    sim.step("api-guard.probe")  # must not raise or record

    # Determinism-critical injection points on the product surface.
    from repro.core import Broker, XSearchDeployment

    create_params = inspect.signature(XSearchDeployment.create).parameters
    if "attestation" not in create_params:
        problems.append(
            "XSearchDeployment.create lost keyword 'attestation' "
            "(the sim shares one provisioned attestation service)"
        )
    broker_params = inspect.signature(Broker.__init__).parameters
    for keyword in ("session_ids", "clock"):
        if keyword not in broker_params:
            problems.append(f"Broker.__init__ lost keyword {keyword!r}")

    # The key-confirmation handshake closure (begin_session returns
    # the enclave's tag; the channel can mint and check one).
    from repro.crypto.channel import establish_pair

    a, b = establish_pair()
    if not a.matches_confirmation(b.confirmation(b"probe"), b"probe"):
        problems.append("channel key confirmation no longer round-trips")
    try:
        a.verify_confirmation(b.confirmation(b"x"), b"y")
    except Exception:  # noqa: BLE001 - any typed error is acceptable
        pass
    else:
        problems.append(
            "verify_confirmation no longer rejects a context mismatch"
        )


def check_netserve_surface(problems: list) -> None:
    """The serving contract: the ``repro.netserve`` names, the pinned
    frame-type ids (renumbering breaks deployed peers — it requires a
    ``WIRE_VERSION`` bump), the transport's observable counters, and a
    live loopback round-trip on an ephemeral port."""
    import repro.netserve as netserve
    from repro.netserve import wire

    for name in EXPECTED_NETSERVE_NAMES:
        if not hasattr(netserve, name):
            problems.append(f"repro.netserve.{name} is gone")
        if name not in getattr(netserve, "__all__", ()):
            problems.append(
                f"repro.netserve.__all__ no longer lists {name!r}"
            )

    for cls_name, attrs in EXPECTED_NETSERVE_ATTRS.items():
        cls = getattr(netserve, cls_name, None)
        if cls is None:
            continue  # already reported above
        for attr in attrs:
            if not hasattr(cls, attr):
                problems.append(f"netserve.{cls_name}.{attr} is gone")

    for name, expected_id in EXPECTED_FRAME_TYPES.items():
        actual = getattr(wire, name, None)
        if actual is None:
            problems.append(f"wire.{name} is gone")
        elif actual != expected_id:
            problems.append(
                f"wire.{name} renumbered: {actual} != {expected_id} — "
                f"frame ids are pinned; bump WIRE_VERSION instead"
            )
    if wire.WIRE_VERSION != 1:
        problems.append(
            "WIRE_VERSION changed — update this guard alongside every "
            "deployed peer"
        )
    if wire.MAGIC != b"XSRV":
        problems.append(f"wire magic changed: {wire.MAGIC!r}")

    # Live loopback smoke: port 0 binding, the chosen port via
    # ``address``, and a search whose answer matches the in-process
    # client's byte for byte.
    from repro.core import DeploymentConfig, XSearchDeployment
    from repro.netserve import RemoteClient, XSearchServer

    config = DeploymentConfig(seed=11, k=2)
    with XSearchDeployment.create(config=config) as deployment:
        with XSearchServer(deployment, port=0) as server:
            host, port = server.address
            if port == 0:
                problems.append("server.address did not report the "
                                "kernel-chosen port")
            remote = RemoteClient(
                (host, port), user_id="api-guard-remote",
                service_public_key=(
                    deployment.attestation_service.public_key
                ),
                expected_measurement=deployment.proxy.measurement,
            )
            try:
                over_wire = remote.search("probe query", limit=3)
                local = deployment.client(user_id="api-guard-local")
                if over_wire != local.search("probe query", limit=3):
                    problems.append(
                        "remote search diverges from the in-process "
                        "client on the same deployment"
                    )
                for method, query in (("search", "probe query"),
                                      ("search_batch", ["probe query"])):
                    try:
                        getattr(remote, method)(query, 3)
                    except TypeError:
                        pass
                    else:
                        problems.append(
                            f"RemoteClient.{method} accepts a positional "
                            f"limit again"
                        )
                for counter in ("busy_rebuffs", "drain_notices"):
                    if not hasattr(remote.transport, counter):
                        problems.append(
                            f"RemoteTransport.{counter} is gone"
                        )
            finally:
                remote.close()


def check_noop_boundary_deltas(problems: list) -> None:
    """The zero-overhead contract: observability must never perturb the
    boundary-crossing counts the benchmarks assert on."""
    from repro.core.deployment import DeploymentConfig, XSearchDeployment
    from repro.obs import NullRecorder, TraceRecorder

    def boundary_fingerprint(recorder):
        kwargs = {} if recorder is ... else {"recorder": recorder}
        config = DeploymentConfig(seed=11, k=2)
        with XSearchDeployment.create(config=config, **kwargs) as dep:
            dep.client.search("warmup query", limit=3)  # one-time connect
            before = dep.proxy.enclave.boundary_snapshot()
            for i in range(8):
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

    uninstrumented = boundary_fingerprint(...)
    for label, recorder in (("NullRecorder", NullRecorder()),
                            ("TraceRecorder", TraceRecorder())):
        fingerprint = boundary_fingerprint(recorder)
        if fingerprint != uninstrumented:
            problems.append(
                f"boundary deltas under {label} diverge from the "
                f"uninstrumented run: {fingerprint} != {uninstrumented}"
            )


def main() -> int:
    import repro.core as core

    problems = []

    for name in EXPECTED_CORE_NAMES:
        if not hasattr(core, name):
            problems.append(f"repro.core.{name} is gone")
        if name not in getattr(core, "__all__", ()):
            problems.append(f"repro.core.__all__ no longer lists {name!r}")

    for dotted, expected_kwargs in EXPECTED_CALL_SURFACE.items():
        cls_name, method_name = dotted.split(".")
        cls = getattr(core, cls_name, None)
        method = getattr(cls, method_name, None)
        if method is None:
            problems.append(f"{dotted} is gone")
            continue
        signature = inspect.signature(method)
        kwonly = {
            parameter.name
            for parameter in signature.parameters.values()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }
        missing = expected_kwargs - kwonly
        if missing:
            problems.append(
                f"{dotted} lost keyword-only option(s): {sorted(missing)}"
            )
        has_varargs = any(
            parameter.kind is inspect.Parameter.VAR_POSITIONAL
            for parameter in signature.parameters.values()
        )
        if has_varargs:
            problems.append(
                f"{dotted} takes *args again; limit is keyword-only"
            )

    for cls_name, attrs in EXPECTED_ATTRS.items():
        cls = getattr(core, cls_name, None)
        if cls is None:
            continue  # already reported above
        for attr in attrs:
            if not hasattr(cls, attr):
                problems.append(f"{cls_name}.{attr} is gone")

    import repro.obs as obs

    for name in EXPECTED_OBS_NAMES:
        if not hasattr(obs, name):
            problems.append(f"repro.obs.{name} is gone")
        if name not in getattr(obs, "__all__", ()):
            problems.append(f"repro.obs.__all__ no longer lists {name!r}")

    for cls_name, attrs in EXPECTED_OBS_ATTRS.items():
        cls = getattr(obs, cls_name, None)
        if cls is None:
            continue  # already reported above
        for attr in attrs:
            if not hasattr(cls, attr):
                problems.append(f"obs.{cls_name}.{attr} is gone")

    import repro.analysis as analysis

    for name in EXPECTED_ANALYSIS_NAMES:
        if not hasattr(analysis, name):
            problems.append(f"repro.analysis.{name} is gone")
        if name not in getattr(analysis, "__all__", ()):
            problems.append(
                f"repro.analysis.__all__ no longer lists {name!r}"
            )

    for cls_name, attrs in EXPECTED_ANALYSIS_ATTRS.items():
        cls = getattr(analysis, cls_name, None)
        if cls is None:
            continue  # already reported above
        for attr in attrs:
            if not hasattr(cls, attr):
                problems.append(f"analysis.{cls_name}.{attr} is gone")

    check_finding_schema(problems)
    check_registered_checkers(problems)
    check_dataflow_surface(problems)
    check_scheduler_surface(problems)
    check_deployment_config_surface(problems)
    check_sim_surface(problems)
    check_netserve_surface(problems)
    check_noop_boundary_deltas(problems)

    if problems:
        print("public API check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"public API check OK: {len(EXPECTED_CORE_NAMES)} core names, "
        f"{len(EXPECTED_OBS_NAMES)} obs names, "
        f"{len(EXPECTED_ANALYSIS_NAMES)} analysis names, "
        f"{len(EXPECTED_SIM_NAMES)} sim names, "
        f"{len(EXPECTED_NETSERVE_NAMES)} netserve names, "
        f"{len(EXPECTED_FRAME_TYPES)} pinned frame ids, "
        f"{len(EXPECTED_CALL_SURFACE)} call signatures, "
        f"{sum(len(a) for a in EXPECTED_ATTRS.values()) + sum(len(a) for a in EXPECTED_OBS_ATTRS.values()) + sum(len(a) for a in EXPECTED_ANALYSIS_ATTRS.values())} attributes, "
        f"finding schema v1, "
        f"one create() spelling, keyword-only limit, "
        f"boundary deltas invariant under instrumentation"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
