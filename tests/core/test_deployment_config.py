"""The DeploymentConfig facade.

``create(config=...)`` is the one spelling: a pre-config keyword such
as ``create(k=2)`` is a plain :class:`TypeError`, and ``proxy_options``
cannot re-set a key the deployment controls itself.
"""

from __future__ import annotations

import dataclasses
import re
import warnings

import pytest

from repro.core import (
    CONFIG_VERSION,
    DeploymentConfig,
    XSearchDeployment,
)
from repro.faults import FaultPlan


# ----------------------------------------------------------------------
# The value itself
# ----------------------------------------------------------------------
def test_config_is_frozen():
    config = DeploymentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.k = 5


def test_config_validates_its_fields():
    with pytest.raises(ValueError):
        DeploymentConfig(k=0)
    with pytest.raises(ValueError):
        DeploymentConfig(history_capacity=0)
    with pytest.raises(ValueError):
        DeploymentConfig(replicas=0)
    with pytest.raises(ValueError):
        DeploymentConfig(max_workers=0)
    with pytest.raises(ValueError):
        DeploymentConfig(vnodes=0)
    with pytest.raises(ValueError):
        DeploymentConfig(failover_threshold=0)
    with pytest.raises(ValueError):
        DeploymentConfig(version=CONFIG_VERSION + 1)
    # proxy_options cannot re-set what the deployment passes the proxy
    # itself; the error names the spelling to use instead.
    for key, instead in (
        ("k", "DeploymentConfig.k"),
        ("history_capacity", "DeploymentConfig.history_capacity"),
        ("rng_seed", "DeploymentConfig.seed"),
        ("retry_policy", "DeploymentConfig.retry_policy"),
        ("fanout", "DeploymentConfig.fanout"),
        ("quoting_enclave", "create(attestation=...)"),
        ("attestation_service", "create(attestation=...)"),
        ("recorder", "create(recorder=...)"),
        ("registry", "create(registry=...)"),
    ):
        with pytest.raises(ValueError, match=re.escape(instead)):
            DeploymentConfig(proxy_options={key: object()})


def test_config_owns_copies_of_its_dicts():
    options = {"checkpoint_interval": 5}
    config = DeploymentConfig(proxy_options=options)
    options["checkpoint_interval"] = 99
    assert config.proxy_options["checkpoint_interval"] == 5


def test_replace_builds_a_new_value():
    base = DeploymentConfig(k=2, seed=7)
    grown = base.replace(replicas=4)
    assert grown.replicas == 4 and grown.k == 2 and grown.seed == 7
    assert base.replicas == 1  # untouched


def test_concurrent_property_tracks_max_workers():
    assert not DeploymentConfig().concurrent
    assert DeploymentConfig(max_workers=2).concurrent


# ----------------------------------------------------------------------
# The one create() path
# ----------------------------------------------------------------------
def test_create_rejects_pre_config_keywords():
    for legacy in ({"k": 2}, {"seed": 11}, {"fault_plan": FaultPlan()}):
        with pytest.raises(TypeError):
            XSearchDeployment.create(**legacy)


def test_config_path_does_not_warn():
    config = DeploymentConfig(seed=11, k=3, connect=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with XSearchDeployment.create(config=config) as deployment:
            assert deployment.config == config
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]


def test_proxy_passthroughs_still_work_both_ways():
    # Shared passthroughs reach every replica; a replica fault plan
    # reaches only its own replica.
    shared, own = FaultPlan(seed=0), FaultPlan(seed=1)
    config = DeploymentConfig(
        seed=11, k=2, replicas=2, connect=False,
        proxy_options={"fault_plan": shared, "checkpoint_interval": 5},
        replica_fault_plans={1: own},
    )
    with XSearchDeployment.create(config=config) as deployment:
        first, second = (handle.proxy
                         for handle in deployment.cluster.replicas)
        assert first._fault_plan is shared and second._fault_plan is own
        assert (first._checkpoint_interval
                == second._checkpoint_interval == 5)


# ----------------------------------------------------------------------
# Uniform cluster surface
# ----------------------------------------------------------------------
def test_single_replica_deployment_keeps_the_classic_frontend():
    config = DeploymentConfig(seed=11, k=2, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        assert deployment.cluster is not None
        assert deployment.cluster.size == 1
        # replicas=1 must stay byte-identical to previous releases: the
        # frontend is the proxy itself, not the router.
        assert deployment.frontend is deployment.proxy


def test_multi_replica_deployment_fronts_the_router():
    config = DeploymentConfig(seed=11, k=2, replicas=2, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        assert deployment.cluster.size == 2
        assert deployment.frontend is deployment.cluster.router
        assert deployment.proxy is deployment.cluster.replicas[0].proxy


def test_replicas_share_the_measurement_and_attestation_plane():
    config = DeploymentConfig(seed=11, k=2, replicas=3, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        measurements = {
            bytes(h.measurement.value)
            if hasattr(h.measurement, "value") else repr(h.measurement)
            for h in deployment.cluster.replicas
        }
        assert len(measurements) == 1
        client = deployment.client(user_id="any")
        assert client._broker.attested
