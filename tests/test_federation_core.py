"""Tests for federation membership, routing and the FIRSTDeployment assembly."""

import pytest

from repro.baselines import DirectVLLMTarget
from repro.cluster import (A100_40GB, FacilityStatusProvider, Node, SchedulerConfig,
                           dgx_a100_spec, make_scheduler, small_test_cluster)
from repro.common import ConfigurationError, NotFoundError
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
    calibration,
    federated_config,
    quickstart_config,
    sophia_benchmark_config,
)
from repro.faas import ComputeClientConfig, ComputeEndpoint, EndpointConfig, RelayConfig
from repro.gateway import GatewayConfig
from repro.parallel import PartitionSpec, build_partition
from repro.placement import FirstConfiguredRouter, PriorityRouter, RandomRouter
from repro.serving import (
    APIServerConfig,
    EngineConfig,
    InferenceRequest,
    OfflineBatchRunner,
    PerfModelConfig,
    PerformanceModel,
    ServingInstance,
    default_catalog,
)
from repro.sim import Environment

MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"
MODEL_7B = "Qwen/Qwen2.5-7B-Instruct"


def federated_deployment(sophia_nodes=2, polaris_nodes=2):
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia", kind="small", num_nodes=sophia_nodes, scheduler="pbs",
                models=[ModelHostingConfig(MODEL_8B, max_instances=2, max_parallel_tasks=16)],
            ),
            ClusterDeploymentSpec(
                name="polaris", kind="small", num_nodes=polaris_nodes, scheduler="pbs",
                models=[ModelHostingConfig(MODEL_8B, max_instances=2, max_parallel_tasks=16),
                        ModelHostingConfig(MODEL_7B, max_parallel_tasks=16)],
            ),
        ],
        users=["benchmark@anl.gov"],
        generate_text=False,
    )
    return FIRSTDeployment(config)


# -- membership ----------------------------------------------------------------------

def test_view_orders_endpoints_by_registration():
    view = federated_deployment().topology
    entries = view.endpoints_for_model(MODEL_8B)
    assert [e.cluster_name for e in entries] == ["sophia", "polaris"]
    # 7B is only hosted on polaris.
    assert [e.cluster_name for e in view.endpoints_for_model(MODEL_7B)] == ["polaris"]
    assert view.endpoints_for_model("unhosted-model") == []
    assert set(view.hosted_models()) == {MODEL_8B, MODEL_7B}
    with pytest.raises(NotFoundError):
        view.get("ep-missing")
    with pytest.raises(NotFoundError):
        view.deregister("ep-missing")


def test_duplicate_registration_is_rejected():
    """A second registration under a known id used to be accepted: after one
    ``deregister`` the endpoint stayed a routing candidate while its pools
    were already dropped and its scaling policy unbound."""
    deployment = FIRSTDeployment(federated_config(sophia_nodes=2, polaris_nodes=2))
    view = deployment.topology
    sophia = deployment.endpoints["ep-sophia"]
    with pytest.raises(ValueError, match="ep-sophia already registered"):
        view.register(sophia, FacilityStatusProvider(deployment.env,
                                                     deployment.schedulers["sophia"]))
    assert [e.endpoint_id for e in view.endpoints] == ["ep-sophia", "ep-polaris"]
    view.deregister("ep-sophia")
    assert [e.endpoint_id for e in view.endpoints_for_model(MODEL_8B)] == ["ep-polaris"]


# -- routing policies -------------------------------------------------------------------

def test_priority_router_prefers_active_instance():
    deployment = federated_deployment()
    # Warm the model on polaris (the *second* priority endpoint).
    deployment.warm_up(MODEL_8B, endpoint_id="ep-polaris")
    router = PriorityRouter(deployment.topology)
    proc = deployment.env.process(router.select(MODEL_8B))
    endpoint = deployment.env.run(until=proc)
    assert endpoint.endpoint_id == "ep-polaris"
    assert router.decisions[-1].rule == "active-instance"


def test_priority_router_falls_back_to_free_nodes():
    deployment = federated_deployment()
    # Nothing is warm; sophia (priority 0) has free nodes, so rule 2 picks it.
    router = PriorityRouter(deployment.topology)
    proc = deployment.env.process(router.select(MODEL_8B))
    endpoint = deployment.env.run(until=proc)
    assert endpoint.endpoint_id == "ep-sophia"
    assert router.decisions[-1].rule == "free-nodes"


def test_priority_router_falls_back_to_first_configured_when_everything_busy():
    deployment = federated_deployment()
    # Fill every node on both clusters with background allocations.
    for cluster in deployment.clusters.values():
        for node in cluster.nodes:
            node.allocate("background-job")
    router = PriorityRouter(deployment.topology)
    proc = deployment.env.process(router.select(MODEL_8B))
    endpoint = deployment.env.run(until=proc)
    assert endpoint.endpoint_id == "ep-sophia"
    assert router.decisions[-1].rule == "first-configured"


def test_priority_router_unknown_model():
    deployment = federated_deployment()
    router = PriorityRouter(deployment.topology)
    with pytest.raises(NotFoundError):
        deployment.env.process(router.select("model-nobody-hosts"))
        deployment.run_for(1.0)


def test_random_and_first_configured_routers():
    deployment = federated_deployment()
    rand = RandomRouter(deployment.topology, seed=3)
    first = FirstConfiguredRouter(deployment.topology)
    chosen = set()
    for _ in range(20):
        proc = deployment.env.process(rand.select(MODEL_8B))
        endpoint = deployment.env.run(until=proc)
        chosen.add(endpoint.endpoint_id)
    assert chosen == {"ep-sophia", "ep-polaris"}
    proc = deployment.env.process(first.select(MODEL_8B))
    endpoint = deployment.env.run(until=proc)
    assert endpoint.endpoint_id == "ep-sophia"


def test_federated_requests_route_to_warm_cluster_end_to_end():
    deployment = federated_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-polaris")
    client = deployment.client("benchmark@anl.gov")
    ev = client.submit(InferenceRequest("fed-0", MODEL_8B, prompt_tokens=100,
                                        max_output_tokens=50))
    deployment.env.run(until=ev)
    result = ev.value
    assert result.success
    assert result.cluster == "polaris"


# -- deployment assembly ------------------------------------------------------------------

def test_deployment_requires_clusters():
    with pytest.raises(ConfigurationError):
        FIRSTDeployment(DeploymentConfig(clusters=[]))


def test_unknown_kind_rejected_by_deployment_and_shard():
    weird = ClusterDeploymentSpec(name="x", kind="weird")
    with pytest.raises(ConfigurationError):
        FIRSTDeployment(DeploymentConfig(clusters=[weird]))
    # A cluster shard builds through the same builder: no silent fallback.
    with pytest.raises(ConfigurationError):
        build_partition(PartitionSpec(pid=1, name="x", kind="cluster", lookahead_s=1.0,
                                      params={"gateway_pid": 0, "cluster": weird}))


def test_deployments_copy_the_hosting_records_they_are_built_from():
    """Two deployments from one config: a runtime edit to the first's
    ``pool.hosting`` reaches neither the config nor the second."""
    config = quickstart_config(generate_text=False)
    first, second = FIRSTDeployment(config), FIRSTDeployment(config)
    first.endpoints["ep-devcluster"].pools[MODEL_7B].hosting.max_parallel_tasks = 1
    assert config.clusters[0].models[0].max_parallel_tasks == 32
    assert second.endpoints["ep-devcluster"].pools[MODEL_7B].hosting.max_parallel_tasks == 32
    assert second.endpoints["ep-devcluster"].pools[MODEL_7B].signal().slots_per_instance == 32


def test_quickstart_deployment_serves_a_request():
    deployment = FIRSTDeployment(quickstart_config())
    client = deployment.client("researcher@anl.gov")
    response = client.chat_completion(
        MODEL_7B, [{"role": "user", "content": "What GPUs does the cluster have?"}],
        max_tokens=32,
    )
    assert response["usage"]["completion_tokens"] == 32
    assert len(response["choices"][0]["message"]["content"]) > 0


def test_sophia_benchmark_deployment_shape():
    deployment = FIRSTDeployment(sophia_benchmark_config(max_instances=2, num_nodes=4))
    assert "sophia" in deployment.clusters
    assert deployment.clusters["sophia"].total_nodes == 4
    pool_models = list(deployment.endpoints["ep-sophia"].pools)
    assert pool_models == ["meta-llama/Llama-3.3-70B-Instruct"]


def test_federated_constructor_two_clusters():
    deployment = FIRSTDeployment(federated_config(sophia_nodes=2, polaris_nodes=2))
    assert set(deployment.clusters) == {"sophia", "polaris"}
    assert len(deployment.topology.endpoints) == 2


def test_prewarm_unknown_model_rejected():
    deployment = federated_deployment()
    with pytest.raises(ConfigurationError):
        deployment.prewarm("model-nobody-hosts")


def test_client_for_unregistered_user_registers_on_demand():
    deployment = federated_deployment()
    client = deployment.client("newuser@university.edu")
    assert client.username == "newuser@university.edu"
    assert "newuser@university.edu" in deployment.auth.registered_users


@pytest.mark.parametrize("build", [quickstart_config, sophia_benchmark_config,
                                   federated_config])
def test_deployments_run_each_config_class_default(build):
    """Every calibrated constant has one value: its config field's default."""
    config = build()
    deployment = FIRSTDeployment(config)
    assert deployment.relay.config == RelayConfig()
    assert deployment.compute_client.config == ComputeClientConfig()
    assert deployment.gateway.config == GatewayConfig()
    for name, scheduler in deployment.schedulers.items():
        cluster = small_test_cluster(name=name)
        kind_default = type(scheduler)(Environment(), cluster).config
        assert scheduler.config == kind_default, name
    for endpoint in deployment.endpoints.values():
        assert endpoint.perf_config == PerfModelConfig()
        assert endpoint.api_config == APIServerConfig()
        assert endpoint.engine_config == EngineConfig(generate_text=config.generate_text)


def test_components_built_without_config_run_the_class_defaults():
    """A component built without a config carries its class's default, so a
    deployment and a hand-built stack run the same values."""
    env = Environment()
    cluster = small_test_cluster()
    scheduler = make_scheduler("pbs", env, cluster)
    assert scheduler.config == SchedulerConfig()
    catalog = default_catalog()
    endpoint = ComputeEndpoint(env, scheduler, catalog,
                               EndpointConfig(endpoint_id="ep", cluster=cluster.name))
    spec = catalog.get(MODEL_8B)
    instance = ServingInstance(env, spec, [Node("n0", dgx_a100_spec())])
    pending, _ready = DirectVLLMTarget.launch(env, spec, [Node("n1", dgx_a100_spec())])
    perf = PerformanceModel(spec, 1, A100_40GB, node_spec=dgx_a100_spec())
    runner = OfflineBatchRunner(env, perf)
    for engine_config in (endpoint.engine_config, instance.engine_config,
                          pending.instance.engine_config, runner.engine_config):
        assert engine_config == EngineConfig()


def test_calibration_exports_only_its_notes():
    assert calibration.__all__ == ["CALIBRATION_NOTES"]
    assert any("Fig. 4" in note for note in calibration.CALIBRATION_NOTES.values())
