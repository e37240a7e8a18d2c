"""Tests for compute endpoints: cold starts, hot nodes, auto-scaling,
fault tolerance, batch jobs and the client SDK."""

import pytest

from repro.auth import GlobusAuthLikeService, IdentityProvider
from repro.cluster import PBSScheduler, SchedulerConfig, small_test_cluster
from repro.common import AuthenticationError, ConfigurationError, NotFoundError
from repro.faas import (
    HANDLER_BATCH,
    HANDLER_CHAT,
    ComputeClient,
    ComputeEndpoint,
    EndpointConfig,
    ModelHostingConfig,
    RelayService,
    TaskStatus,
)
from repro.serving import InferenceRequest, InstanceState, default_catalog
from repro.sim import Environment

CATALOG = default_catalog()
MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"
MODEL_70B = "meta-llama/Llama-3.3-70B-Instruct"


def build_stack(
    num_nodes=2,
    models=None,
    poll_interval=0.5,
    monitor_interval=10.0,
    scheduler_cfg=None,
):
    """Environment + scheduler + endpoint + relay wired together."""
    env = Environment()
    cluster = small_test_cluster(num_nodes=num_nodes)
    scheduler = PBSScheduler(
        env, cluster, scheduler_cfg or SchedulerConfig(cycle_latency_s=1.0, prologue_s=2.0)
    )
    models = models or [ModelHostingConfig(model=MODEL_8B, max_parallel_tasks=16)]
    config = EndpointConfig(
        endpoint_id="ep-test",
        cluster=cluster.name,
        models=models,
        poll_interval_s=poll_interval,
        monitor_interval_s=monitor_interval,
    )
    endpoint = ComputeEndpoint(env, scheduler, CATALOG, config)
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    relay.functions.register("fn-batch", "batch", HANDLER_BATCH, owner="admins")
    relay.register_endpoint(endpoint)
    return env, cluster, scheduler, endpoint, relay


def chat_payload(i, model=MODEL_8B, output=60):
    request = InferenceRequest(
        request_id=f"req-{i:05d}", model=model, prompt_tokens=200, max_output_tokens=output
    )
    return {"request": request}


def test_endpoint_cluster_mismatch_rejected():
    env = Environment()
    cluster = small_test_cluster()
    scheduler = PBSScheduler(env, cluster)
    config = EndpointConfig(endpoint_id="ep", cluster="another-cluster", models=[])
    with pytest.raises(ConfigurationError):
        ComputeEndpoint(env, scheduler, CATALOG, config)


def test_cold_start_first_request_acquires_node_and_loads_model():
    env, cluster, scheduler, endpoint, relay = build_stack()
    future = relay.submit("fn-chat", "ep-test", chat_payload(0))
    env.run(until=future.done)
    result = future.record.result
    assert future.record.status == TaskStatus.COMPLETED
    assert result.success
    # Cold start: scheduler queue + prologue + 8B model load (~29s) + inference.
    assert future.record.total_time_s > 25.0
    assert endpoint.ready_instance_count() == 1


def test_hot_instance_serves_second_request_quickly():
    env, cluster, scheduler, endpoint, relay = build_stack()
    first = relay.submit("fn-chat", "ep-test", chat_payload(0))
    env.run(until=first.done)

    second = relay.submit("fn-chat", "ep-test", chat_payload(1))
    start = env.now
    env.run(until=second.done)
    warm_latency = env.now - start
    assert warm_latency < 10.0
    assert warm_latency < first.record.total_time_s / 3


def test_hot_idle_timeout_releases_instance_and_job():
    env, cluster, scheduler, endpoint, relay = build_stack(
        models=[ModelHostingConfig(model=MODEL_8B, hot_idle_timeout_s=120.0)],
        monitor_interval=10.0,
    )
    future = relay.submit("fn-chat", "ep-test", chat_payload(0))
    env.run(until=future.done)
    assert endpoint.ready_instance_count() == 1
    # After the idle timeout the monitor retires the instance and frees nodes.
    env.run(until=env.now + 300.0)
    assert endpoint.ready_instance_count() == 0
    assert len(cluster.free_nodes) == cluster.total_nodes
    status = endpoint.model_status(MODEL_8B)[0]
    assert status.state == "cold"


def test_model_status_transitions_cold_starting_running():
    env, cluster, scheduler, endpoint, relay = build_stack()
    assert endpoint.model_status(MODEL_8B)[0].state == "cold"
    future = relay.submit("fn-chat", "ep-test", chat_payload(0))
    env.run(until=10.0)
    # Node acquired (or queued) and model loading.
    assert endpoint.model_status(MODEL_8B)[0].state in ("queued", "starting")
    env.run(until=future.done)
    assert endpoint.model_status(MODEL_8B)[0].state == "running"


def test_unhosted_model_task_fails_cleanly():
    env, cluster, scheduler, endpoint, relay = build_stack()
    payload = chat_payload(0, model=MODEL_70B)
    future = relay.submit("fn-chat", "ep-test", payload)
    env.run(until=future.done)
    assert future.record.status == TaskStatus.FAILED
    assert "not hosted" in future.record.error


def test_endpoint_rejects_task_without_trusted_client():
    env = Environment()
    cluster = small_test_cluster()
    scheduler = PBSScheduler(env, cluster, SchedulerConfig(cycle_latency_s=1.0, prologue_s=0.0))
    config = EndpointConfig(
        endpoint_id="ep-secure",
        cluster=cluster.name,
        models=[ModelHostingConfig(model=MODEL_8B)],
        required_client_id="admin-client",
        poll_interval_s=0.1,
    )
    endpoint = ComputeEndpoint(env, scheduler, CATALOG, config)
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    relay.register_endpoint(endpoint)

    bad = relay.submit("fn-chat", "ep-secure", chat_payload(0))
    env.run(until=bad.done)
    assert bad.record.status == TaskStatus.FAILED

    good_payload = chat_payload(1)
    good_payload["client_id"] = "admin-client"
    good = relay.submit("fn-chat", "ep-secure", good_payload)
    env.run(until=good.done)
    assert good.record.status == TaskStatus.COMPLETED


def test_auto_scaling_launches_additional_instances_under_load():
    env, cluster, scheduler, endpoint, relay = build_stack(
        num_nodes=3,
        models=[
            ModelHostingConfig(
                model=MODEL_8B,
                max_instances=3,
                max_parallel_tasks=4,
                scale_up_queue_per_instance=2,
            )
        ],
    )
    futures = [relay.submit("fn-chat", "ep-test", chat_payload(i, output=200)) for i in range(150)]
    env.run(until=env.all_of([f.done for f in futures]))
    assert endpoint.ready_instance_count() >= 2
    assert all(f.record.status == TaskStatus.COMPLETED for f in futures)
    # Instances never exceed the configured maximum.
    pool = endpoint.pools[MODEL_8B]
    assert len(pool.instances) <= 3


def test_auto_scaling_respects_max_instances_one():
    env, cluster, scheduler, endpoint, relay = build_stack(
        num_nodes=3,
        models=[ModelHostingConfig(model=MODEL_8B, max_instances=1, max_parallel_tasks=4)],
    )
    futures = [relay.submit("fn-chat", "ep-test", chat_payload(i)) for i in range(30)]
    env.run(until=env.all_of([f.done for f in futures]))
    pool = endpoint.pools[MODEL_8B]
    assert len(pool.instances) == 1


def test_fault_tolerance_restarts_failed_instance():
    env, cluster, scheduler, endpoint, relay = build_stack(monitor_interval=5.0)
    first = relay.submit("fn-chat", "ep-test", chat_payload(0))
    env.run(until=first.done)
    pool = endpoint.pools[MODEL_8B]
    instance = pool.ready_instances[0]
    instance.fail("injected failure")
    assert endpoint.ready_instance_count() == 0
    # The health monitor notices and relaunches within a couple of minutes.
    env.run(until=env.now + 200.0)
    assert pool.restarts == 1
    assert endpoint.ready_instance_count() == 1
    # New instance keeps serving requests.
    again = relay.submit("fn-chat", "ep-test", chat_payload(1))
    env.run(until=again.done)
    assert again.record.status == TaskStatus.COMPLETED


def test_prewarm_brings_model_up_without_traffic():
    env, cluster, scheduler, endpoint, relay = build_stack()
    events = endpoint.prewarm(MODEL_8B, instances=1)
    assert len(events) == 1
    env.run(until=events[0])
    assert endpoint.ready_instance_count() == 1
    assert endpoint.model_status(MODEL_8B)[0].state == "running"


def test_batch_handler_runs_dedicated_job():
    env, cluster, scheduler, endpoint, relay = build_stack()
    requests = [
        InferenceRequest(
            request_id=f"batch-{i}", model=MODEL_8B, prompt_tokens=150, max_output_tokens=100
        )
        for i in range(50)
    ]
    future = relay.submit("fn-batch", "ep-test", {"model": MODEL_8B, "requests": requests})
    env.run(until=future.done)
    assert future.record.status == TaskStatus.COMPLETED
    run_result = future.record.result
    assert run_result.num_completed == 50
    assert run_result.load_time_s > 0
    # The dedicated job was released afterwards.
    assert len(cluster.free_nodes) == cluster.total_nodes


def test_batch_handler_requires_model_and_requests():
    env, cluster, scheduler, endpoint, relay = build_stack()
    future = relay.submit("fn-batch", "ep-test", {"model": MODEL_8B, "requests": []})
    env.run(until=future.done)
    assert future.record.status == TaskStatus.FAILED


def test_model_status_unknown_model_raises():
    env, cluster, scheduler, endpoint, relay = build_stack()
    with pytest.raises(NotFoundError):
        endpoint.model_status("not-a-model-anyone-hosts")


# ---------------------------------------------------------------------------
# Compute client SDK
# ---------------------------------------------------------------------------

def make_auth(env):
    auth = GlobusAuthLikeService(env)
    auth.register_provider(IdentityProvider("ANL", "anl.gov"))
    auth.register_confidential_client("gateway-client", "s3cret", owner="admins")
    return auth


def test_compute_client_validates_confidential_client():
    env, cluster, scheduler, endpoint, relay = build_stack()
    auth = make_auth(env)
    client = ComputeClient(env, relay, "gateway-client", "s3cret", auth=auth)
    assert client.client_id == "gateway-client"
    with pytest.raises(AuthenticationError):
        ComputeClient(env, relay, "gateway-client", "wrong", auth=auth)


def test_compute_client_future_vs_polling_retrieval():
    env, cluster, scheduler, endpoint, relay = build_stack()
    auth = make_auth(env)
    client = ComputeClient(env, relay, "gateway-client", "s3cret", auth=auth)

    def run_future(env):
        fut = client.submit("fn-chat", "ep-test", chat_payload(0))
        result = yield from client.wait_future(fut)
        return (env.now, result)

    p1 = env.process(run_future(env))
    env.run(until=p1)
    t_future, result_future = p1.value
    assert result_future.success

    def run_polling(env):
        start = env.now
        fut = client.submit("fn-chat", "ep-test", chat_payload(1))
        result = yield from client.wait_polling(fut)
        return (env.now - start, result)

    p2 = env.process(run_polling(env))
    env.run(until=p2)
    t_polling, result_polling = p2.value
    assert result_polling.success
    # Polling quantises completion to the 2 s poll interval: the warm-path
    # latency via polling is strictly larger than via futures.
    warm_future_latency = None

    def run_future_again(env):
        start = env.now
        fut = client.submit("fn-chat", "ep-test", chat_payload(2))
        yield from client.wait_future(fut)
        return env.now - start

    p3 = env.process(run_future_again(env))
    env.run(until=p3)
    warm_future_latency = p3.value
    assert t_polling > warm_future_latency


# ------------------------------------------------------------- pool lifecycle
EMBED_MODEL = "nvidia/NV-Embed-v2"


def test_embedding_instance_restarts_when_its_job_ends():
    """A walltime end fails an embedding instance the way it fails a chat
    one; the health monitor restarts it and embeddings keep working."""
    from repro.core import FIRSTDeployment, quickstart_config

    config = quickstart_config()
    cluster = config.clusters[0]
    cluster.scheduler = "pbs"
    hosting, = [m for m in cluster.models if m.model == EMBED_MODEL]
    hosting.walltime_s = 300.0
    deployment = FIRSTDeployment(config)
    deployment.warm_up(EMBED_MODEL)
    pool = next(iter(deployment.endpoints.values())).pools[EMBED_MODEL]
    first, = pool.instances
    deployment.run_for(400.0)
    assert first.state == InstanceState.FAILED
    first.stop()  # a final state stays final
    assert first.state == InstanceState.FAILED
    assert pool.restarts >= 1
    response = deployment.client("researcher@anl.gov").embedding(EMBED_MODEL, "hello")
    assert response["data"][0]["embedding"]


def _loading_sophia_pool():
    """A two-instance Sophia pool whose first PBS job has started and whose
    instance object exists but is still loading the model."""
    from repro.core import FIRSTDeployment, sophia_benchmark_config

    deployment = FIRSTDeployment(sophia_benchmark_config(max_instances=2))
    pool, = next(iter(deployment.endpoints.values())).pools.values()
    pool.prewarm(1)
    deployment.run_for(8.0)
    assert [i.state for i in pool.instances] == [InstanceState.STARTING]
    return deployment, pool


def test_cold_start_signal_counts_a_loading_instance_both_ways():
    _deployment, pool = _loading_sophia_pool()
    signal = pool.signal()
    assert signal.starting_instances == 1
    # The actuator's legacy frame counts the instance object and its open
    # launch; the deduplicated count sees one instance.
    assert signal.total_instances == 2
    assert signal.provisioned_instances == 1


def test_prewarm_counts_a_loading_instance_once():
    deployment, pool = _loading_sophia_pool()
    assert len(pool.prewarm(2)) == 1
    deployment.run_for(600.0)
    assert len(pool.ready_instances) == 2
