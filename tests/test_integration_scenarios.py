"""End-to-end integration scenarios across the whole stack."""

import pytest

from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.serving import InferenceRequest
from repro.workload import BenchmarkClient, PoissonArrival, ShareGPTWorkload, requests_to_jsonl

MODEL_7B = "Qwen/Qwen2.5-7B-Instruct"
MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"


def build_deployment(**kwargs):
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia", kind="small", num_nodes=3, scheduler="pbs",
                models=[
                    ModelHostingConfig(MODEL_7B, max_parallel_tasks=48, max_instances=2),
                    ModelHostingConfig(MODEL_8B, max_parallel_tasks=48),
                ],
            )
        ],
        users=["alice@anl.gov", "bob@university.edu"],
        generate_text=False,
        **kwargs,
    )
    return FIRSTDeployment(config)


def assert_relay_conserved(deployment):
    """Every task the relay accepted has terminated exactly once and nothing
    is left parked in its accounting (a quiesced scenario's closing check)."""
    relay = deployment.relay
    assert relay.queued_tasks == 0
    assert relay._open_dispatches == {}
    assert relay.stats.submitted == relay.stats.completed + relay.stats.failed


def test_multi_user_mixed_workload_accounting():
    """Two users, two models, interactive + batch — accounting stays consistent."""
    deployment = build_deployment()
    deployment.warm_up(MODEL_7B)
    alice = deployment.client("alice@anl.gov")
    bob = deployment.client("bob@university.edu")

    # Interactive traffic from both users.
    events = []
    for i in range(10):
        events.append(alice.submit(InferenceRequest(f"alice-{i}", MODEL_7B,
                                                    prompt_tokens=100, max_output_tokens=40)))
        events.append(bob.submit(InferenceRequest(f"bob-{i}", MODEL_7B,
                                                  prompt_tokens=100, max_output_tokens=60)))
    deployment.env.run(until=deployment.env.all_of(events))

    # A batch from alice on the other model.
    batch_requests = ShareGPTWorkload().generate(MODEL_8B, num_requests=15, id_prefix="ab")
    batch = alice.create_batch(requests_to_jsonl(batch_requests))
    final = alice.wait_for_batch(batch["id"], poll_every_s=60.0)
    assert final["status"] == "completed"

    db = deployment.database
    # Interactive requests are logged per user with the right token counts.
    alice_logged = db.requests_for_user("alice@anl.gov")
    bob_logged = db.requests_for_user("bob@university.edu")
    assert len(alice_logged) == 10
    assert len(bob_logged) == 10
    assert all(e.output_tokens == 40 for e in alice_logged)
    assert all(e.output_tokens == 60 for e in bob_logged)
    assert db.users["alice@anl.gov"]["tokens"] == 10 * 40 + final["output_tokens"]
    assert db.usage_summary()["total_users"] == 2
    # Gateway metrics agree with the database for interactive traffic.
    assert deployment.gateway.metrics.total_completed == 20
    # Relay accounting: 20 chat tasks + 1 batch task.
    assert deployment.relay.stats.completed == 21
    assert_relay_conserved(deployment)


def test_instance_failure_mid_workload_recovers_and_serves_everything():
    """A model-server crash mid-run is detected and restarted; traffic completes."""
    deployment = build_deployment()
    deployment.warm_up(MODEL_7B)
    client = deployment.client("alice@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=40)
    bench = BenchmarkClient(deployment.env, client, label="with-failure")
    proc = deployment.env.process(bench.run(requests, arrival=PoissonArrival(rate=2.0)))

    def saboteur(env):
        yield env.timeout(8.0)
        pool = deployment.endpoints["ep-sophia"].pools[MODEL_7B]
        if pool.ready_instances:
            pool.ready_instances[0].fail("injected crash")

    deployment.env.process(saboteur(deployment.env))
    summary = deployment.env.run(until=proc)

    pool = deployment.endpoints["ep-sophia"].pools[MODEL_7B]
    assert pool.restarts >= 1
    # Requests that were in flight on the crashed instance report failure, but
    # the service recovers and the vast majority completes.
    assert summary.num_successful >= 30
    assert deployment.endpoints["ep-sophia"].ready_instance_count() >= 1
    assert_relay_conserved(deployment)


def test_hot_idle_release_then_cold_start_again():
    deployment = build_deployment()
    # Override the idle timeout to something short for the test.
    pool = deployment.endpoints["ep-sophia"].pools[MODEL_7B]
    pool.hosting.hot_idle_timeout_s = 300.0
    client = deployment.client("alice@anl.gov")

    ev = client.submit(InferenceRequest("first", MODEL_7B, prompt_tokens=80,
                                        max_output_tokens=30))
    deployment.env.run(until=ev)
    assert deployment.endpoints["ep-sophia"].ready_instance_count() == 1
    cluster = deployment.clusters["sophia"]
    assert len(cluster.free_nodes) < cluster.total_nodes

    # Idle long enough for the monitor to retire the instance and release nodes.
    deployment.run_for(900.0)
    assert deployment.endpoints["ep-sophia"].ready_instance_count() == 0
    assert len(cluster.free_nodes) == cluster.total_nodes

    # The next request triggers a fresh cold start and still succeeds.
    t0 = deployment.now
    ev = client.submit(InferenceRequest("second", MODEL_7B, prompt_tokens=80,
                                        max_output_tokens=30))
    deployment.env.run(until=ev)
    assert ev.value.success
    assert deployment.now - t0 > 20.0  # cold start paid again
    assert_relay_conserved(deployment)


def test_auth_single_flight_coalesces_burst_of_new_token():
    """A burst of requests with a not-yet-cached token triggers one introspection."""
    deployment = build_deployment()
    deployment.warm_up(MODEL_7B)
    client = deployment.client("alice@anl.gov")
    events = [
        client.submit(InferenceRequest(f"burst-{i}", MODEL_7B, prompt_tokens=50,
                                       max_output_tokens=20))
        for i in range(60)
    ]
    deployment.env.run(until=deployment.env.all_of(events))
    assert all(ev.value.success for ev in events)
    layer = deployment.gateway.auth_layer
    assert layer.cache_misses == 1
    assert layer.coalesced == 59
    assert deployment.auth.introspection_calls == 1
    assert deployment.gateway.metrics.rate_limited == 0
    assert_relay_conserved(deployment)


def test_sustained_load_relay_queues_but_everything_completes():
    deployment = build_deployment()
    deployment.warm_up(MODEL_7B)
    client = deployment.client("alice@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=300)
    bench = BenchmarkClient(deployment.env, client, label="sustained")
    proc = deployment.env.process(bench.run(requests))
    summary = deployment.env.run(until=proc)
    assert summary.num_successful == 300
    assert deployment.relay.stats.peak_queued >= 200
    # The dashboard reflects the full run.
    dash = deployment.gateway.dashboard()
    assert dash["total_completed"] >= 300
    assert dash["database"]["total_requests"] >= 300
    assert_relay_conserved(deployment)


def test_scale_up_and_jobs_endpoint_reflect_additional_instances():
    deployment = build_deployment()
    deployment.warm_up(MODEL_7B)
    client = deployment.client("alice@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=400)
    bench = BenchmarkClient(deployment.env, client, label="scaleup")
    proc = deployment.env.process(bench.run(requests))
    deployment.env.run(until=proc)
    pool = deployment.endpoints["ep-sophia"].pools[MODEL_7B]
    assert len(pool.instances) >= 2  # auto-scaled to the second instance
    states = [j for j in client.jobs() if j["model"] == MODEL_7B]
    assert states[0]["running_instances"] >= 2
    assert_relay_conserved(deployment)


def test_streamed_scenario_stays_within_its_kernel_event_budget():
    """Fifty streamed chats nobody reads token by token: the kernel-event
    count is exact, so per-token stepping (or a per-token hop) cannot come
    back unnoticed — it would cost ~100 more events per request."""
    from repro.obs import KernelProfiler

    deployment = build_deployment()
    env = deployment.env
    deployment.warm_up(MODEL_7B)
    client = deployment.client("alice@anl.gov")
    env.run(until=client.submit(
        InferenceRequest("warm-0", MODEL_7B, prompt_tokens=20, max_output_tokens=2)))
    requests = [
        InferenceRequest(f"budget-{i}", MODEL_7B, prompt_tokens=40 + 7 * (i % 9),
                         max_output_tokens=60 + (13 * i) % 90, stream=True)
        for i in range(50)
    ]
    results = []

    def drive():
        for request in requests:
            yield env.timeout(0.25)  # 4 requests/s
            results.append(client.submit(request))
        yield env.all_of(results)

    counter = KernelProfiler()
    env.attach_profiler(counter)
    env.run(until=env.process(drive()))
    env.detach_profiler()
    assert all(event.value.success for event in results)
    assert [len(event.value.metadata["gateway_token_times"]) for event in results] == [
        request.max_output_tokens for request in requests]
    # 37.94 events per request (151.36 when every token was a hop and a step).
    assert (counter.events_total, counter.windows) == (1897, 79)
    assert_relay_conserved(deployment)
