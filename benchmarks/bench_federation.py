"""§4.5 — Federation routing (priority policy vs ablations).

The paper's proof-of-concept federation routes each request to (1) an
endpoint where the model is already active, else (2) a cluster with free
nodes, else (3) the first configured endpoint.  This bench reproduces the
behaviour on a Sophia+Polaris-like two-cluster deployment and quantifies the
benefit of the priority policy against two ablations (first-configured-only
and random) in the scenario that motivates it: the first-priority cluster is
busy with other users' jobs while the second cluster already has the model
hot.
"""

import pytest

from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelDeploymentSpec,
)
from repro.placement import FirstConfiguredRouter, PriorityRouter, RandomRouter
from repro.workload import BenchmarkClient, ShareGPTWorkload, UniformArrival

MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"
NUM_REQUESTS = 150


def build_deployment(router_cls):
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia", kind="sophia", num_nodes=2, scheduler="pbs",
                models=[ModelDeploymentSpec(MODEL_8B, max_parallel_tasks=64)],
            ),
            ClusterDeploymentSpec(
                name="polaris", kind="polaris", num_nodes=2, scheduler="pbs",
                models=[ModelDeploymentSpec(MODEL_8B, max_parallel_tasks=64)],
            ),
        ],
        users=["benchmark@anl.gov"],
        generate_text=False,
    )
    deployment = FIRSTDeployment(config)
    # Swap in the requested routing policy.
    deployment.gateway.router = router_cls(deployment.topology)
    # The model is already hot on Polaris (the second-priority endpoint)...
    deployment.warm_up(MODEL_8B, endpoint_id="ep-polaris")
    # ...while Sophia (the first-priority endpoint) is fully occupied by
    # other users' batch jobs for the next ~15 minutes, so a cold start
    # there also has to queue.
    from repro.cluster import JobRequest

    sophia_sched = deployment.schedulers["sophia"]
    for i, _node in enumerate(deployment.clusters["sophia"].nodes):
        sophia_sched.submit(JobRequest(f"other-users-{i}", num_nodes=1, walltime_s=900.0,
                                       metadata={"kind": "background"}))
    deployment.run_for(15.0)  # let the background jobs start and occupy the nodes
    return deployment


def run_policy(router_cls, label):
    deployment = build_deployment(router_cls)
    client = deployment.client("benchmark@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_8B, num_requests=NUM_REQUESTS)
    bench = BenchmarkClient(deployment.env, client, label=label)
    proc = deployment.env.process(
        bench.run(requests, arrival=UniformArrival(rate=5.0), summary_label=label)
    )
    summary = deployment.env.run(until=proc)
    routed_to = [d.endpoint_id for d in deployment.gateway.router.decisions]
    return summary, routed_to


def run_all_policies():
    out = {}
    for label, cls in [
        ("priority (paper §4.5)", PriorityRouter),
        ("first-configured only", FirstConfiguredRouter),
        ("random", RandomRouter),
    ]:
        out[label] = run_policy(cls, label)
    return out


@pytest.mark.benchmark(group="federation")
def test_federation_routing_policies(benchmark):
    results = benchmark.pedantic(run_all_policies, rounds=1, iterations=1)
    print("\n=== Federation routing: hot model on polaris, sophia busy ===")
    for label, (summary, routed) in results.items():
        to_polaris = sum(1 for r in routed if r == "ep-polaris")
        print(f"  {summary.row()}   routed {to_polaris}/{len(routed)} decisions to polaris")
        benchmark.extra_info[label] = {
            **summary.to_dict(), "decisions_to_polaris": to_polaris,
        }

    priority, _ = results["priority (paper §4.5)"]
    first_only, _ = results["first-configured only"]

    # The priority policy finds the hot instance: every request is fast.
    assert priority.median_latency_s < 20.0
    assert priority.num_successful == NUM_REQUESTS
    # Ignoring cluster state forces a cold start behind other users' jobs on
    # sophia, so median latency is dramatically worse.
    assert first_only.median_latency_s > 3 * priority.median_latency_s
    # The priority router sent (essentially) all decisions to the hot cluster.
    _, routed_priority = results["priority (paper §4.5)"]
    assert routed_priority.count("ep-polaris") >= len(routed_priority) * 0.95
