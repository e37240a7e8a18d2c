#!/usr/bin/env python3
"""Federation walk-through (§4.5): one API, two clusters.

A Sophia-like and a Polaris-like cluster both host the same model behind a
single cluster-agnostic API URL.  The gateway's priority router sends each
request to (1) an endpoint where the model is already active, else (2) a
cluster with free nodes, else (3) the first configured endpoint.  The
router is a :class:`~repro.placement.PlacementPolicy` over
``deployment.topology``, which lists the endpoints in configuration order —
that order is the priority.

Run:  python examples/federated_routing.py
"""

from repro.cluster import JobRequest
from repro.core import FIRSTDeployment

MODEL = "meta-llama/Llama-3.1-8B-Instruct"


def show_jobs(client) -> None:
    for job in client.jobs():
        print(f"    {job['cluster']:<8s} {job['model']:<40s} {job['state']}")


def main() -> None:
    deployment = FIRSTDeployment.federated(model=MODEL, sophia_nodes=2, polaris_nodes=2)
    client = deployment.client("benchmark@anl.gov")
    print("Federated deployment:", ", ".join(deployment.clusters))

    # Scenario 1: nothing is running anywhere -> the router picks the first
    # cluster with free nodes (sophia) and triggers a cold start there.
    print("\n[1] Cold federation, first request:")
    show_jobs(client)
    response = client.chat_completion(MODEL, [{"role": "user", "content": "hello"}],
                                      max_tokens=32)
    decision = deployment.gateway.router.decisions[-1]
    print(f"    routed by rule {decision.rule!r} to {decision.cluster}")
    show_jobs(client)

    # Scenario 2: the model is now hot on sophia -> rule 1 keeps routing there
    # for low latency, even though polaris also has free nodes.
    print("\n[2] Warm instance wins (rule 1):")
    t0 = deployment.now
    client.chat_completion(MODEL, [{"role": "user", "content": "again"}], max_tokens=32)
    print(f"    warm-path latency: {deployment.now - t0:.1f}s on "
          f"{deployment.gateway.router.decisions[-1].cluster}")

    # Scenario 3: sophia becomes fully busy with other users' jobs and its
    # instance is retired; new demand flows to polaris (rule 2).
    print("\n[3] Sophia busy -> requests flow to polaris (rule 2):")
    endpoint = deployment.endpoints["ep-sophia"]
    for pool in endpoint.pools.values():
        pool.shutdown()
    scheduler = deployment.schedulers["sophia"]
    for i in range(len(deployment.clusters["sophia"].nodes)):
        scheduler.submit(JobRequest(f"other-user-{i}", num_nodes=1, walltime_s=7200.0))
    deployment.run_for(30.0)
    deployment.gateway._routing_cache.clear()  # drop the 30 s routing cache

    client.chat_completion(MODEL, [{"role": "user", "content": "busy sophia"}], max_tokens=32)
    decision = deployment.gateway.router.decisions[-1]
    print(f"    routed by rule {decision.rule!r} to {decision.cluster}")
    show_jobs(client)

    print("\nRouting decision log:")
    for d in deployment.gateway.router.decisions:
        print(f"    {d.model} -> {d.cluster:<8s} ({d.rule})")


if __name__ == "__main__":
    main()
