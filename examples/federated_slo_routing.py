#!/usr/bin/env python3
"""Federation v2 demo: SLO-aware routing over two clusters.

Two clusters host the same model: "east" (the primary — first in the
deployment's :class:`~repro.placement.TopologyView`, the federation's
ordered endpoint list) and "west" (a spill cluster with no warm floor).
Traffic follows a diurnal cycle with a flash crowd on top, deliberately
exceeding east's instance ceiling at the peak.

The placement plane handles it end to end:

* the :class:`~repro.placement.SLORouter` watches east's gateway-observed
  p50 against a latency SLO and sheds overflow to west while it breaches
  (with hold-based hysteresis, so shed/recover cannot flap);
* each pool runs the ``federated`` autoscaling policy over the same shared
  :class:`~repro.placement.TopologyView`: west boots an instance when shed
  traffic arrives and drains it (drain-before-terminate) once the fleet's
  queues rebalance;
* a per-tenant capacity reservation guarantees the "vip" tenant concurrent
  slots fleet-wide, enforced by the reservation pipeline stage.

Run:  python examples/federated_slo_routing.py
"""

from repro.autoscale import AutoscaleConfig
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.gateway import default_middleware_factories
from repro.placement import ReservationMiddleware, SLORouter
from repro.workload import BenchmarkClient, DiurnalArrival, ShareGPTWorkload

MODEL = "meta-llama/Llama-3.1-8B-Instruct"
LATENCY_SLO_S = 10.0


def build_deployment() -> FIRSTDeployment:
    def scaling(floor: int, ceiling: int) -> AutoscaleConfig:
        return AutoscaleConfig(
            policy="federated", min_instances=floor, max_instances=ceiling,
            interval_s=15.0, queue_per_instance=8,
            scale_down_hold_s=60.0, imbalance_ratio=2.0, imbalance_hold_s=30.0,
        )

    factories = default_middleware_factories()
    factories.insert(2, ReservationMiddleware.factory())

    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="east", kind="small", num_nodes=2, scheduler="pbs",
                models=[ModelHostingConfig(
                    MODEL, max_instances=2, max_parallel_tasks=8,
                    autoscale=scaling(floor=1, ceiling=2),
                )],
            ),
            ClusterDeploymentSpec(
                name="west", kind="small", num_nodes=2, scheduler="pbs",
                models=[ModelHostingConfig(
                    MODEL, max_instances=1, max_parallel_tasks=8,
                    autoscale=scaling(floor=0, ceiling=1),
                )],
            ),
        ],
        users=["demo@anl.gov", "vip@anl.gov"],
        generate_text=False,
    )
    deployment = FIRSTDeployment(config)
    deployment.config.gateway.middleware_factories = factories
    # Rebuild the pipeline so the reservation stage is part of the chain.
    from repro.gateway.pipeline import GatewayPipeline
    gw = deployment.gateway
    gw.pipeline = GatewayPipeline([f(gw) for f in factories])
    # Swap the paper's priority router for the SLO-aware one.
    gw.router = SLORouter(
        deployment.topology, default_slo_s=LATENCY_SLO_S,
        breach_hold_s=20.0, recover_ratio=0.6, recover_hold_s=60.0,
    )
    gw.config.routing_cache_ttl_s = 5.0
    return deployment


def main() -> None:
    deployment = build_deployment()
    print("Federation v2 fleet:", ", ".join(deployment.clusters))

    deployment.warm_up(MODEL, instances=1, endpoint_id="ep-east")
    client = deployment.client("demo@anl.gov")

    # Diurnal day/night traffic whose peak exceeds east's 2-instance
    # ceiling: the placement plane has to recruit west to hold the SLO.
    arrival = DiurnalArrival(base_rate=0.3, peak_rate=6.5, period_s=400.0, seed=7)
    requests = ShareGPTWorkload().generate(MODEL, num_requests=2000)
    bench = BenchmarkClient(deployment.env, client, label="federation-v2")
    proc = deployment.env.process(
        bench.run(requests, arrival=arrival, summary_label="slo+federated")
    )
    summary = deployment.env.run(until=proc)

    print(f"\n{summary.row()}")
    print(f"p99 latency        : {summary.p99_latency_s:.2f}s (SLO p50 {LATENCY_SLO_S:.0f}s)")

    router = deployment.gateway.router
    print("\nRouting decisions  :", dict(router.decisions_by_endpoint))
    print("Decision rules     :", dict(router.decisions_by_rule))
    transitions = router.shed_transitions(MODEL, "demo@anl.gov")
    print("Shed transitions   :",
          [("shed" if s else "recover", round(t, 1)) for t, s in transitions])

    for name in ("east", "west"):
        pool = deployment.endpoints[f"ep-{name}"].pools[MODEL]
        snap = pool.replicas.snapshot()
        print(f"{name:<5s} scale events : launches={snap['launches']} "
              f"drains={snap['drains']} "
              f"shifts_out={getattr(pool.replicas.policy, 'shifts_out', 0)}")

    gpu_hours = sum(s.gpu_seconds() for s in deployment.schedulers.values()) / 3600.0
    print(f"Fleet GPU-hours    : {gpu_hours:.2f}")

    # Per-tenant capacity reservations: hand the whole fleet to the vip
    # tenant and watch the reservation stage admit vip while rejecting
    # best-effort traffic with a typed overloaded_error envelope.
    capacity = deployment.topology.fleet_slot_capacity(MODEL)
    deployment.topology.reserve("vip@anl.gov", MODEL, capacity)
    print(f"\nReserved all {capacity} fleet slots of {MODEL} for vip@anl.gov")
    vip = deployment.client("vip@anl.gov")
    response = vip.chat_completion(
        MODEL, [{"role": "user", "content": "priority lane, please"}], max_tokens=16)
    print(f"vip request served : {response['usage']['completion_tokens']} tokens")
    besteffort = deployment.client("demo@anl.gov", raise_on_error=False)
    rejected = besteffort.chat_completion(
        MODEL, [{"role": "user", "content": "standby"}], max_tokens=16)
    print(f"best-effort request: {rejected['error']['type']} "
          f"({rejected['error']['code']})")


if __name__ == "__main__":
    main()
