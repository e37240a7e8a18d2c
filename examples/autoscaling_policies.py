#!/usr/bin/env python3
"""Autoscaling policies under a diurnal workload.

Runs the same day/night traffic cycle twice against a FIRST deployment —
once with the reactive queue-depth policy (the legacy endpoint heuristic,
which never scales down) and once with the predictive EWMA/Holt policy
(which pre-warms one cold start ahead of the morning ramp and drains the
night trough) — and prints the scale-event timelines plus the latency and
GPU-hour trade-off.

Everything runs inside the deterministic simulation: no GPUs needed, and
the run finishes in a few seconds.

Run:  python examples/autoscaling_policies.py
"""

from repro.core import (
    AutoscaleConfig,
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.workload import BenchmarkClient, DiurnalArrival, ShareGPTWorkload

MODEL = "meta-llama/Llama-3.3-70B-Instruct"
PERIOD_S = 500.0        # one compressed "day"
BASE, PEAK = 0.2, 4.0   # night vs noon request rate (req/s)
NUM_REQUESTS = 1200


def autoscale_config(policy: str) -> AutoscaleConfig:
    common = dict(min_instances=1, max_instances=3, interval_s=15.0)
    if policy == "queue_depth":
        return AutoscaleConfig(policy="queue_depth", queue_per_instance=8,
                               scale_down=False, **common)
    return AutoscaleConfig(policy="predictive", ewma_alpha=0.4, trend_beta=0.3,
                           instance_rps=1.8, headroom=0.2,
                           scale_down_hold_s=90.0, **common)


def run_policy(policy: str) -> dict:
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="hpc", kind="sophia", num_nodes=4, scheduler="pbs",
                models=[ModelHostingConfig(MODEL, max_instances=3,
                                           max_parallel_tasks=8,
                                           autoscale=autoscale_config(policy))],
            )
        ],
        users=["ops@anl.gov"],
        generate_text=False,
    )
    deployment = FIRSTDeployment(config)
    deployment.warm_up(MODEL, instances=1)
    client = deployment.client("ops@anl.gov")

    arrival = DiurnalArrival(BASE, PEAK, period_s=PERIOD_S, seed=11)
    requests = ShareGPTWorkload().generate(MODEL, num_requests=NUM_REQUESTS)
    bench = BenchmarkClient(deployment.env, client, label=policy)
    proc = deployment.env.process(bench.run(requests, arrival=arrival))
    summary = deployment.env.run(until=proc)

    pool = deployment.endpoints["ep-hpc"].pools[MODEL]
    scheduler = deployment.schedulers["hpc"]
    gpu_hours = scheduler.gpu_seconds() / 3600.0
    deployment.run_for(400.0)  # quiet night: scale-down policies drain

    return {
        "summary": summary,
        "actions": pool.replicas.actions,
        "gpu_hours": gpu_hours,
        "final_ready": len(pool.ready_instances),
        "jobs_drained": scheduler.jobs_drained,
    }


def main() -> None:
    print(f"Two compressed days of {BASE:g}->{PEAK:g} req/s diurnal traffic "
          f"against {MODEL}\n(1-3 instances, ~68 s cold start per instance)\n")
    results = {}
    for policy in ("queue_depth", "predictive"):
        results[policy] = run_policy(policy)
        r = results[policy]
        s = r["summary"]
        print(f"=== {policy} ===")
        print(f"  p50 latency : {s.median_latency_s:7.2f} s")
        print(f"  p99 latency : {s.p99_latency_s:7.2f} s")
        print(f"  GPU-hours   : {r['gpu_hours']:7.2f}")
        print(f"  scale events ({len(r['actions'])}):")
        for action in r["actions"]:
            print(f"    t={action['time']:7.1f}s  {action['from']} -> "
                  f"{action['to']:<2d} ({action['reason']})")
        print(f"  instances drained back down: {r['jobs_drained']}, "
              f"pool ends at {r['final_ready']} instance(s)\n")

    queue, pred = results["queue_depth"], results["predictive"]
    print("The predictive policy pre-warms before each morning ramp (watch the")
    print("scale-ups land ~1 cold start before the reactive ones) and drains the")
    print("night trough:")
    print(f"  p50: {pred['summary'].median_latency_s:.2f}s vs "
          f"{queue['summary'].median_latency_s:.2f}s   "
          f"p99: {pred['summary'].p99_latency_s:.2f}s vs "
          f"{queue['summary'].p99_latency_s:.2f}s   "
          f"GPU-h: {pred['gpu_hours']:.2f} vs {queue['gpu_hours']:.2f}")


if __name__ == "__main__":
    main()
