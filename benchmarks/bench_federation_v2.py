"""Federation v2 sweep: routing policy x cross-cluster scaling policy.

The scenario that motivates the placement plane: demand concentrates on the
primary cluster ("east") because the paper's priority rule pins every
request to the active instance there, while the secondary cluster ("west")
idles.  Peak traffic exceeds east's instance ceiling, so the only way to
hold the latency SLO is to *use the fleet*: shed requests to west
(SLO-aware routing) and shift replica capacity between the clusters on
sustained queue imbalance (federated autoscaling).

Swept combinations (router + per-cluster scaling policy):

* ``priority+queue_depth``     — the paper's §4.5 rule + the legacy
                                 reactive heuristic (never scales down)
* ``least_loaded+queue_depth`` — spread by queue depth/busy fraction
* ``slo+queue_depth``          — shed on SLO breach, plain local scaling
* ``priority+federated``       — paper routing, cross-cluster shifting
* ``slo+federated``            — the full Federation v2 placement plane

Reported per run: p50/p99 latency, throughput, fleet GPU-hours (both
schedulers), per-endpoint routing decisions, scale events and capacity
shifts, plus post-quiet-tail leak checks.

Acceptance criteria (ISSUE 4, enforced by ``--check`` and at ``--write``):

* ``slo+federated`` beats ``priority+queue_depth`` on p99 latency at equal
  or lower GPU-hours under the imbalanced diurnal scenario;
* the paper's priority rule itself keeps reproducing (its ablation parity
  is asserted separately by ``bench_federation.py``).

Usage::

    python benchmarks/bench_federation_v2.py            # full sweep, prints report
    python benchmarks/bench_federation_v2.py --write    # full+quick, writes BENCH_federation.json
    python benchmarks/bench_federation_v2.py --quick --check
        # CI smoke: two-combo diurnal sweep, fail on an acceptance violation
        # or a large p99 drift vs the committed baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.autoscale import AutoscaleConfig  # noqa: E402
from repro.core import (  # noqa: E402
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.placement import LeastLoadedRouter, PriorityRouter, SLORouter  # noqa: E402
from repro.workload import (  # noqa: E402
    BenchmarkClient,
    DiurnalArrival,
    PoissonArrival,
    ShareGPTWorkload,
    TraceReplayArrival,
)

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_federation.json"
MODEL = "meta-llama/Llama-3.3-70B-Instruct"

#: One 70B instance (TP=8) saturates around 2.1 req/s at 8 slots; the peak
#: below exceeds the primary cluster's 2-instance ceiling, so only a fleet
#: that routes AND scales across clusters can absorb it.
MAX_INSTANCES = 2
SLOTS = 8
QUIET_TAIL_S = 600.0
LATENCY_SLO_S = 15.0

FULL_SCENARIOS = {
    "diurnal": {"base": 0.2, "peak": 6.0, "period_s": 500.0, "cycles": 2.0},
    "flash": {"calm": 0.4, "burst": 6.0, "burst_at_s": 240.0,
              "burst_s": 90.0, "end_s": 700.0},
}
FULL_COMBOS = {
    "diurnal": [
        "priority+queue_depth",
        "least_loaded+queue_depth",
        "slo+queue_depth",
        "priority+federated",
        "slo+federated",
    ],
    "flash": ["priority+queue_depth", "slo+federated"],
}
QUICK_SCENARIOS = {
    "diurnal": {"base": 0.2, "peak": 6.0, "period_s": 500.0, "cycles": 2.0},
}
QUICK_COMBOS = {"diurnal": ["priority+queue_depth", "slo+federated"]}

#: --check tolerance on per-run p99 drift vs the committed baseline.
P99_TOLERANCE = 0.25


# ------------------------------------------------------------------ scenarios
def make_arrival_and_count(scenario: str, params: dict):
    if scenario == "diurnal":
        arrival = DiurnalArrival(params["base"], params["peak"],
                                 period_s=params["period_s"], seed=11)
        duration = params["period_s"] * params["cycles"]
        mean_rate = (params["base"] + params["peak"]) / 2.0
        return arrival, int(mean_rate * duration)
    if scenario == "flash":
        calm = [t for t in PoissonArrival(params["calm"], seed=21).offsets(4000)
                if t < params["burst_at_s"]]
        burst = [params["burst_at_s"] + t
                 for t in PoissonArrival(params["burst"], seed=22).offsets(4000)
                 if t < params["burst_s"]]
        tail_start = params["burst_at_s"] + params["burst_s"]
        tail = [tail_start + t
                for t in PoissonArrival(params["calm"], seed=23).offsets(4000)
                if t < params["end_s"] - tail_start]
        trace = sorted(calm + burst + tail)
        return TraceReplayArrival(trace, name="flash-crowd"), len(trace)
    raise ValueError(f"unknown scenario {scenario!r}")


# ------------------------------------------------------------------ deployment
def autoscale_config(policy: str, floor: int, ceiling: int) -> AutoscaleConfig:
    common = dict(min_instances=floor, max_instances=ceiling,
                  interval_s=15.0, queue_per_instance=SLOTS)
    if policy == "queue_depth":
        # The legacy heuristic verbatim: reactive scale-up, never down.
        return AutoscaleConfig(policy="queue_depth", scale_down=False, **common)
    if policy == "federated":
        return AutoscaleConfig(policy="federated", scale_down_hold_s=60.0,
                               imbalance_ratio=2.0, imbalance_hold_s=15.0,
                               **common)
    raise ValueError(f"unknown scaling policy {policy!r}")


def build_deployment(scaling: str) -> FIRSTDeployment:
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="east", kind="sophia", num_nodes=MAX_INSTANCES + 1,
                scheduler="pbs",
                models=[ModelHostingConfig(
                    MODEL, max_instances=MAX_INSTANCES, max_parallel_tasks=SLOTS,
                    autoscale=autoscale_config(scaling, floor=1,
                                               ceiling=MAX_INSTANCES),
                )],
            ),
            # West is the spill cluster: one instance of headroom the
            # placement plane may recruit when east saturates.
            ClusterDeploymentSpec(
                name="west", kind="sophia", num_nodes=2,
                scheduler="pbs",
                models=[ModelHostingConfig(
                    MODEL, max_instances=1, max_parallel_tasks=SLOTS,
                    autoscale=autoscale_config(scaling, floor=0, ceiling=1),
                )],
            ),
        ],
        users=["benchmark@anl.gov"],
        generate_text=False,
    )
    deployment = FIRSTDeployment(config)
    # Routing decisions must track shifting load faster than the default
    # 30 s cache; identical for every combo so the comparison is fair.
    deployment.gateway.config.routing_cache_ttl_s = 5.0
    return deployment


def make_router(name: str, deployment: FIRSTDeployment):
    view = deployment.topology
    if name == "priority":
        return PriorityRouter(view)
    if name == "least_loaded":
        return LeastLoadedRouter(view)
    if name == "slo":
        return SLORouter(view, default_slo_s=LATENCY_SLO_S,
                         breach_hold_s=20.0, recover_ratio=0.6,
                         recover_hold_s=60.0)
    raise ValueError(f"unknown router {name!r}")


# ------------------------------------------------------------------ one run
def run_combo(combo: str, scenario: str, params: dict) -> dict:
    router_name, scaling = combo.split("+")
    arrival, num_requests = make_arrival_and_count(scenario, params)
    deployment = build_deployment(scaling)
    deployment.gateway.router = make_router(router_name, deployment)

    deployment.warm_up(MODEL, instances=1, endpoint_id="ep-east")
    client = deployment.client("benchmark@anl.gov")
    warm = client.submit(
        ShareGPTWorkload().generate(MODEL, num_requests=1, id_prefix="warmup")[0]
    )
    deployment.env.run(until=warm)
    traffic_start = deployment.now

    requests = ShareGPTWorkload().generate(MODEL, num_requests=num_requests)
    bench = BenchmarkClient(deployment.env, client, label=combo)
    proc = deployment.env.process(
        bench.run(requests, arrival=arrival,
                  summary_label=f"{combo} @ {arrival.label}")
    )
    summary = deployment.env.run(until=proc)

    router = deployment.gateway.router
    pools = {name: deployment.endpoints[f"ep-{name}"].pools[MODEL]
             for name in ("east", "west")}
    shifts_out = shifts_in = 0
    for pool in pools.values():
        policy = pool.replicas.policy
        shifts_out += getattr(policy, "shifts_out", 0)
        shifts_in += getattr(policy, "shifts_in", 0)

    # Quiet tail: scale-down-capable fleets must shed their excess with
    # nothing leaked.  GPU-hours are charged through the tail, so holding
    # idle capacity (the legacy never-scale-down heuristic) costs what it
    # costs in a real allocation.
    deployment.run_for(QUIET_TAIL_S)
    gpu_hours = sum(s.gpu_seconds() for s in deployment.schedulers.values()) / 3600.0
    leaked = 0
    for name in ("east", "west"):
        scheduler = deployment.schedulers[name]
        active = len([j for j in scheduler.all_jobs if not j.state.terminal])
        pool = pools[name]
        leaked += max(0, active - pool.signal().provisioned_instances - len(pool.draining))
    probe = client.chat_completion(
        MODEL, [{"role": "user", "content": "post-sweep route probe"}],
        max_tokens=16,
    )
    return {
        "combo": combo,
        "router": router_name,
        "scaling": scaling,
        "scenario": scenario,
        "label": summary.label,
        "num_requests": summary.num_requests,
        "num_successful": summary.num_successful,
        "duration_s": round(summary.duration_s, 1),
        "traffic_start_s": round(traffic_start, 1),
        "throughput_req_s": round(summary.request_throughput, 3),
        "p50_latency_s": round(summary.median_latency_s, 3),
        "mean_latency_s": round(summary.mean_latency_s, 3),
        "p99_latency_s": round(summary.p99_latency_s, 3),
        "gpu_hours": round(gpu_hours, 3),
        "routed": dict(router.decisions_by_endpoint),
        "rules": dict(router.decisions_by_rule),
        "launches": sum(p.replicas.launches for p in pools.values()),
        "drains": sum(p.replicas.drains for p in pools.values()),
        "shifts_out": shifts_out,
        "shifts_in": shifts_in,
        "final_ready": {n: len(p.ready_instances) for n, p in pools.items()},
        "leaked_jobs": leaked,
        "route_probe_ok": "error" not in probe,
    }


# ------------------------------------------------------------------ sweep + checks
def run_sweep(scenarios: dict, combos: dict) -> list:
    entries = []
    for scenario, params in scenarios.items():
        for combo in combos[scenario]:
            entry = run_combo(combo, scenario, params)
            print_entry(entry)
            entries.append(entry)
    return entries


def print_entry(e: dict) -> None:
    west = e["routed"].get("ep-west", 0)
    total = max(1, sum(e["routed"].values()))
    print(f"  {e['scenario']:<8s} {e['combo']:<26s} "
          f"p50={e['p50_latency_s']:>7.2f}s p99={e['p99_latency_s']:>7.2f}s "
          f"gpu-h={e['gpu_hours']:>6.2f} west-routed={west}/{total} "
          f"shifts={e['shifts_out']}/{e['shifts_in']} "
          f"leaked={e['leaked_jobs']}")


def find(entries, scenario, combo):
    for e in entries:
        if e["scenario"] == scenario and e["combo"] == combo:
            return e
    return None


def acceptance_failures(entries) -> list:
    failures = []
    baseline = find(entries, "diurnal", "priority+queue_depth")
    v2 = find(entries, "diurnal", "slo+federated")
    if baseline and v2:
        if v2["p99_latency_s"] >= baseline["p99_latency_s"]:
            failures.append(
                f"slo+federated p99 {v2['p99_latency_s']}s does not beat "
                f"priority+queue_depth p99 {baseline['p99_latency_s']}s"
            )
        if v2["gpu_hours"] > baseline["gpu_hours"] + 1e-9:
            failures.append(
                f"slo+federated gpu-hours {v2['gpu_hours']} exceed "
                f"priority+queue_depth gpu-hours {baseline['gpu_hours']}"
            )
        if not v2["routed"].get("ep-west"):
            failures.append("slo+federated never shed a request to ep-west")
    for e in entries:
        if e["num_successful"] != e["num_requests"]:
            failures.append(f"{e['scenario']}/{e['combo']}: "
                            f"{e['num_requests'] - e['num_successful']} requests failed")
        if not e["route_probe_ok"]:
            failures.append(f"{e['scenario']}/{e['combo']}: route probe failed "
                            "after the sweep")
        if e["leaked_jobs"]:
            failures.append(f"{e['scenario']}/{e['combo']}: "
                            f"{e['leaked_jobs']} leaked scheduler jobs")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI sweep (diurnal, baseline vs slo+federated)")
    parser.add_argument("--write", action="store_true",
                        help="run full + quick sweeps and write the baseline JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail on acceptance violations or p99 drift vs baseline")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    if args.write:
        print("=== federation v2 sweep (full) ===")
        full = run_sweep(FULL_SCENARIOS, FULL_COMBOS)
        print("=== federation v2 sweep (quick) ===")
        quick = run_sweep(QUICK_SCENARIOS, QUICK_COMBOS)
        failures = acceptance_failures(full) + acceptance_failures(quick)
        if failures:
            for f in failures:
                print(f"FAIL: {f}")
            return 1
        args.baseline.write_text(
            json.dumps({"full": full, "quick": quick}, indent=2) + "\n"
        )
        print(f"\nwrote {args.baseline}")
        return 0

    key = "quick" if args.quick else "full"
    scenarios = QUICK_SCENARIOS if args.quick else FULL_SCENARIOS
    combos = QUICK_COMBOS if args.quick else FULL_COMBOS
    print(f"=== federation v2 sweep ({key}) ===")
    entries = run_sweep(scenarios, combos)

    failures = acceptance_failures(entries)
    if args.check and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())[key]
        for entry in entries:
            ref = find(baseline, entry["scenario"], entry["combo"])
            if ref is None:
                continue
            expected = ref["p99_latency_s"]
            got = entry["p99_latency_s"]
            if expected > 0 and abs(got - expected) / expected > P99_TOLERANCE:
                failures.append(
                    f"{entry['scenario']}/{entry['combo']}: p99 {got}s drifted "
                    f">{P99_TOLERANCE:.0%} from baseline {expected}s"
                )
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("OK: federation v2 acceptance criteria hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
