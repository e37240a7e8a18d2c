"""Autoscaling policy sweep: diurnal, flash-crowd and ramp traffic.

Runs the full FIRST stack (gateway → relay → endpoint → engine) with the
autoscaling control plane (`repro.autoscale`) driving a Llama-3.1-8B pool
between 1 and 3 instances under three shifting workloads, once per scaling
policy:

* ``queue_depth``          — the legacy reactive heuristic (never scales down)
* ``target_utilization``   — proportional busy-fraction control with hysteresis
* ``scheduled``            — a cron-like capacity plan tuned per scenario
* ``predictive``           — EWMA/Holt arrival forecast, pre-warms one
                             cold start ahead of ramps, drains troughs

Reported per run: p50/p99 latency, throughput, GPU-hours (scheduler
job-time accounting), scale events, and the post-quiet-tail pool state
(floor return + leak check).

Acceptance criteria (ISSUE 3, enforced by ``--check`` and at ``--write``):

* predictive beats queue-depth on p50 latency under the diurnal scenario at
  equal or lower GPU-hours;
* a pure scale-up/scale-down cycle returns the pool to its floor with zero
  leaked jobs or routes.

Usage::

    python benchmarks/bench_autoscale_policies.py            # full sweep, prints report
    python benchmarks/bench_autoscale_policies.py --write    # full+quick, writes BENCH_autoscale.json
    python benchmarks/bench_autoscale_policies.py --quick --check
        # CI smoke: small diurnal sweep, fail on an acceptance violation or
        # a large p50 drift vs the committed baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.autoscale import AutoscaleConfig  # noqa: E402
from repro.core import (  # noqa: E402
    ClusterDeploymentSpec,
    DeploymentConfig,
    ModelDeploymentSpec,
)
from repro.sweep import ArrivalSpec, ScenarioSpec, SweepRunner  # noqa: E402
from repro.workload import PoissonArrival  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_autoscale.json"
MODEL = "meta-llama/Llama-3.3-70B-Instruct"

#: Pool geometry: one 70B instance (TP=8, one Sophia-like node) saturates
#: around 2.1 req/s at 8 parallel slots and takes ~68 s to cold-start, so
#: the 0.2 -> 4 req/s swings below force 1 <-> 3 instance cycles where the
#: reactive policy pays a full cold start of queueing at every ramp.
MAX_INSTANCES = 3
SLOTS = 8
FLOOR = 1
INSTANCE_RPS = 1.8
QUIET_TAIL_S = 420.0

FULL = {
    "diurnal": {"base": 0.2, "peak": 4.0, "period_s": 500.0, "cycles": 2.0},
    "ramp": {"start": 0.2, "end": 4.0, "ramp_s": 400.0, "hold_s": 200.0},
    "flash": {"calm": 0.4, "burst": 5.0, "burst_at_s": 240.0,
              "burst_s": 60.0, "end_s": 600.0},
}
#: CI smoke: the same diurnal shape (the acceptance scenario), two policies.
#: A faster cycle would under-sell the forecast honestly — a 90 s quarter-
#: period approaches the 68 s cold start, where nothing can pre-warm in time.
QUICK = {
    "diurnal": {"base": 0.2, "peak": 4.0, "period_s": 500.0, "cycles": 2.0},
}
FULL_POLICIES = ["queue_depth", "target_utilization", "scheduled", "predictive"]
QUICK_POLICIES = ["queue_depth", "predictive"]

#: --check tolerance on per-run p50 drift vs the committed baseline.  Runs
#: are deterministic, so this only absorbs numeric drift across
#: numpy/python versions.
P50_TOLERANCE = 0.20


# ------------------------------------------------------------------ scenarios
def make_arrival_spec_and_count(scenario: str, params: dict):
    if scenario == "diurnal":
        arrival = ArrivalSpec(kind="diurnal", seed=11, params={
            "base_rate": params["base"], "peak_rate": params["peak"],
            "period_s": params["period_s"]})
        duration = params["period_s"] * params["cycles"]
        mean_rate = (params["base"] + params["peak"]) / 2.0
        return arrival, int(mean_rate * duration)
    if scenario == "ramp":
        arrival = ArrivalSpec(kind="ramp", seed=31, params={
            "start_rate": params["start"], "end_rate": params["end"],
            "ramp_s": params["ramp_s"]})
        mean_ramp = (params["start"] + params["end"]) / 2.0
        n = int(mean_ramp * params["ramp_s"] + params["end"] * params["hold_s"])
        return arrival, n
    if scenario == "flash":
        # A flash crowd is not a closed-form process: build the trace from
        # three Poisson segments and replay it.
        calm = [t for t in PoissonArrival(params["calm"], seed=21).offsets(2000)
                if t < params["burst_at_s"]]
        burst = [params["burst_at_s"] + t
                 for t in PoissonArrival(params["burst"], seed=22).offsets(2000)
                 if t < params["burst_s"]]
        tail_start = params["burst_at_s"] + params["burst_s"]
        tail = [tail_start + t
                for t in PoissonArrival(params["calm"], seed=23).offsets(2000)
                if t < params["end_s"] - tail_start]
        trace = sorted(calm + burst + tail)
        arrival = ArrivalSpec(kind="trace",
                              params={"trace": trace, "name": "flash-crowd"})
        return arrival, len(trace)
    raise ValueError(f"unknown scenario {scenario!r}")


def autoscale_config(policy: str, scenario: str, params: dict) -> AutoscaleConfig:
    common = dict(min_instances=FLOOR, max_instances=MAX_INSTANCES, interval_s=15.0)
    if policy == "queue_depth":
        # The legacy endpoint heuristic, verbatim: reactive scale-up at 8
        # waiting tasks per ready instance, never scales down.
        return AutoscaleConfig(policy="queue_depth", queue_per_instance=8,
                               scale_down=False, **common)
    if policy == "target_utilization":
        return AutoscaleConfig(policy="target_utilization",
                               target_utilization=0.6, deadband=0.2,
                               cooldown_up_s=30.0, cooldown_down_s=90.0, **common)
    if policy == "scheduled":
        if scenario == "diurnal":
            period = params["period_s"]
            schedule = [(0.0, 1), (0.15 * period, 2), (0.25 * period, 3),
                        (0.75 * period, 2), (0.85 * period, 1)]
            return AutoscaleConfig(policy="scheduled", schedule=schedule,
                                   schedule_period_s=period, **common)
        if scenario == "ramp":
            schedule = [(0.0, 1), (0.3 * params["ramp_s"], 2),
                        (0.7 * params["ramp_s"], 3)]
        else:  # flash: the operator knows when the sale starts
            schedule = [(0.0, 1), (params["burst_at_s"] - 60.0, 3),
                        (params["burst_at_s"] + params["burst_s"] + 120.0, 1)]
        return AutoscaleConfig(policy="scheduled", schedule=schedule,
                               schedule_period_s=10 * 86400.0, **common)
    if policy == "predictive":
        return AutoscaleConfig(policy="predictive", ewma_alpha=0.4,
                               trend_beta=0.3, instance_rps=INSTANCE_RPS,
                               headroom=0.2, scale_down_hold_s=90.0, **common)
    raise ValueError(f"unknown policy {policy!r}")


# ------------------------------------------------------------------ one run
def build_cell(policy: str, scenario: str, params: dict) -> ScenarioSpec:
    """One (policy, scenario) cell on the full FIRST stack."""
    arrival, num_requests = make_arrival_spec_and_count(scenario, params)
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="autoscale", kind="sophia", num_nodes=MAX_INSTANCES + 1,
                scheduler="pbs",
                models=[ModelDeploymentSpec(
                    MODEL, max_instances=MAX_INSTANCES,
                    max_parallel_tasks=SLOTS,
                    autoscale=autoscale_config(policy, scenario, params),
                )],
            )
        ],
        users=["benchmark@anl.gov"],
        generate_text=False,
    )
    return ScenarioSpec(
        key=f"autoscale/{scenario}/{policy}",
        runner="autoscale_policy",
        model=MODEL,
        num_requests=num_requests,
        arrival=arrival,
        params={"deployment": config, "policy": policy, "scenario": scenario,
                "floor": FLOOR, "quiet_tail_s": QUIET_TAIL_S},
        tags={"scenario": scenario, "policy": policy},
    )


# ------------------------------------------------------------------ sweep + checks
def run_sweep(scenarios: dict, policies) -> list:
    cells = [build_cell(policy, scenario, params)
             for scenario, params in scenarios.items()
             for policy in policies]
    workers = int(os.environ.get("BENCH_SWEEP_WORKERS", "1"))
    result = SweepRunner(workers=workers).run(cells)
    if not result.ok:
        for failure in result.failures:
            print(f"FAIL: {failure.key}\n{failure.error}")
        raise RuntimeError(f"{len(result.failures)} autoscale cells failed")
    entries = []
    for shard in result:
        entry = shard.payload["entry"]
        print_entry(entry)
        entries.append(entry)
    return entries


def print_entry(e: dict) -> None:
    print(f"  {e['scenario']:<8s} {e['policy']:<19s} "
          f"p50={e['p50_latency_s']:>7.2f}s p99={e['p99_latency_s']:>7.2f}s "
          f"gpu-h={e['gpu_hours']:>6.2f} peak={e['peak_instances']} "
          f"drains={e['drains']} final={e['final_ready']} "
          f"leaked_jobs={max(0, e['active_jobs_after_tail'] - e['final_ready'])}")


def find(entries, scenario, policy):
    for e in entries:
        if e["scenario"] == scenario and e["policy"] == policy:
            return e
    return None


def acceptance_failures(entries) -> list:
    failures = []
    queue = find(entries, "diurnal", "queue_depth")
    pred = find(entries, "diurnal", "predictive")
    if queue and pred:
        if pred["p50_latency_s"] >= queue["p50_latency_s"]:
            failures.append(
                f"predictive p50 {pred['p50_latency_s']}s does not beat "
                f"queue_depth p50 {queue['p50_latency_s']}s under diurnal load"
            )
        if pred["gpu_hours"] > queue["gpu_hours"] + 1e-9:
            failures.append(
                f"predictive gpu-hours {pred['gpu_hours']} exceed "
                f"queue_depth gpu-hours {queue['gpu_hours']}"
            )
    for e in entries:
        if e["num_successful"] != e["num_requests"]:
            failures.append(f"{e['scenario']}/{e['policy']}: "
                            f"{e['num_requests'] - e['num_successful']} requests failed")
        if not e["route_probe_ok"]:
            failures.append(f"{e['scenario']}/{e['policy']}: route probe failed "
                            "after the scale cycle")
        # No leaked jobs, ever: every active scheduler job must back a live
        # (provisioned or draining) instance.
        expected_jobs = e["final_provisioned"] + e["final_draining"]
        if e["active_jobs_after_tail"] != expected_jobs:
            failures.append(f"{e['scenario']}/{e['policy']}: leaked scheduler "
                            f"jobs ({e['active_jobs_after_tail']} active for "
                            f"{expected_jobs} live instances)")
        # Demand-driven scale-down policies must land back on the floor after
        # the quiet tail (a cron plan legitimately keeps following its plan).
        if e["drains"] > 0 and e["policy"] != "scheduled":
            if e["final_ready"] != FLOOR or e["final_draining"] != 0:
                failures.append(f"{e['scenario']}/{e['policy']}: pool did not "
                                f"return to floor ({e['final_ready']} ready, "
                                f"{e['final_draining']} draining)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI sweep (diurnal, queue_depth vs predictive)")
    parser.add_argument("--write", action="store_true",
                        help="run full + quick sweeps and write the baseline JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail on acceptance violations or p50 drift vs baseline")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    if args.write:
        print("=== autoscaling policy sweep (full) ===")
        full = run_sweep(FULL, FULL_POLICIES)
        print("=== autoscaling policy sweep (quick) ===")
        quick = run_sweep(QUICK, QUICK_POLICIES)
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
    scenarios = QUICK if args.quick else FULL
    policies = QUICK_POLICIES if args.quick else FULL_POLICIES
    print(f"=== autoscaling policy sweep ({key}) ===")
    entries = run_sweep(scenarios, policies)

    failures = acceptance_failures(entries)
    if args.check and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())[key]
        for entry in entries:
            ref = find(baseline, entry["scenario"], entry["policy"])
            if ref is None:
                continue
            expected = ref["p50_latency_s"]
            got = entry["p50_latency_s"]
            if expected > 0 and abs(got - expected) / expected > P50_TOLERANCE:
                failures.append(
                    f"{entry['scenario']}/{entry['policy']}: p50 {got}s drifted "
                    f">{P50_TOLERANCE:.0%} from baseline {expected}s"
                )
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("OK: autoscaling acceptance criteria hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
