"""Observability overhead benchmark: tracing must be observe-only and cheap.

Replays a ShareGPT workload through a full deployment (gateway pipeline →
relay → endpoint → engine) three times:

* ``off``       — no observability middleware at all (the baseline);
* ``sampling_off`` — observability enabled with ``sample_rate=0`` and no
  slowest-K reservoir: no trace has a path to retention, so the stage takes
  its span-free fast path.  This is the
  production posture for high-rate sweeps, and the **gated** mode: its
  wall-clock overhead over ``off`` must stay under 5%;
* ``full``      — every trace retained (``sample_rate=1``) plus the kernel
  profiler, reporting the cost ceiling of span recording (not gated; head
  sampling exists precisely to bound it).

All three modes must produce a bit-identical simulated-timing checksum —
tracing performs no simulated-time spends, schedules no events and draws no
RNG, and the benchmark fails loudly if that ever regresses.

Usage::

    python benchmarks/bench_obs_overhead.py             # full run, prints report
    python benchmarks/bench_obs_overhead.py --write     # writes BENCH_obs.json
    python benchmarks/bench_obs_overhead.py --quick --check
        # CI smoke: fail on a checksum mismatch or a sampling-off overhead
        # above the gate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (  # noqa: E402
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelDeploymentSpec,
    ObservabilityConfig,
)
from repro.workload import PoissonArrival, ShareGPTWorkload  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_obs.json"
MODEL = "Qwen/Qwen2.5-7B-Instruct"

FULL_SCENARIO = {"num_requests": 1200, "rate": 6.0, "repeats": 9}
#: CI smoke: shorter runs are noisier per round (±15% single-round ratio
#: spread on a shared runner), so the quick scenario takes the median over
#: more rounds instead.
QUICK_SCENARIO = {"num_requests": 600, "rate": 6.0, "repeats": 9}

#: Acceptance gate (ISSUE 8): wall-clock overhead of the sampling-off mode.
#: ``--write`` enforces it strictly — the committed baseline is the
#: authoritative record that the gate holds.  The quick CI smoke adds a
#: noise margin: it exists to catch gross regressions (span recording
#: leaking back into the sampling-off fast path costs +35%), not to re-prove
#: the 5% bound on a shared runner.
OVERHEAD_GATE = 0.05
QUICK_NOISE_MARGIN = 0.05

MODES = {
    "off": None,
    "sampling_off": ObservabilityConfig(sample_rate=0.0, slowest_k=0),
    "full": ObservabilityConfig(sample_rate=1.0, profile_kernel=True),
}


def run_mode(observability, num_requests: int, rate: float) -> dict:
    """One deployment-level replay; returns wall clock + timing checksum."""
    deployment = FIRSTDeployment(DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="bench", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(MODEL, max_parallel_tasks=32)],
            )
        ],
        users=["bench@anl.gov"],
        generate_text=False,
        observability=observability,
    ))
    deployment.warm_up(MODEL)
    token = deployment.client("bench@anl.gov").access_token
    requests = ShareGPTWorkload().generate(MODEL, num_requests=num_requests)
    offsets = PoissonArrival(rate=rate, seed=11).offsets(num_requests)
    env = deployment.env
    result_events = []

    def driver(env):
        last = 0.0
        for request, offset in zip(requests, offsets):
            if offset > last:
                yield env.timeout(offset - last)
                last = offset
            result_events.append(deployment.gateway.submit_request(token, request))
        yield env.all_of(result_events)

    proc = env.process(driver(env))
    wall_start = time.perf_counter()
    env.run(until=proc)
    wall_s = time.perf_counter() - wall_start

    digest = hashlib.sha256()
    for event in result_events:
        r = event.value
        digest.update(repr((r.request_id, r.success, r.output_tokens,
                            r.prefill_start_time, r.first_token_time,
                            r.completion_time)).encode())
    out = {
        "wall_s": round(wall_s, 4),
        "sim_duration_s": round(env.now, 6),
        "trace_sha256": digest.hexdigest(),
    }
    layer = deployment.observability
    if layer is not None:
        out["tracing"] = layer.tracer.stats()
        if layer.kernel_profiler is not None:
            snap = layer.kernel_profiler.snapshot()
            out["kernel"] = {k: snap[k] for k in
                             ("events_total", "windows", "window_iterations",
                              "max_queue_depth")}
    return out


def run_scenario(num_requests: int, rate: float, repeats: int = 5) -> dict:
    """Paired repeats: each round runs every mode back to back, the overhead
    estimate is the median of the per-round wall-clock ratios.  Pairing
    cancels machine-speed drift between rounds; the median shrugs off a
    single scheduler stall, which best-of-N does not when it hits the
    baseline round."""
    rounds = {name: [] for name in MODES}
    for _ in range(repeats):
        for name, config in MODES.items():
            rounds[name].append(run_mode(config, num_requests, rate))
    checksums = {run["trace_sha256"] for runs in rounds.values() for run in runs}
    best = {name: min(runs, key=lambda r: r["wall_s"])
            for name, runs in rounds.items()}

    def median_ratio(name):
        ratios = sorted(rounds[name][i]["wall_s"] / rounds["off"][i]["wall_s"]
                        for i in range(repeats))
        return ratios[repeats // 2]

    return {
        "scenario": {"model": MODEL, "num_requests": num_requests,
                     "rate_req_s": rate, "repeats": repeats},
        **best,
        "bit_identical": len(checksums) == 1,
        "sampling_off_overhead": round(median_ratio("sampling_off") - 1, 4),
        "full_overhead": round(median_ratio("full") - 1, 4),
    }


def report(entry: dict, gate: float) -> None:
    scenario = entry["scenario"]
    print(f"observability overhead @ {scenario['num_requests']} requests, "
          f"{scenario['rate_req_s']} req/s [{scenario['model']}]")
    for name in MODES:
        run = entry[name]
        print(f"  {name:13s} wall={run['wall_s']:.4f}s "
              f"sha={run['trace_sha256'][:12]}")
    print(f"  bit_identical={entry['bit_identical']}")
    print(f"  sampling_off_overhead={entry['sampling_off_overhead']:+.2%} "
          f"(gate < {gate:.0%})")
    print(f"  full_overhead={entry['full_overhead']:+.2%} (reported, not gated)")


def check(entry: dict, gate: float) -> int:
    failures = []
    if not entry["bit_identical"]:
        failures.append("simulated timings differ across observability modes")
    if entry["sampling_off_overhead"] > gate:
        failures.append(
            f"sampling-off overhead {entry['sampling_off_overhead']:.2%} "
            f"exceeds the {gate:.0%} gate")
    full = entry["full"]
    if full["tracing"]["finished"] != entry["scenario"]["num_requests"]:
        failures.append("full mode did not finish a trace per request")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small scenario (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on identity or overhead violations")
    parser.add_argument("--write", action="store_true",
                        help=f"write {BASELINE_PATH.name}")
    args = parser.parse_args()

    scenario = QUICK_SCENARIO if args.quick else FULL_SCENARIO
    gate = OVERHEAD_GATE + (QUICK_NOISE_MARGIN if args.quick else 0.0)
    entry = run_scenario(**scenario)
    report(entry, gate)

    status = check(entry, gate) if (args.check or args.write) else 0
    if args.write and status == 0:
        BASELINE_PATH.write_text(json.dumps(
            {"cpu_count": os.cpu_count(),
             ("quick" if args.quick else "full"): entry,
             "overhead_gate": OVERHEAD_GATE}, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
    return status


if __name__ == "__main__":
    sys.exit(main())
