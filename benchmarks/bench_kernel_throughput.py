"""Kernel & engine hot-path benchmark: macro-stepping vs the per-token loop.

Replays the Figure-3 workload shape (ShareGPT-like requests against a single
Llama 3.3 70B instance) directly at the engine layer, once with
``EngineConfig.macro_stepping`` enabled and once with the per-token reference
loop, and reports:

* wall-clock seconds, processed kernel events/s and simulated tokens per
  wall-clock second for both modes;
* the wall-clock speedup (per-token / macro);
* a checksum over every request's simulated timings, asserting the two modes
  are **bit-identical** in simulated time.

Usage::

    python benchmarks/bench_kernel_throughput.py            # full run, prints report
    python benchmarks/bench_kernel_throughput.py --write    # both scenarios, writes BENCH_kernel.json
    python benchmarks/bench_kernel_throughput.py --quick --check
        # CI smoke: quick scenario, fail on mismatch or on a >20% speedup
        # regression vs the committed baseline

The regression gate compares *speedup ratios* (not absolute wall time), so
it is insensitive to how fast the CI machine is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import A100_40GB, dgx_a100_spec  # noqa: E402
from repro.serving import (  # noqa: E402
    ContinuousBatchingEngine,
    EngineConfig,
    PerformanceModel,
    default_catalog,
)
from repro.sim import Environment  # noqa: E402
from repro.workload import PoissonArrival, ShareGPTWorkload  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_kernel.json"
MODEL = "Llama-3.3-70B"

#: Figure-3-style scenario: 1 instance, 2000 ShareGPT requests.  Rate 1 req/s
#: is the paper's low-rate operating point (Fig. 3 left edge).
FULL_SCENARIO = {"num_requests": 2000, "rate": 1.0}
#: CI smoke scenario: small enough for a PR gate, large enough that the
#: macro-mode wall clock is ~100 ms — a single scheduler stall or frequency
#: dip on a shared runner cannot move the ratio past the 20% gate.
QUICK_SCENARIO = {"num_requests": 1500, "rate": 1.0}

#: Acceptance floor for the full scenario (ISSUE 2) and the fraction of the
#: committed baseline speedup the CI smoke run must retain.
FULL_SPEEDUP_FLOOR = 3.0
REGRESSION_TOLERANCE = 0.8


def run_mode(macro: bool, num_requests: int, rate: float) -> dict:
    """Run the scenario in one stepping mode; returns metrics + checksum."""
    env = Environment()
    events_processed = 0
    original_step = env.step

    def counting_step():
        nonlocal events_processed
        events_processed += 1
        original_step()

    env.step = counting_step

    spec = default_catalog().get(MODEL)
    perf = PerformanceModel(spec, 8, A100_40GB, node_spec=dgx_a100_spec())
    engine = ContinuousBatchingEngine(
        env, perf, EngineConfig(generate_text=False, macro_stepping=macro)
    )
    requests = ShareGPTWorkload().generate(spec.name, num_requests=num_requests)
    offsets = PoissonArrival(rate=rate, seed=7).offsets(num_requests)
    result_events = []

    def driver(env):
        last = 0.0
        for request, offset in zip(requests, offsets):
            if offset > last:
                yield env.timeout(offset - last)
                last = offset
            result_events.append(engine.submit(request))
        yield env.all_of(result_events)

    proc = env.process(driver(env))
    wall_start = time.perf_counter()
    env.run(until=proc)
    wall_s = time.perf_counter() - wall_start

    results = [ev.value for ev in result_events]
    digest = hashlib.sha256()
    for r in results:
        digest.update(
            repr((r.request_id, r.success, r.output_tokens,
                  r.prefill_start_time, r.first_token_time,
                  r.completion_time)).encode()
        )
    digest.update(repr(sorted(engine.stats.snapshot().items())).encode())
    output_tokens = engine.stats.output_tokens
    return {
        "mode": "macro" if macro else "per_token",
        "wall_s": round(wall_s, 4),
        "events": events_processed,
        "events_per_s": round(events_processed / wall_s, 1),
        "sim_duration_s": round(env.now, 6),
        "output_tokens": output_tokens,
        "sim_tokens_per_wall_s": round(output_tokens / wall_s, 1),
        "trace_sha256": digest.hexdigest(),
    }


def run_scenario(name: str, num_requests: int, rate: float, repeats: int = 5) -> dict:
    """Best-of-``repeats`` wall clock for each mode over the same workload."""
    best = {}
    for macro in (False, True):
        runs = [run_mode(macro, num_requests, rate) for _ in range(repeats)]
        checksums = {r["trace_sha256"] for r in runs}
        assert len(checksums) == 1, "non-deterministic simulation run"
        best[runs[0]["mode"]] = min(runs, key=lambda r: r["wall_s"])
    identical = best["macro"]["trace_sha256"] == best["per_token"]["trace_sha256"]
    speedup = best["per_token"]["wall_s"] / best["macro"]["wall_s"]
    return {
        "scenario": {"name": name, "model": MODEL, "instances": 1,
                     "num_requests": num_requests, "rate_req_s": rate},
        "per_token": best["per_token"],
        "macro": best["macro"],
        "bit_identical": identical,
        "speedup": round(speedup, 2),
    }


def print_report(entry: dict) -> None:
    s = entry["scenario"]
    print(f"\n=== kernel throughput: {s['name']} "
          f"({s['num_requests']} reqs @ {s['rate_req_s']:g} req/s, {s['model']}) ===")
    for mode in ("per_token", "macro"):
        r = entry[mode]
        print(f"  {mode:>9}: wall={r['wall_s']:.3f}s events={r['events']} "
              f"({r['events_per_s']:.0f}/s) sim-tokens/wall-s={r['sim_tokens_per_wall_s']:.0f}")
    print(f"  bit-identical simulated time: {entry['bit_identical']}")
    print(f"  speedup: {entry['speedup']:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the small CI scenario instead of the full one")
    parser.add_argument("--write", action="store_true",
                        help="run both scenarios and write the baseline JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail on mismatch or >20%% speedup regression vs the baseline")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    if args.write:
        baseline = {
            "full": run_scenario("fig3-style-full", **FULL_SCENARIO),
            "quick": run_scenario("fig3-style-quick", **QUICK_SCENARIO),
        }
        for entry in baseline.values():
            print_report(entry)
        if not all(e["bit_identical"] for e in baseline.values()):
            print("FAIL: simulated-time results differ between stepping modes")
            return 1
        if baseline["full"]["speedup"] < FULL_SPEEDUP_FLOOR:
            print(f"FAIL: full-scenario speedup {baseline['full']['speedup']:.2f}x "
                  f"is below the {FULL_SPEEDUP_FLOOR:.1f}x acceptance floor")
            return 1
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"\nwrote {args.baseline}")
        return 0

    key = "quick" if args.quick else "full"
    scenario = QUICK_SCENARIO if args.quick else FULL_SCENARIO
    entry = run_scenario(f"fig3-style-{key}", **scenario)
    print_report(entry)

    if not entry["bit_identical"]:
        print("FAIL: simulated-time results differ between stepping modes")
        return 1
    if not args.check:
        if not args.quick and entry["speedup"] < FULL_SPEEDUP_FLOOR:
            print(f"FAIL: speedup {entry['speedup']:.2f}x below the "
                  f"{FULL_SPEEDUP_FLOOR:.1f}x acceptance floor")
            return 1
        return 0

    baseline = json.loads(args.baseline.read_text())[key]
    floor = baseline["speedup"] * REGRESSION_TOLERANCE
    print(f"  baseline speedup: {baseline['speedup']:.2f}x "
          f"(regression floor {floor:.2f}x)")
    if entry["speedup"] < floor:
        print(f"FAIL: speedup regressed to {entry['speedup']:.2f}x "
              f"(<{REGRESSION_TOLERANCE:.0%} of baseline {baseline['speedup']:.2f}x)")
        return 1
    print("OK: no kernel-throughput regression")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
