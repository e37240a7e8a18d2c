"""Kernel & engine hot-path benchmark: macro-stepping and queue backends.

Replays the Figure-3 workload shape (ShareGPT-like requests against a single
Llama 3.3 70B instance) directly at the engine layer, once with
``EngineConfig.macro_stepping`` enabled and once with the per-token reference
loop, and reports:

* wall-clock seconds, processed kernel events/s and simulated tokens per
  wall-clock second for both modes;
* the wall-clock speedup (per-token / macro);
* a checksum over every request's simulated timings, asserting the two modes
  are **bit-identical** in simulated time.

The kernel's pending-event structure is pluggable
(``Environment(queue="heap"|"calendar"|"packed"|"auto")``, see
``repro.sim.queues``); ``--queue`` selects the backend the scenario runs on,
and ``--write`` additionally records:

* a queue sweep over all backends: wall clock on the fig3-style scenario
  (the backends are at parity there — the pending set stays small) plus a
  pure queue-op stress with 100k pending entries, where the calendar's
  amortised O(1) push/pop beats the heap's O(log n) and the packed
  lazy-sorted calendar beats both.

Usage::

    python benchmarks/bench_kernel_throughput.py            # full run, prints report
    python benchmarks/bench_kernel_throughput.py --write    # all scenarios + sweeps, writes BENCH_kernel.json
    python benchmarks/bench_kernel_throughput.py --quick --check --queue packed
        # CI smoke: quick scenario on one queue backend, fail on mismatch or
        # on a >20% speedup regression vs that backend's committed baseline
    python benchmarks/bench_kernel_throughput.py --stress-check
        # CI smoke: 100k-pending queue stress, fail if the packed backend's
        # advantage over the heap regresses past the baseline tolerance

The regression gates compare *speedup ratios* (not absolute wall time), so
they are insensitive to how fast the CI machine is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
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
#: Acceptance floor (ISSUE 7) for the packed backend on the 100k-pending
#: stress, enforced when writing the baseline.
PACKED_STRESS_FLOOR = 1.5

#: Queue backends swept by --write; --queue picks one for the scenario runs.
QUEUE_BACKENDS = ("heap", "calendar", "packed")
#: Pure queue-op stress: pending entries held / push+pop ops performed.
STRESS_HOLD = 100_000
STRESS_OPS = 100_000
#: Fraction of the baseline stress advantage the --stress-check gate must
#: retain (ratio-vs-ratio, so machine speed cancels; shared-runner noise
#: does not, hence the generous margin).
STRESS_TOLERANCE = 0.75


def run_mode(macro: bool, num_requests: int, rate: float,
             queue: str = "heap") -> dict:
    """Run the scenario in one stepping mode; returns metrics + checksum."""
    env = Environment(queue=queue)
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
        "queue": queue,
        "wall_s": round(wall_s, 4),
        "events": events_processed,
        "events_per_s": round(events_processed / wall_s, 1),
        "sim_duration_s": round(env.now, 6),
        "output_tokens": output_tokens,
        "sim_tokens_per_wall_s": round(output_tokens / wall_s, 1),
        "trace_sha256": digest.hexdigest(),
    }


def run_scenario(name: str, num_requests: int, rate: float, repeats: int = 5,
                 queue: str = "heap") -> dict:
    """Best-of-``repeats`` wall clock for each mode over the same workload."""
    best = {}
    for macro in (False, True):
        runs = [run_mode(macro, num_requests, rate, queue=queue) for _ in range(repeats)]
        checksums = {r["trace_sha256"] for r in runs}
        assert len(checksums) == 1, "non-deterministic simulation run"
        best[runs[0]["mode"]] = min(runs, key=lambda r: r["wall_s"])
    identical = best["macro"]["trace_sha256"] == best["per_token"]["trace_sha256"]
    speedup = best["per_token"]["wall_s"] / best["macro"]["wall_s"]
    return {
        "scenario": {"name": name, "model": MODEL, "instances": 1,
                     "num_requests": num_requests, "rate_req_s": rate,
                     "queue": queue},
        "per_token": best["per_token"],
        "macro": best["macro"],
        "bit_identical": identical,
        "speedup": round(speedup, 2),
    }


def run_queue_stress(queue: str, hold: int = STRESS_HOLD,
                     ops: int = STRESS_OPS, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall clock for raw push/pop churn on one backend.

    Holds ``hold`` pending entries and performs ``ops`` pop+push rounds with
    clustered pseudo-random deltas — the NORMAL-timeout churn profile, at the
    pending-set size where the queue structure (not constant factors)
    dominates.
    """
    from repro.sim.queues import make_event_queue

    best = float("inf")
    for _ in range(repeats):
        rng = random.Random(12345)
        q = make_event_queue(queue)
        now = 0.0
        eid = 0
        for _ in range(hold):
            q.push(now + rng.random() * hold * 0.02, 1, eid, eid)
            eid += 1
        start = time.perf_counter()
        for _ in range(ops):
            now, _event = q.pop2()  # the kernel's fast path
            q.push(now + 0.01 + rng.random() * hold * 0.02, 1, eid, eid)
            eid += 1
        best = min(best, time.perf_counter() - start)
    return best


def run_queue_sweep(num_requests: int, rate: float, repeats: int = 5) -> dict:
    """All queue backends: fig3-style macro wall clock + pure queue stress.

    To keep the ratios honest on a noisy machine, both the fig3 and the
    stress per-backend repeats are interleaved (heap, calendar, packed,
    heap, ...) so a frequency dip hits every backend alike.
    """
    fig3 = {}
    for _ in range(repeats):
        for queue in QUEUE_BACKENDS:
            run = run_mode(True, num_requests, rate, queue=queue)
            if queue not in fig3 or run["wall_s"] < fig3[queue]["wall_s"]:
                fig3[queue] = run
    identical = all(
        fig3[queue]["trace_sha256"] == fig3["heap"]["trace_sha256"]
        for queue in QUEUE_BACKENDS
    )
    stress = {queue: float("inf") for queue in QUEUE_BACKENDS}
    for _ in range(5):
        for queue in QUEUE_BACKENDS:
            stress[queue] = min(stress[queue], run_queue_stress(queue, repeats=1))
    stress = {queue: round(wall, 4) for queue, wall in stress.items()}
    entry = {
        "scenario": {"name": "queue-sweep", "model": MODEL,
                     "num_requests": num_requests, "rate_req_s": rate},
        "fig3_macro": {
            **{queue: fig3[queue] for queue in QUEUE_BACKENDS},
            "bit_identical": identical,
            **{f"{queue}_speedup": round(
                fig3["heap"]["wall_s"] / fig3[queue]["wall_s"], 3)
               for queue in QUEUE_BACKENDS if queue != "heap"},
        },
        "queue_stress": {
            "hold": STRESS_HOLD,
            "ops": STRESS_OPS,
            **{f"{queue}_wall_s": stress[queue] for queue in QUEUE_BACKENDS},
            **{f"{queue}_speedup": round(stress["heap"] / stress[queue], 3)
               for queue in QUEUE_BACKENDS if queue != "heap"},
        },
    }
    return entry


def print_sweep_report(sweep: dict) -> None:
    s = sweep["scenario"]
    print(f"\n=== queue sweep: {' vs '.join(QUEUE_BACKENDS)} "
          f"({s['num_requests']} reqs @ {s['rate_req_s']:g} req/s, {s['model']}) ===")
    fig3 = sweep["fig3_macro"]
    for queue in QUEUE_BACKENDS:
        r = fig3[queue]
        print(f"  fig3 macro {queue:>9}: wall={r['wall_s']:.3f}s events={r['events']}")
    print(f"  bit-identical across backends: {fig3['bit_identical']}")
    for queue in QUEUE_BACKENDS[1:]:
        print(f"  fig3 {queue} speedup: {fig3[f'{queue}_speedup']:.3f}x "
              f"(small pending set: parity expected)")
    stress = sweep["queue_stress"]
    walls = " ".join(f"{q}={stress[f'{q}_wall_s']:.3f}s" for q in QUEUE_BACKENDS)
    gains = " ".join(f"{q}={stress[f'{q}_speedup']:.2f}x" for q in QUEUE_BACKENDS[1:])
    print(f"  queue stress (hold={stress['hold']}, ops={stress['ops']}): "
          f"{walls} -> {gains}")


def print_report(entry: dict) -> None:
    s = entry["scenario"]
    print(f"\n=== kernel throughput: {s['name']} "
          f"({s['num_requests']} reqs @ {s['rate_req_s']:g} req/s, {s['model']}, "
          f"queue={s.get('queue', 'heap')}) ===")
    for mode in ("per_token", "macro"):
        r = entry[mode]
        print(f"  {mode:>9}: wall={r['wall_s']:.3f}s events={r['events']} "
              f"({r['events_per_s']:.0f}/s) sim-tokens/wall-s={r['sim_tokens_per_wall_s']:.0f}")
    print(f"  bit-identical simulated time: {entry['bit_identical']}")
    print(f"  speedup: {entry['speedup']:.2f}x")


def stress_check(baseline_path: Path) -> int:
    """CI gate: the packed backend's stress advantage must not regress.

    Interleaves heap and packed repeats so machine noise hits both alike,
    then compares the speedup ratio against the committed baseline ratio.
    """
    baseline = json.loads(baseline_path.read_text())["queue_sweep"]["queue_stress"]
    stress = {"heap": float("inf"), "packed": float("inf")}
    for _ in range(5):
        for queue in stress:
            stress[queue] = min(stress[queue], run_queue_stress(queue, repeats=1))
    ratio = stress["heap"] / stress["packed"]
    floor = baseline["packed_speedup"] * STRESS_TOLERANCE
    print(f"queue stress (hold={STRESS_HOLD}, ops={STRESS_OPS}): "
          f"heap={stress['heap']:.3f}s packed={stress['packed']:.3f}s "
          f"-> {ratio:.2f}x (baseline {baseline['packed_speedup']:.2f}x, "
          f"floor {floor:.2f}x)")
    if ratio < floor:
        print(f"FAIL: packed stress speedup regressed to {ratio:.2f}x "
              f"(<{STRESS_TOLERANCE:.0%} of baseline)")
        return 1
    print("OK: packed queue stress advantage holds")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the small CI scenario instead of the full one")
    parser.add_argument("--write", action="store_true",
                        help="run all scenarios + queue sweep and write the baseline JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail on mismatch or >20%% speedup regression vs the baseline")
    parser.add_argument("--stress-check", action="store_true",
                        help="run the 100k-pending queue stress and fail if the "
                             "packed backend's heap advantage regresses")
    parser.add_argument("--queue", choices=QUEUE_BACKENDS + ("auto",), default="heap",
                        help="kernel pending-event structure for the scenario runs")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    if args.stress_check:
        return stress_check(args.baseline)

    if args.write:
        baseline = {}
        for queue in QUEUE_BACKENDS:
            suffix = "" if queue == "heap" else f"_{queue}"
            baseline[f"full{suffix}"] = run_scenario(
                "fig3-style-full", queue=queue, **FULL_SCENARIO)
            baseline[f"quick{suffix}"] = run_scenario(
                "fig3-style-quick", queue=queue, **QUICK_SCENARIO)
        baseline["queue_sweep"] = run_queue_sweep(**FULL_SCENARIO)
        for key, entry in baseline.items():
            if key == "queue_sweep":
                print_sweep_report(entry)
            else:
                print_report(entry)
        scenarios = [e for k, e in baseline.items() if k != "queue_sweep"]
        if not all(e["bit_identical"] for e in scenarios):
            print("FAIL: simulated-time results differ between stepping modes")
            return 1
        if not baseline["queue_sweep"]["fig3_macro"]["bit_identical"]:
            print("FAIL: simulated-time results differ between queue backends")
            return 1
        for queue in QUEUE_BACKENDS[1:]:
            for a in ("full", "quick"):
                b = f"{a}_{queue}"
                if baseline[a]["macro"]["trace_sha256"] != baseline[b]["macro"]["trace_sha256"]:
                    print(f"FAIL: {a} and {b} traces differ between queue backends")
                    return 1
        if baseline["full"]["speedup"] < FULL_SPEEDUP_FLOOR:
            print(f"FAIL: full-scenario speedup {baseline['full']['speedup']:.2f}x "
                  f"is below the {FULL_SPEEDUP_FLOOR:.1f}x acceptance floor")
            return 1
        stress = baseline["queue_sweep"]["queue_stress"]
        if stress["packed_speedup"] < PACKED_STRESS_FLOOR:
            print(f"FAIL: packed stress speedup {stress['packed_speedup']:.2f}x "
                  f"is below the {PACKED_STRESS_FLOOR:.1f}x acceptance floor")
            return 1
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"\nwrote {args.baseline}")
        return 0

    key = "quick" if args.quick else "full"
    if args.queue not in ("heap", "auto"):
        key = f"{key}_{args.queue}"
    # "auto" has no baseline entry of its own: at fig3 pending-set sizes it
    # never migrates off the heap, so it gates against the heap baseline.
    scenario = QUICK_SCENARIO if args.quick else FULL_SCENARIO
    entry = run_scenario(f"fig3-style-{key}", queue=args.queue, **scenario)
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
