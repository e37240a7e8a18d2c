"""Sweep-plane scale benchmark: a million-request grid, sharded across workers.

Expands one declarative grid (:class:`repro.sweep.SweepSpec`) of engine-level
cells — offered rates × workload seeds — into ≥1M
simulated requests (full mode), runs it under :class:`repro.sweep.SweepRunner`
at several worker counts, and reports:

* wall-clock per worker count and the measured N-worker speedup;
* one merged :class:`repro.metrics.MergeableSummary` over every shard
  (log-bucket quantiles, associative merge) — with its fingerprint, which
  must be **bit-identical for every worker count** (cells are merged in cell
  order and cell RNG streams are keyed by cell key, never by scheduling).

Usage::

    python benchmarks/bench_sweep_scale.py            # full grid, prints report
    python benchmarks/bench_sweep_scale.py --write    # full + quick, writes BENCH_sweep.json
    python benchmarks/bench_sweep_scale.py --quick --check
        # CI smoke: small 2-worker grid; fail on fingerprint divergence, on
        # merged-quantile drift vs the committed baseline, or on a >20%
        # speedup-ratio regression

Speedup gates are parallelism-aware: the absolute floors (3x at 4 workers,
a modest gain at 2) only bind when the machine actually has that many CPUs
— ``cpu_count`` is recorded in the baseline, so a baseline written on a
small box never inflates expectations, and a many-core CI runner is still
held to the absolute floor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sweep import SweepRunner, SweepSpec  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"
MODEL = "meta-llama/Llama-3.1-8B-Instruct"

#: Full grid: 12 cells x 87,500 requests = 1,050,000 simulated requests.
FULL_GRID = {"rates": [8.0, 32.0, 64.0], "seeds": [0, 1, 2, 3],
             "requests_per_cell": 87_500}
FULL_WORKERS = [1, 2, 4]

#: CI smoke grid: 8 cells x 6,250 requests = 50,000 requests — big enough
#: that two real CPUs beat the worker-pool spawn overhead, small enough for
#: a PR gate.
QUICK_GRID = {"rates": [8.0, 64.0], "seeds": [0, 1, 2, 3],
              "requests_per_cell": 6_250}
QUICK_WORKERS = [1, 2]

#: Fraction of the committed baseline speedup a --check run must retain.
REGRESSION_TOLERANCE = 0.8
#: Absolute speedup floors, applied only when min(workers, cpus) allows them.
PARALLEL_SPEEDUP_FLOOR_4W = 3.0
PARALLEL_SPEEDUP_FLOOR_2W = 1.1
#: --check tolerance on merged p50/p99 drift vs the committed baseline.
#: Merged metrics are deterministic, so this only absorbs numeric drift
#: across numpy/python versions.
QUANTILE_TOLERANCE = 0.20


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_grid(name: str, rates, seeds, requests_per_cell: int) -> SweepSpec:
    return SweepSpec(
        name,
        runner="engine",
        base={"model": MODEL, "num_requests": requests_per_cell},
        axes={"rate": rates, "seed": seeds},
    )


def run_grid(name: str, grid: dict, workers_list, progress: bool = False) -> dict:
    spec = build_grid(name, grid["rates"], grid["seeds"], grid["requests_per_cell"])
    cells = spec.expand()
    total_requests = sum(c.num_requests for c in cells)
    print(f"\n=== sweep scale: {name} — {len(cells)} cells, "
          f"{total_requests:,} requests, workers {list(workers_list)} ===")

    runs = {}
    fingerprints = {}
    merged_summary = None
    for workers in workers_list:
        result = SweepRunner(workers=workers, progress=progress).run(cells)
        if not result.ok:
            for failure in result.failures:
                print(f"FAIL: {failure.key}\n{failure.error}")
            raise RuntimeError(f"{len(result.failures)} cells failed at "
                               f"workers={workers}")
        merged = result.merged(label=name)
        fingerprints[workers] = merged.fingerprint()
        runs[str(workers)] = {"wall_s": round(result.wall_s, 3)}
        if merged_summary is None:
            merged_summary = merged.to_benchmark_summary()
        print(f"  workers={workers}: wall={result.wall_s:7.2f}s "
              f"({total_requests / result.wall_s:,.0f} req/s-wall) "
              f"fingerprint={fingerprints[workers][:16]}")

    base_wall = runs[str(workers_list[0])]["wall_s"]
    for workers in workers_list:
        runs[str(workers)]["speedup"] = round(base_wall / runs[str(workers)]["wall_s"], 3)
    identical = len(set(fingerprints.values())) == 1
    print(f"  merged: {merged_summary.row()}")
    print(f"  merge fingerprints identical across worker counts: {identical}")
    speedups = ", ".join(f"{w}w={runs[str(w)]['speedup']:.2f}x" for w in workers_list)
    print(f"  speedup vs 1 worker: {speedups}")
    return {
        "grid": {"model": MODEL, "rates": grid["rates"], "seeds": grid["seeds"],
                 "requests_per_cell": grid["requests_per_cell"]},
        "cells": len(cells),
        "total_requests": total_requests,
        "runs": runs,
        "fingerprint": fingerprints[workers_list[0]],
        "fingerprints_identical": identical,
        "merged": {
            "num_requests": merged_summary.num_requests,
            "throughput_req_s": round(merged_summary.request_throughput, 3),
            "p50_latency_s": round(merged_summary.median_latency_s, 4),
            "p99_latency_s": round(merged_summary.p99_latency_s, 4),
        },
    }


def correctness_failures(entry: dict) -> list:
    if not entry["fingerprints_identical"]:
        return ["merged fingerprints differ across worker counts"]
    return []


def speedup_failures(entry: dict, cpus: int, baseline_entry: dict = None) -> list:
    """Parallelism-aware speedup gates for one grid entry."""
    failures = []
    for workers_str, run in entry["runs"].items():
        workers = int(workers_str)
        if workers == 1:
            continue
        floors = []
        if baseline_entry is not None:
            ref = baseline_entry["runs"].get(workers_str)
            if ref is not None and ref["speedup"] > 0:
                floors.append(("baseline ratio",
                               ref["speedup"] * REGRESSION_TOLERANCE))
        effective = min(workers, cpus)
        if effective >= 4:
            floors.append(("4-worker floor", PARALLEL_SPEEDUP_FLOOR_4W))
        elif effective >= 2:
            floors.append(("2-worker floor", PARALLEL_SPEEDUP_FLOOR_2W))
        for reason, floor in floors:
            if run["speedup"] < floor:
                failures.append(
                    f"workers={workers}: speedup {run['speedup']:.2f}x below "
                    f"{floor:.2f}x ({reason}, {cpus} CPUs)")
    return failures


def quantile_failures(entry: dict, baseline_entry: dict) -> list:
    failures = []
    for stat in ("p50_latency_s", "p99_latency_s"):
        expected = baseline_entry["merged"][stat]
        got = entry["merged"][stat]
        if expected > 0 and abs(got - expected) / expected > QUANTILE_TOLERANCE:
            failures.append(f"merged {stat} {got} drifted "
                            f">{QUANTILE_TOLERANCE:.0%} from baseline {expected}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the small CI grid instead of the full one")
    parser.add_argument("--write", action="store_true",
                        help="run full + quick grids and write the baseline JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail on fingerprint divergence, quantile drift or "
                             "speedup regression vs the baseline")
    parser.add_argument("--progress", action="store_true",
                        help="print per-shard progress lines")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    cpus = cpu_count()
    print(f"machine: {cpus} CPUs")

    if args.write:
        baseline = {
            "cpu_count": cpus,
            "full": run_grid("sweep-full", FULL_GRID, FULL_WORKERS,
                             progress=args.progress),
            "quick": run_grid("sweep-quick", QUICK_GRID, QUICK_WORKERS,
                              progress=args.progress),
        }
        failures = (correctness_failures(baseline["full"])
                    + correctness_failures(baseline["quick"])
                    + speedup_failures(baseline["full"], cpus)
                    + speedup_failures(baseline["quick"], cpus))
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"\nwrote {args.baseline}")
        return 0

    key = "quick" if args.quick else "full"
    grid = QUICK_GRID if args.quick else FULL_GRID
    workers_list = QUICK_WORKERS if args.quick else FULL_WORKERS
    entry = run_grid(f"sweep-{key}", grid, workers_list, progress=args.progress)

    failures = correctness_failures(entry)
    baseline_entry = None
    if args.check and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        baseline_entry = baseline.get(key)
        if baseline_entry is not None:
            failures.extend(quantile_failures(entry, baseline_entry))
    failures.extend(speedup_failures(entry, cpus, baseline_entry))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: sweep scale gates hold ({entry['total_requests']:,} requests)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
