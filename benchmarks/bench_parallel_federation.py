"""Parallel federated simulation benchmark: sharded clusters vs serial.

Runs one federated deployment (gateway + N compute clusters) under the
conservative synchronous-window engine (:mod:`repro.parallel`) at several
worker counts and reports:

* wall-clock per worker count and the measured speedup over the serial
  (``workers=1``) fallback, plus the window/sync-overhead breakdown
  (windows planned, micro-windows, boundary messages, advance vs sync wall);
* the merged run fingerprint, which must be **bit-identical for every
  worker count**;
* the zero-lookahead ping-ring null-message exercise — the conservative
  scheme's deadlock worst case — which must terminate with identical logs
  serial and parallel.

Usage::

    python benchmarks/bench_parallel_federation.py            # full, prints report
    python benchmarks/bench_parallel_federation.py --write    # full + quick, writes BENCH_parallel.json
    python benchmarks/bench_parallel_federation.py --quick --check
        # CI smoke: 2-cluster scenario at 1 and 2 workers; fail on
        # fingerprint divergence or on ping-ring divergence

Every run gates only what holds on any machine: identical fingerprints
across worker counts, a fingerprint equal to the one committed for its
scenario in ``BENCH_parallel.json`` (so a routing change that moves every
worker count alike still fails), and a ping ring that terminates
identically serial and parallel.  Speedups are printed and written to the
baseline file, never gated — a wall-clock ratio recorded on one machine
says nothing about another's cores.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.parallel import (  # noqa: E402
    ClusterShardSpec,
    FederatedScenario,
    PartitionedDeployment,
    run_ping_ring,
)

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"

#: Full scenario: 4 clusters, enough requests that window advances dominate
#: worker spawn cost on a real multi-core box.
FULL = {"clusters": 4, "num_requests": 3000, "rate": 8.0}
FULL_WORKERS = [1, 2, 4]

#: CI smoke scenario — a PR-gate-sized run, big enough that wall-clocks are
#: dominated by deterministic work rather than process-startup jitter.
QUICK = {"clusters": 2, "num_requests": 1000, "rate": 8.0}
QUICK_WORKERS = [1, 2]


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_scenario(config: dict) -> FederatedScenario:
    shards = [ClusterShardSpec(name=f"cluster{i}")
              for i in range(config["clusters"])]
    return FederatedScenario(clusters=shards,
                             num_requests=config["num_requests"],
                             rate=config["rate"])


def run_scenario(name: str, config: dict, workers_list) -> dict:
    print(f"\n=== parallel federation: {name} — {config['clusters']} clusters, "
          f"{config['num_requests']} requests, workers {list(workers_list)} ===")
    runs = {}
    fingerprints = {}
    for workers in workers_list:
        result = PartitionedDeployment(build_scenario(config),
                                       workers=workers).run()
        failed = [r for r in result.records if not r.success]
        if len(result.records) != config["num_requests"] or failed:
            raise RuntimeError(
                f"workers={workers}: {len(result.records)} records, "
                f"{len(failed)} failures")
        fingerprints[workers] = result.fingerprint
        stats = result.stats
        runs[str(workers)] = {
            "wall_s": round(result.wall_s, 3),
            "windows": stats.windows,
            "micro_windows": stats.micro_windows,
            "messages": stats.messages,
            "advance_wall_s": round(stats.advance_wall_s, 3),
            "sync_wall_s": round(stats.sync_wall_s, 3),
        }
        print(f"  workers={workers}: wall={result.wall_s:6.2f}s "
              f"windows={stats.windows} messages={stats.messages} "
              f"advance={stats.advance_wall_s:.2f}s sync={stats.sync_wall_s:.2f}s "
              f"fingerprint={result.fingerprint[:16]}")

    base_wall = runs[str(workers_list[0])]["wall_s"]
    for workers in workers_list:
        runs[str(workers)]["speedup"] = round(
            base_wall / max(runs[str(workers)]["wall_s"], 1e-9), 3)
    identical = len(set(fingerprints.values())) == 1
    speedups = ", ".join(f"{w}w={runs[str(w)]['speedup']:.2f}x"
                         for w in workers_list)
    print(f"  fingerprints identical across worker counts: {identical}")
    print(f"  speedup vs 1 worker: {speedups}")
    return {
        "scenario": dict(config),
        "runs": runs,
        "fingerprint": fingerprints[workers_list[0]],
        "fingerprints_identical": identical,
    }


def run_ping_check(partitions: int = 3, hops: int = 30) -> dict:
    """Zero-lookahead null-message exercise: must terminate, identically."""
    start = time.perf_counter()
    serial = run_ping_ring(partitions=partitions, hops=hops, latency_s=0.0,
                           workers=1)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_ping_ring(partitions=partitions, hops=hops, latency_s=0.0,
                             workers=partitions)
    parallel_wall = time.perf_counter() - start
    hops_seen = sorted(h for log in serial.values() for _, h in log)
    ok = serial == parallel and hops_seen == list(range(hops + 1))
    print(f"  ping ring ({partitions}p x {hops} hops, zero lookahead): "
          f"{'OK' if ok else 'FAIL'} "
          f"serial={serial_wall:.2f}s parallel={parallel_wall:.2f}s")
    return {"partitions": partitions, "hops": hops, "ok": ok,
            "serial_wall_s": round(serial_wall, 3),
            "parallel_wall_s": round(parallel_wall, 3)}


def correctness_failures(entry: dict, committed: Optional[str] = None) -> list:
    failures = []
    if not entry["fingerprints_identical"]:
        failures.append("fingerprints differ across worker counts")
    if committed is not None and entry["fingerprint"] != committed:
        failures.append(f"fingerprint {entry['fingerprint'][:16]} differs from "
                        f"the committed {committed[:16]}")
    if not entry["ping"]["ok"]:
        failures.append("zero-lookahead ping ring diverged or deadlocked")
    return failures


def run_entry(name: str, config: dict, workers_list, cpus: int) -> dict:
    entry = run_scenario(name, config, workers_list)
    entry["cpu_count"] = cpus
    entry["ping"] = run_ping_check()
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the small CI scenario instead of the full one")
    parser.add_argument("--write", action="store_true",
                        help="run full + quick and write the baseline JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail on fingerprint or ping-ring divergence "
                             "(every run does; speedups are never gated)")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH,
                        help="where --write puts the report and other runs "
                             "read the committed fingerprint")
    args = parser.parse_args(argv)

    cpus = cpu_count()
    print(f"machine: {cpus} CPUs")

    if args.write:
        baseline = {
            "cpu_count": cpus,
            "full": run_entry("federation-full", FULL, FULL_WORKERS, cpus),
            "quick": run_entry("federation-quick", QUICK, QUICK_WORKERS, cpus),
        }
        failures = (correctness_failures(baseline["full"])
                    + correctness_failures(baseline["quick"]))
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"\nwrote {args.baseline}")
        return 0

    key = "quick" if args.quick else "full"
    config = QUICK if args.quick else FULL
    workers_list = QUICK_WORKERS if args.quick else FULL_WORKERS
    entry = run_entry(f"federation-{key}", config, workers_list, cpus)

    committed = json.loads(args.baseline.read_text())[key]["fingerprint"]
    failures = correctness_failures(entry, committed)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
