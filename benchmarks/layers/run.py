"""Layered FIRST-path benchmark: host cost per simulated request, by layer.

    python benchmarks/layers/run.py                      # every workload, seed 0
    python benchmarks/layers/run.py --workload first_chat --seed 1 --repeats 5
    python benchmarks/layers/run.py --smoke              # N / 20, one repeat
    python benchmarks/layers/run.py --compare A.json B.json

Every run of a workload happens in a fresh child process (``child.py``).
End-to-end metrics are medians over timed repeats with tracing off; per-layer
metrics come from one extra traced run.  ``BENCHMARK.json`` at the repository
root is the registry of workloads, metric names, units, directions and
regression bounds; this file computes what it declares.

Clocks: ``sim_*`` and ``simtime.*`` are **simulated** seconds; every other
time is host time.  Arrivals are open-loop Poisson in simulated time and are
generated inside the simulation, so the generator is never late.

The builder's driver calls
``run.py --workload W --seed N --seconds S --trace 0|1`` and reads the last
line of standard output: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REGISTRY = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(HERE, "out")

SMOKE_DIVISOR = 20
#: ``setup_s`` is reported as the median of at least this many set-ups.
SETUP_SAMPLES = 3
#: A child has 180 s in the driver's contract; leave room for its siblings.
CHILD_TIMEOUT_S = 170
#: Larger than any workload, so the child's ``N // divisor`` floors at one
#: request: the spawn-and-build probe of federated_w2.
ONE_REQUEST_DIVISOR = 10**9

#: first_traced replays first_chat's inputs, so their fingerprints must agree.
SAME_INPUTS = {"first_traced": "first_chat"}


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def federated_workers() -> int:
    return min(2, cpu_count())


def commit() -> str:
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_registry() -> dict:
    with open(REGISTRY) as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- children
def spawn(workload: str, seed: int, mode: str = "timed", divisor: int = 1,
          workers: int = 1, trace_out: Optional[str] = None) -> dict:
    """Run ``child.py`` to completion and return the object it printed."""
    command = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--divisor", str(divisor), "--workers", str(workers)]
    if trace_out:
        command += ["--trace-out", trace_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}) exited {done.returncode}:\n"
                           f"{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_runs(workload: str, seed: int, min_repeats: int, seconds: float,
               divisor: int) -> List[dict]:
    """Timed repeats until both the repeat count and the measuring time
    asked for are reached; always at least one."""
    workers = federated_workers()
    runs: List[dict] = []
    while len(runs) < max(1, min_repeats) or sum(r["wall_s"] for r in runs) < seconds:
        runs.append(spawn(workload, seed, "timed", divisor, workers))
    return runs


def setup_samples(workload: str, seed: int, runs: List[dict], divisor: int,
                  wanted: int) -> List[float]:
    samples = [r["setup_s"] for r in runs]
    while len(samples) < wanted:
        samples.append(spawn(workload, seed, "setup", divisor)["setup_s"])
    return samples


# --------------------------------------------------------------------------- metrics
def _stat(values: List[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def end_to_end(runs: List[dict], setups: List[float], anchors: dict) -> Dict[str, dict]:
    """Medians over the timed repeats (tracing off)."""
    requests = runs[0]["requests"]
    out = {
        "host_us_per_req": _stat([r["wall_s"] * 1e6 / requests for r in runs]),
        "cpu_us_per_req": _stat([r["cpu_s"] * 1e6 / requests for r in runs]),
        "setup_s": _stat(setups),
        "peak_rss_mb": _stat([r["peak_rss_mb"] for r in runs]),
        "anchor_err_mean": _stat([anchors["anchor_err_mean"]]),
    }
    for name in runs[0]["sim"]:
        out[name] = _stat([r["sim"][name] for r in runs])
    return out


def per_layer(traced: dict, timed: List[dict], extras: Dict[str, float],
              declared: List[str]) -> Dict[str, float]:
    """Per-layer metrics of one traced run, normalised per request.  A
    declared metric the workload has no source for (a layer it bypasses, a
    counter its public result does not carry) reads 0."""
    requests = traced["requests"]
    timed_wall = statistics.median(r["wall_s"] for r in timed)
    values: Dict[str, float] = {}
    for layer, row in traced["layers"].items():
        values[f"{layer}.self_us_per_req"] = row["self_s"] * 1e6 / requests
        if layer not in ("builtin", "other"):
            values[f"{layer}.calls_per_req"] = row["calls"] / requests
    for name, row in traced["spans"].items():
        values[f"{name}.calls_per_req"] = row["calls"] / requests
        values[f"{name}.sync_us_per_call"] = (
            row["sync_s"] * 1e6 / row["calls"] if row["calls"] else 0.0)
    kernel = traced["kernel"]
    values["sim.events_per_req"] = kernel["events"] / requests
    values["sim.events_per_host_s"] = kernel["events"] / timed_wall
    values["sim.max_queue_depth"] = kernel["max_queue_depth"]
    values["serving.windows_per_req"] = kernel["windows"] / requests
    values["serving.iterations_per_window"] = (
        kernel["window_iterations"] / kernel["windows"] if kernel["windows"] else 0.0)
    values.update(traced["counters"])
    # Wall-clock counters of the parallel plane come from an untraced run.
    values.update({name: value for name, value in timed[0]["counters"].items()
                   if name.startswith("parallel.")})
    for name, value in traced["simtime"].items():
        values[f"simtime.{name}"] = value
    values["anchor.heldout_err_mean"] = traced.get("anchor_err_mean", 0.0)
    values["trace.overhead_ratio"] = traced["wall_s"] / timed_wall
    values.update(extras)
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")
    return {name: values.get(name, 0.0) for name in declared}


def check_runs(workload: str, runs: List[dict], same_as: Optional[dict]) -> List[str]:
    """Correctness of a workload's runs (timed, traced, serial alike)."""
    problems = []
    for run in runs:
        label = f"{workload} {run['mode']} run"
        problems += [f"{label}: {p}" for p in run["problems"]]
        if run["failed"]:
            problems.append(f"{label}: {run['failed']} of {run['requests']} requests failed")
        if "layers" in run:
            covered = sum(row["self_s"] for row in run["layers"].values())
            if abs(covered - run["wall_s"]) > 0.05 * run["wall_s"]:
                problems.append(f"{label}: layer self times cover {covered:.3f}s "
                                f"of {run['wall_s']:.3f}s")
    fingerprints = sorted({run["fingerprint"] for run in runs})
    if len(fingerprints) > 1:
        problems.append(f"{workload}: runs disagree on sim_fingerprint "
                        f"({', '.join(f[:12] for f in fingerprints)})")
    if same_as is not None and same_as["fingerprint"] != runs[0]["fingerprint"]:
        problems.append(f"{workload}: sim_fingerprint differs from "
                        f"{same_as['workload']}'s on the same inputs")
    return problems


# --------------------------------------------------------------------------- one workload
class Session:
    """The runs of one invocation; keeps timed runs other workloads refer to."""

    def __init__(self, registry: dict, seed: int, divisor: int, out_dir: str,
                 check: bool):
        self.declared = [m["name"] for m in registry["per_layer"]]
        self.seed = seed
        self.divisor = divisor
        self.out_dir = out_dir
        self.check = check
        self.timed: Dict[str, List[dict]] = {}
        self._anchors: Optional[dict] = None

    def anchors(self) -> dict:
        """The Fig. 3 cells on the paper's own request set (no seed), once."""
        if self._anchors is None:
            self._anchors = spawn("fig3_anchors", 0, "anchors", self.divisor)
        return self._anchors

    def timed_of(self, workload: str, min_repeats: int = 1,
                 seconds: float = 0.0) -> List[dict]:
        if workload not in self.timed:
            self.timed[workload] = timed_runs(workload, self.seed, min_repeats,
                                              seconds, self.divisor)
        return self.timed[workload]

    def measure(self, workload: str, min_repeats: int, seconds: float,
                setups_wanted: int, with_end_to_end: bool, with_trace: bool) -> dict:
        runs = self.timed_of(workload, min_repeats, seconds)
        all_runs = list(runs)
        result = {"requests": runs[0]["requests"], "repeats": len(runs),
                  "attempted": sum(r["requests"] for r in runs),
                  "failed": sum(r["failed"] for r in runs),
                  "sim_fingerprint": runs[0]["fingerprint"]}
        if with_end_to_end:
            setups = setup_samples(workload, self.seed, runs, self.divisor,
                                   setups_wanted)
            result["end_to_end"] = end_to_end(runs, setups, self.anchors())
        same_as = None
        if with_trace:
            trace_file = os.path.join(self.out_dir, f"trace_{workload}.json")
            traced = spawn(workload, self.seed, "traced", self.divisor,
                           workers=1, trace_out=trace_file)
            all_runs.append(traced)
            extras: Dict[str, float] = {}
            timed_wall = statistics.median(r["wall_s"] for r in runs)
            if workload in SAME_INPUTS:
                base = self.timed_of(SAME_INPUTS[workload])
                same_as = base[0]
                extras["obs.overhead_ratio"] = timed_wall / statistics.median(
                    r["wall_s"] for r in base)
            if workload == "federated_w2":
                serial = spawn(workload, self.seed, "timed", self.divisor, workers=1)
                all_runs.append(serial)
                probe = spawn(workload, self.seed, "timed", ONE_REQUEST_DIVISOR,
                              federated_workers())
                extras["parallel.serial_wall_s"] = serial["wall_s"]
                extras["parallel.speedup_vs_serial"] = serial["wall_s"] / timed_wall
                extras["parallel.spawn_build_s"] = probe["wall_s"]
            result["per_layer"] = per_layer(traced, runs, extras, self.declared)
        result["problems"] = (check_runs(workload, all_runs, same_as)
                              if self.check else [])
        return result


# --------------------------------------------------------------------------- output
def driver_line(result: dict, registry: dict, trace: bool) -> str:
    """The one JSON object the builder's driver reads."""
    if trace:
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in registry["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in registry["end_to_end"]}
    return json.dumps({"correct": not result["problems"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_workload(name: str, why: str, result: dict, registry: dict) -> None:
    print(f"\n== {name}: {result['requests']} requests, "
          f"{result['repeats']} timed repeat(s) + 1 traced run ==")
    print(f"   why: {why}")
    print("   end-to-end, tracing off: median [min .. max] of n; "
          "sim_* are simulated seconds, the rest host time")
    for metric in registry["end_to_end"]:
        stat = result["end_to_end"][metric["name"]]
        print(f"     {metric['name']:<20s} {stat['median']:>14.4f} {metric['unit']:<8s}"
              f" [{stat['min']:.4f} .. {stat['max']:.4f}] n={stat['n']}"
              f"  {metric['better']} is better, bound {metric['bound']:.1%}")
    share = result["failed"] / result["attempted"]
    print(f"     {'fail_share':<20s} {share:>14.4f} {'ratio':<8s}"
          f" ({result['failed']} of {result['attempted']} attempted)  bound 0")
    print("   per-layer, one traced run (spans + kernel counts + cProfile)")
    for metric in registry["per_layer"]:
        value = result["per_layer"][metric["name"]]
        print(f"     {metric['name']:<52s} {value:>16.4f} {metric['unit']}")
    print(f"   sim_fingerprint {result['sim_fingerprint']}")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")
    if not result["problems"]:
        print("   check: ok")


def run_all(args, registry: dict) -> int:
    names = args.workload or [w["name"] for w in registry["workloads"]]
    why = {w["name"]: w["why"] for w in registry["workloads"]}
    divisor = SMOKE_DIVISOR if args.smoke else 1
    repeats = 1 if args.smoke else args.repeats
    session = Session(registry, args.seed, divisor, args.out_dir, not args.no_check)
    header = {"cpu_count": cpu_count(), "python": platform.python_version(),
              "commit": commit(), "seed": args.seed, "repeats": repeats,
              "smoke": args.smoke, "federated_workers": federated_workers(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    print("layered FIRST-path benchmark: " + json.dumps(header))
    print("open-loop Poisson arrivals in simulated time, generated inside the "
          "simulation: generator lateness is 0 by construction")
    results = {}
    for name in names:
        results[name] = session.measure(
            name, repeats, 0.0, 1 if args.smoke else SETUP_SAMPLES,
            with_end_to_end=True, with_trace=True)
        print_workload(name, why[name], results[name], registry)
    os.makedirs(args.out_dir, exist_ok=True)
    path = args.out or os.path.join(args.out_dir, "results.json")
    with open(path, "w") as handle:
        json.dump({"header": header, "workloads": results}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"\nresults written to {path}, traces to "
          f"{os.path.join(args.out_dir, 'trace_<workload>.json')}")
    failed = [p for result in results.values() for p in result["problems"]]
    return 1 if failed else 0


def run_for_driver(args, registry: dict) -> int:
    session = Session(registry, args.seed, SMOKE_DIVISOR if args.smoke else 1,
                      args.out_dir, check=True)
    name = args.workload[0]
    trace = args.trace == 1
    result = session.measure(
        name, 1, 0.0 if trace else args.seconds, 1 if args.smoke else SETUP_SAMPLES,
        with_end_to_end=not trace, with_trace=trace)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(driver_line(result, registry, trace))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 is the default, 1 the held-out seed)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="N / 20, one repeat, traced run included")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the correctness pass")
    parser.add_argument("--out-dir", default=DEFAULT_OUT,
                        help="where traces and results.json go")
    parser.add_argument("--out", default=None, help="result file (default: <out-dir>/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files against the bounds")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="driver: keep timing repeats until this much is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver: print end-to-end (0) or per-layer (1) metrics as JSON")
    args = parser.parse_args(argv)

    registry = load_registry()
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], registry)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {os.path.join(SRC, 'repro')} is missing",
              file=sys.stderr)
        return 2
    known = [w["name"] for w in registry["workloads"]]
    for name in args.workload or []:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return run_for_driver(args, registry)
    return run_all(args, registry)


if __name__ == "__main__":
    sys.exit(main())
