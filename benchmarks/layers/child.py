"""One run of one workload in a fresh process (spawned by ``run.py``).

Modes: ``timed`` (tracing off; the numbers end-to-end metrics come from),
``traced`` (spans + kernel counts + cProfile around the same timed section),
``setup`` (set-up only, for more ``setup_s`` samples) and ``anchors`` (the four
Fig. 3 cells on the paper's fixed request set).  Prints one JSON object as the
last line of standard output.
"""

import time

# Before ``import repro``: setup_s counts the imports a user pays for.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def _cpu_seconds() -> float:
    """Process CPU, user + system, of this process and its reaped workers."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in (resource.getrusage(resource.RUSAGE_SELF),
                             resource.getrusage(resource.RUSAGE_CHILDREN)))


def _peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped worker
    (kilobytes on Linux)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("timed", "traced", "setup", "anchors"),
                        default="timed")
    parser.add_argument("--divisor", type=int, default=1,
                        help="divide the workload's request count (smoke, spawn probe)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes of federated_w2")
    parser.add_argument("--trace-out", default=None,
                        help="where the traced run writes spans and self times")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads  # sibling module; imports repro

    seed = None if args.mode == "anchors" else args.seed
    run = workloads.WORKLOADS[args.workload](seed, args.divisor, args.workers)
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
           "requests": run.attempted, "workers": args.workers,
           "setup_s": time.perf_counter() - _PROCESS_START}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    traced = None
    if args.mode == "traced":
        import tracing  # sibling module

        traced = tracing.TracedRun([run.env] if hasattr(run, "env") else [])
    cpu_start = _cpu_seconds()
    wall_start = time.perf_counter()
    if traced is None:
        run.timed()
    else:
        with traced:
            run.timed()
    out["wall_s"] = time.perf_counter() - wall_start
    out["cpu_s"] = _cpu_seconds() - cpu_start
    out["peak_rss_mb"] = _peak_rss_mb()
    out.update(run.outcome())

    if traced is not None:
        out.update(traced.report())
        if args.trace_out:
            os.makedirs(os.path.dirname(os.path.abspath(args.trace_out)), exist_ok=True)
            with open(args.trace_out, "w") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "requests": run.attempted, "traced_wall_s": out["wall_s"],
                           "layers": out["layers"], "kernel": out["kernel"],
                           "span_totals": out["spans"],
                           "spans": traced.span_rows()}, handle)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
