"""Per-request kernel-event ledger by owner for the layered first_chat / first_stream workloads.

    PYTHONPATH=src python benchmarks/event_ledger.py [--seed 0] [--divisor 1]

Attaches an ``Environment.attach_profiler`` observer to the same deployments
``benchmarks/layers/workloads.py`` builds and attributes every popped event
to the code that waits on it (the generator a ``Process._resume`` callback
drives, or the callback's qualified name).  Counts are exact and repeat.
"""
import argparse
import json
import os
import sys
from collections import Counter


def owner(event) -> str:
    names = []
    for callback in event.callbacks or ():
        process = getattr(callback, "__self__", None)
        generator = getattr(process, "_generator", None)
        name = (generator.__qualname__ if generator is not None
                else getattr(callback, "__qualname__", type(callback).__name__))
        if name not in names:
            names.append(name)
    kind = type(event).__name__
    generator = getattr(event, "_generator", None)
    if generator is not None:
        kind += f"({generator.__qualname__})"
    return f"{kind} -> {', '.join(names) or 'nobody'}"


class Ledger:
    def __init__(self):
        self.by_owner = Counter()
        self.windows = 0

    def on_event(self, now, event, depth):
        self.by_owner[owner(event)] += 1

    def on_window(self, iterations, width_s):
        self.windows += 1


def ledger_of(workload_cls, seed: int, divisor: int) -> dict:
    workload = workload_cls(seed, divisor)
    ledger = Ledger()
    workload.env.attach_profiler(ledger)
    workload.timed()
    workload.env.detach_profiler()
    requests = workload.attempted
    total = sum(ledger.by_owner.values())
    return {
        "requests": requests,
        "events_per_req": round(total / requests, 4),
        "windows_per_req": round(ledger.windows / requests, 4),
        "by_owner_per_req": {name: round(count / requests, 4)
                             for name, count in ledger.by_owner.most_common()},
    }


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers"))
    from workloads import FirstPath, FirstStream

    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--divisor", type=int, default=1)
    args = parser.parse_args()
    print(json.dumps({"first_chat": ledger_of(FirstPath, args.seed, args.divisor),
                      "first_stream": ledger_of(FirstStream, args.seed, args.divisor)},
                     indent=1))


if __name__ == "__main__":
    main()
