"""``run.py --compare A.json B.json``: is B no worse than A?

One row per (metric, workload).  An end-to-end metric is ``regressed`` when
B's median is worse than A's by more than the bound ``BENCHMARK.json`` fixes,
``unresolved`` when either side's own repeats spread wider than that bound (so
"no change" cannot be told from noise), else ``ok``.  ``fail_share`` has bound
0.  Per-layer metrics and the simulated fingerprint have no bound: they are
listed so a saving can be located, and marked ``changed`` when they differ.
Exits non-zero on any regression.
"""

from __future__ import annotations

import json
from typing import List, Optional


def _relative(a: float, b: float) -> Optional[float]:
    if a == 0:
        return 0.0 if b == 0 else None
    return (b - a) / abs(a)


def _spread(stat: dict) -> float:
    return (stat["max"] - stat["min"]) / abs(stat["median"]) if stat["median"] else 0.0


def _percent(value: Optional[float]) -> str:
    return "     n/a" if value is None else f"{value:+8.2%}"


def main(path_a: str, path_b: str, registry: dict) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    print(f"A: {path_a}  {json.dumps(a['header'], sort_keys=True)}")
    print(f"B: {path_b}  {json.dumps(b['header'], sort_keys=True)}")
    same_inputs = all(a["header"][key] == b["header"][key] for key in ("seed", "smoke"))
    if not same_inputs:
        print("note: seeds or sizes differ, so simulated statistics are expected to differ")

    regressions: List[str] = []
    for workload in [w["name"] for w in registry["workloads"]]:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        print(f"\n== {workload} ==")
        print(f"   {'metric':<52s} {'A':>14s} {'B':>14s} {'B vs A':>8s} {'bound':>6s}  status")
        for metric in registry["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa, sb = wa["end_to_end"][name], wb["end_to_end"][name]
            change = _relative(sa["median"], sb["median"])
            worse = change if metric["better"] == "lower" else (
                None if change is None else -change)
            if worse is None or worse > bound:
                status = "regressed"
                regressions.append(f"{workload}/{name}")
            elif max(_spread(sa), _spread(sb)) > bound:
                status = "unresolved"
            else:
                status = "ok"
            print(f"   {name:<52s} {sa['median']:>14.4f} {sb['median']:>14.4f} "
                  f"{_percent(change)} {bound:>6.1%}  {status}")
        share_a = wa["failed"] / wa["attempted"]
        share_b = wb["failed"] / wb["attempted"]
        status = "regressed" if share_b > share_a else "ok"
        if status == "regressed":
            regressions.append(f"{workload}/fail_share")
        print(f"   {'fail_share':<52s} {share_a:>14.4f} {share_b:>14.4f} "
              f"{_percent(_relative(share_a, share_b))} {0:>6.0%}  {status}")
        for metric in registry["per_layer"]:
            name = metric["name"]
            va, vb = wa["per_layer"][name], wb["per_layer"][name]
            print(f"   {name:<52s} {va:>14.4f} {vb:>14.4f} "
                  f"{_percent(_relative(va, vb))} {'':>6s}  "
                  f"{'same' if va == vb else 'changed'}")
        same = wa["sim_fingerprint"] == wb["sim_fingerprint"]
        print(f"   sim_fingerprint {'identical' if same else 'DIFFERENT'}: "
              f"{wa['sim_fingerprint'][:16]} vs {wb['sim_fingerprint'][:16]}")

    if regressions:
        print(f"\n{len(regressions)} regression(s): {', '.join(regressions)}")
        return 1
    print("\nno regression")
    return 0
