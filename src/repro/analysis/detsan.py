"""DetSan: opt-in runtime determinism sanitizer for the sim kernel.

Static rules (:mod:`repro.analysis.rules`) catch determinism hazards that
are visible in source; DetSan catches the ones that only exist at runtime.
It attaches to a :class:`repro.sim.Environment` with the same
zero-overhead-unattached shadow-step pattern as ``attach_profiler`` — the
plain kernel never pays a branch — and checks three invariants:

* **no time travel** — every pushed event lands at ``time >= now`` and the
  clock never moves backwards across a step (an event-queue ordering bug
  would surface here before it corrupts a fingerprint);
* **unique event keys** — ``(time, priority, eid)`` must be unique; a
  duplicate (e.g. a bad ``import_pending`` merge) leaves pop order
  undefined;
* **observe-only layers stay observe-only** — a
  :class:`~repro.common.RandomSource` draw issued from ``repro/obs/``
  perturbs the sim's RNG streams, so results would differ with
  observability on.  DetSan patches the draw methods (class-level, only
  while attached) and walks the call stack to attribute each draw.

Enable per environment with ``Environment(sanitize=True)``, or process-wide
with ``REPRO_DETSAN=1`` (every new environment self-attaches).  Sanitizing
is observe-only: it never changes scheduling order, so sanitized runs are
bit-identical to plain runs.

:func:`compare_hashseeds` is the complementary subprocess harness: it
reruns a scenario under two pinned ``PYTHONHASHSEED`` values and diffs the
merged fingerprints — the end-to-end proof that no ``hash()``-keyed
ordering leaks into results (the ``hashseed-determinism`` CI job drives it
against a partitioned 2-worker federation).
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DetSan",
    "DetSanError",
    "HashseedReport",
    "compare_hashseeds",
    "partitioned_fingerprint",
    "quickstart_fingerprint",
]


class DetSanError(RuntimeError):
    """A determinism invariant was violated at runtime."""


# ---------------------------------------------------------------------------
# RandomSource draw attribution (class-level patch, active only while at
# least one sanitizer is attached)

_DRAW_METHODS = ("uniform", "exponential", "lognormal", "choice")
_OBS_MARKER = f"{os.sep}obs{os.sep}"
_ACTIVE: List["DetSan"] = []
_SAVED_DRAWS: Optional[dict] = None


def _obs_frame() -> Optional[str]:
    """Filename of the nearest observe-only frame on the stack, if any."""
    frame = sys._getframe(2)
    for _ in range(32):
        if frame is None:
            return None
        filename = frame.f_code.co_filename
        if "repro" in filename and _OBS_MARKER in filename:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return None


def _patch_draws() -> None:
    global _SAVED_DRAWS
    if _SAVED_DRAWS is not None:
        return
    from ..common.randomness import RandomSource

    saved = {}
    for name in _DRAW_METHODS:
        original = getattr(RandomSource, name)
        saved[name] = original

        @functools.wraps(original)
        def wrapper(self, *args, __orig=original, __name=name, **kwargs):
            site = _obs_frame()
            if site is not None:
                for sanitizer in list(_ACTIVE):
                    sanitizer._record(
                        f"RandomSource.{__name}() drawn from observe-only "
                        f"layer at {site}; obs/ must not consume sim RNG")
            return __orig(self, *args, **kwargs)

        setattr(RandomSource, name, wrapper)
    _SAVED_DRAWS = saved


def _unpatch_draws() -> None:
    global _SAVED_DRAWS
    if _SAVED_DRAWS is None:
        return
    if _SAVED_DRAWS:
        from ..common.randomness import RandomSource

        for name, original in _SAVED_DRAWS.items():
            setattr(RandomSource, name, original)
    _SAVED_DRAWS = None


# ---------------------------------------------------------------------------
# the sanitizer


class DetSan:
    """Runtime determinism sanitizer for one :class:`~repro.sim.Environment`.

    ``strict=True`` (default) raises :class:`DetSanError` at the violation
    site; ``strict=False`` records violations in :attr:`violations` for
    later inspection (e.g. property tests asserting a violation *is*
    detected).
    """

    def __init__(self, strict: bool = True, max_tracked_keys: int = 200_000):
        self.strict = strict
        self.violations: List[str] = []
        self._max_tracked = max_tracked_keys
        self._env = None
        self._seen_keys: set = set()
        self._orig_push = None
        self._had_instance_step = False
        self._prev_instance_step = None

    # -- violation plumbing -----------------------------------------------
    def _record(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise DetSanError(message)

    # -- attach / detach ---------------------------------------------------
    def attach(self, env) -> None:
        if self._env is not None:
            raise RuntimeError("DetSan is already attached")
        self._env = env
        self._orig_push = env._push
        self._had_instance_step = "step" in env.__dict__
        self._prev_instance_step = env.__dict__.get("step")
        prev_step = env.step  # bound method (class, or a profiler's shadow)
        sanitizer = self

        def sanitized_step() -> None:
            before = env._now
            prev_step()
            if env._now < before:
                sanitizer._record(
                    f"kernel clock moved backwards: {env._now!r} after "
                    f"{before!r} (event-queue ordering violation)")

        def checked_push(time, priority, eid, event) -> None:
            if time < env._now:
                sanitizer._record(
                    f"event eid={eid} scheduled in the past: t={time!r} < "
                    f"now={env._now!r}")
            key = (time, priority, eid)
            seen = sanitizer._seen_keys
            if key in seen:
                sanitizer._record(
                    f"duplicate event key (time={time!r}, priority={priority}, "
                    f"eid={eid}); pop order would be undefined")
            else:
                seen.add(key)
                if len(seen) > sanitizer._max_tracked:
                    now = env._now
                    sanitizer._seen_keys = {k for k in seen if k[0] >= now}
            sanitizer._orig_push(time, priority, eid, event)

        env.__dict__["step"] = sanitized_step
        env._push = checked_push
        env.sanitizer = self
        _ACTIVE.append(self)
        _patch_draws()

    def detach(self) -> None:
        env = self._env
        if env is None:
            return
        env._push = self._orig_push
        if self._had_instance_step:
            env.__dict__["step"] = self._prev_instance_step
        else:
            env.__dict__.pop("step", None)
        env.sanitizer = None
        self._env = None
        self._seen_keys.clear()
        if self in _ACTIVE:
            _ACTIVE.remove(self)
        if not _ACTIVE:
            _unpatch_draws()


# ---------------------------------------------------------------------------
# hash-seed comparison harness

#: Bootstrap executed by each half of the comparison.  It resolves a
#: ``module:callable`` target, calls it, and prints the fingerprint of the
#: result (a fingerprint string, anything with ``.fingerprint()``, or a
#: payload dict carrying a ``"mergeable"``).
_BOOTSTRAP = """\
import importlib, sys
target = sys.argv[1]
module_name, _, attr = target.partition(":")
fn = getattr(importlib.import_module(module_name), attr)
result = fn()
if isinstance(result, str):
    fp = result
elif hasattr(result, "fingerprint"):
    fp = result.fingerprint()
elif isinstance(result, dict) and hasattr(result.get("mergeable"), "fingerprint"):
    fp = result["mergeable"].fingerprint()
else:
    raise SystemExit(f"target returned un-fingerprintable {type(result)!r}")
print("DETSAN-FINGERPRINT", fp)
"""


@dataclass
class HashseedReport:
    """Outcome of one :func:`compare_hashseeds` run."""

    target: str
    seeds: Tuple[int, ...]
    fingerprints: Dict[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        values = set(self.fingerprints.values())
        return len(self.fingerprints) == len(self.seeds) and len(values) == 1

    def to_dict(self) -> dict:
        return {"target": self.target, "ok": self.ok,
                "seeds": list(self.seeds),
                "fingerprints": {str(s): fp
                                 for s, fp in sorted(self.fingerprints.items())}}


def compare_hashseeds(target: str, seeds: Sequence[int] = (101, 202),
                      extra_pythonpath: Sequence[str] = (),
                      timeout: float = 600.0) -> HashseedReport:
    """Rerun ``target`` under distinctly pinned ``PYTHONHASHSEED`` values.

    ``target`` is a ``"package.module:callable"`` whose return value
    fingerprints (see :data:`_BOOTSTRAP`).  Each half runs in a fresh
    subprocess with its own hash seed — the only way to actually vary
    ``str``/``bytes`` hashing, which is fixed at interpreter start.  Equal
    fingerprints prove no hash-ordering leaks into the merged results.
    """
    if len(set(seeds)) < 2:
        raise ValueError("need at least two distinct PYTHONHASHSEED values")
    src_dir = Path(__file__).resolve().parents[2]
    pythonpath = os.pathsep.join(
        [str(src_dir), *map(str, extra_pythonpath)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    report = HashseedReport(target=target, seeds=tuple(seeds))
    for seed in seeds:
        env = dict(os.environ,
                   PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-c", _BOOTSTRAP, target],
            env=env, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(
                f"hashseed half PYTHONHASHSEED={seed} failed "
                f"(exit {proc.returncode}):\n{proc.stderr.strip()}")
        for line in proc.stdout.splitlines():
            if line.startswith("DETSAN-FINGERPRINT "):
                report.fingerprints[seed] = line.split(" ", 1)[1].strip()
                break
        else:
            raise RuntimeError(
                f"hashseed half PYTHONHASHSEED={seed} printed no fingerprint:"
                f"\n{proc.stdout.strip()}")
    return report


# ---------------------------------------------------------------------------
# canonical scenario targets (importable from the subprocess halves)


def quickstart_fingerprint() -> str:
    """Fingerprint of a small traced run over ``quickstart_config``: the
    merged summary, the gateway's ``/v1/metrics`` text, the dashboard's
    per-model rows (registry child order and dashboard model order included),
    every retained trace's content and the tracer's counters."""
    import hashlib
    from dataclasses import replace

    from ..core import ObservabilityConfig, quickstart_config
    from ..serving import InferenceRequest, RequestKind
    from ..sweep import ScenarioSpec
    from ..sweep.scenarios import first_cell_deployment

    spec = ScenarioSpec(
        key="hashseed/quickstart", runner="first",
        model="Qwen/Qwen2.5-7B-Instruct", num_requests=16,
        params={"deployment": replace(quickstart_config(generate_text=False),
                                      observability=ObservabilityConfig()),
                "rate": 2.0})
    deployment, result = first_cell_deployment(spec)
    # One request to each other quickstart model: dashboard rows to order.
    client = deployment.client("benchmark@anl.gov")
    for request in (
        InferenceRequest("hashseed-chat", "meta-llama/Llama-3.1-8B-Instruct",
                         prompt_tokens=32, max_output_tokens=8),
        InferenceRequest("hashseed-embed", "nvidia/NV-Embed-v2", prompt_tokens=32,
                         max_output_tokens=0, kind=RequestKind.EMBEDDING),
    ):
        deployment.env.run(until=client.submit(request))
    gateway = deployment.gateway
    tracer = deployment.observability.tracer
    traces = [tracer.get(trace_id).to_dict() for trace_id in tracer.trace_ids()]
    return hashlib.sha256(repr((result["mergeable"].fingerprint(), gateway.metrics_text(),
                                gateway.dashboard()["models"], traces,
                                tracer.stats())).encode()).hexdigest()


def partitioned_fingerprint() -> str:
    """Fingerprint of a small partitioned 2-worker federated scenario.

    This is the ``hashseed-determinism`` CI target: two clusters sharded
    across two spawn workers, so the merged fingerprint covers boundary
    serialization, window planning and cross-partition merge order — the
    surfaces where hash-ordering bugs would hide.
    """
    from ..parallel import FederatedScenario, PartitionedDeployment

    scenario = FederatedScenario.demo(clusters=2, num_requests=12)
    return PartitionedDeployment(scenario, workers=2).run().fingerprint


# ---------------------------------------------------------------------------
# CLI: python -m repro.analysis.detsan --target mod:callable --seeds 101 202


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.detsan",
        description="rerun a scenario under two PYTHONHASHSEED values and "
                    "diff the merged fingerprints")
    parser.add_argument("--target",
                        default="repro.analysis.detsan:partitioned_fingerprint",
                        help="module:callable producing a fingerprintable "
                             "result (default: the partitioned 2-worker "
                             "federation scenario)")
    parser.add_argument("--seeds", type=int, nargs=2, default=(101, 202),
                        metavar=("SEED_A", "SEED_B"),
                        help="the two PYTHONHASHSEED values to pin")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON report here as well")
    args = parser.parse_args(argv)

    report = compare_hashseeds(args.target, seeds=tuple(args.seeds))
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    if not report.ok:
        print("hashseed-determinism: FINGERPRINT MISMATCH", file=sys.stderr)
        return 1
    print("hashseed-determinism: fingerprints identical across "
          f"PYTHONHASHSEED={args.seeds[0]} and {args.seeds[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
