"""Determinism guard plane: static analysis (detlint) + runtime sanitizer.

The whole repository stakes correctness on one invariant — simulated-time
results are bit-identical across macro-stepping, sweep worker counts and
partitioned federated runs.  This package enforces the *sources* of that
invariant:

* **detlint** (:mod:`repro.analysis.engine` / :mod:`repro.analysis.rules`)
  is an AST rule engine that machine-checks the ROADMAP's conventions:
  no wall-clock reads on the sim path (DET001), all randomness through
  :class:`repro.common.RandomSource` (DET002), no ``PYTHONHASHSEED``-
  dependent ``hash()`` keying (DET003), no unordered-set iteration or
  float accumulation on the sim path (DET004), pickle-safe sweep /
  boundary payloads (DET005), observe-only ``obs/`` (ARCH001) and
  middleware-only gateway changes (ARCH002).  Run it with::

      python -m repro.analysis src/ benchmarks/ examples/

* **DetSan** (:mod:`repro.analysis.detsan`) is an opt-in runtime
  sanitizer (``REPRO_DETSAN=1`` or ``Environment(sanitize=True)``) that
  shadows the kernel step/push path — zero overhead when unattached —
  and flags events scheduled in the past, duplicate
  ``(time, priority, eid)`` keys and RNG draws attributed to
  observe-only layers; :func:`repro.analysis.detsan.compare_hashseeds`
  reruns a scenario under two ``PYTHONHASHSEED`` values and diffs the
  merged fingerprints.
"""

from .engine import (
    DetlintConfig,
    Finding,
    LintEngine,
    load_config,
    lint_paths,
)
from .rules import RULE_REGISTRY

#: Loaded on first use (PEP 562): ``python -m repro.analysis.detsan`` imports
#: this package before it runs detsan as ``__main__``, and an eager import
#: would execute detsan.py a second time.
_DETSAN_EXPORTS = ("DetSan", "DetSanError", "HashseedReport", "compare_hashseeds")


def __getattr__(name):
    if name in _DETSAN_EXPORTS:
        from . import detsan

        return getattr(detsan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DetlintConfig",
    "DetSan",
    "DetSanError",
    "Finding",
    "HashseedReport",
    "LintEngine",
    "RULE_REGISTRY",
    "compare_hashseeds",
    "lint_paths",
    "load_config",
]
