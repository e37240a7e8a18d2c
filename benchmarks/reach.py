"""Execution census: which ``src/repro`` functions the repo's runs reach.

Runs the scenario set (ledger, examples, layered ``--smoke``, CI's six
``--quick --check`` benches, ten paper-figure modules, CI's detlint and two
DetSan hash-seed commands), then tier-1, each process under a
``sys.setprofile`` recorder (a generated ``sitecustomize``) that dumps what
it reached at exit; prints per file the functions neither set ran and those
only tier-1 runs, with line counts (a nested def counts in its parent too).
Each such function also gets a ``ref:`` list of the files under
``benchmarks/``, ``examples/`` and ``.github/workflows/`` that name it as a
whole word: a user the scenario set does not run (a bench's full-size mode)
shows there, so a function with refs is not a deletion candidate by itself.
Stdlib only, ~12 min, not run by tier-1 or CI.  A forked child that leaves
through ``os._exit`` (``fork`` start method) is NOT recorded.
"""

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"
PY = sys.executable
PYTEST = [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
CI_BENCHES = ("kernel_throughput", "obs_overhead", "autoscale_policies",
              "federation_v2", "sweep_scale", "parallel_federation")
FIGURES = ("fig3_request_rate", "fig4_autoscaling", "fig5_openai_comparison",
           "table1_webui_concurrency", "cold_start", "batch_mode",
           "case_study_eval", "optimizations", "streaming_ttft", "federation")
SCENARIOS = [
    PYTEST + ["tests/test_fingerprint_ledger.py"],
    *[[PY, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))],
    [PY, "benchmarks/layers/run.py", "--smoke"],
    *[[PY, f"benchmarks/bench_{name}.py", "--quick", "--check"] for name in CI_BENCHES],
    PYTEST + ["--benchmark-disable"] + [f"benchmarks/bench_{name}.py" for name in FIGURES],
    [PY, "-m", "repro.analysis", "src", "benchmarks", "examples",
     "--baseline", "detlint_baseline.json"],
    [PY, "-m", "repro.analysis.detsan", "--seeds", "101", "202"],
    [PY, "-m", "repro.analysis.detsan",
     "--target", "repro.analysis.detsan:quickstart_fingerprint", "--seeds", "7", "8"],
]
#: Where a function's name counts as a reference the scenario set may miss.
REF_GLOBS = ("benchmarks/**/*.py", "examples/*.py", ".github/workflows/*.yml")
TIER1 = [PYTEST + ["tests"]]

RECORDER = """\
import atexit, json, os, sys, tempfile, threading
_pkg, _seen = os.environ["REACH_PKG"], set()
def _profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(_pkg):
        _seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def _dump():
    sys.setprofile(None)
    fd, _ = tempfile.mkstemp(suffix=".json", dir=os.environ["REACH_OUT"])
    with os.fdopen(fd, "w") as fh:
        json.dump(sorted(_seen), fh)
sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
"""


def functions():
    """``(file, co_firstlineno) -> (name, lines, ref name)`` for every def.

    The ref name is what a caller writes: the def's name, or its class's
    for a dunder method (``__init__`` is called as ``Cls(...)``).
    """
    out = {}
    for path in sorted(PKG.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(child): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                ref = node.name
                if ref.startswith("__") and ref.endswith("__"):
                    ref = owner.get(id(node), ref)
                out[str(path), first] = (node.name, node.end_lineno - first + 1, ref)
    return out


def reached(commands):
    with tempfile.TemporaryDirectory() as tmp:
        (out := Path(tmp, "out")).mkdir()
        Path(tmp, "sitecustomize.py").write_text(RECORDER)
        env = dict(os.environ, REACH_OUT=str(out), REACH_PKG=str(PKG),
                   PYTHONPATH=os.pathsep.join([tmp, str(ROOT / "src")]))
        for command in commands:
            print("$", " ".join(command), flush=True)
            code = subprocess.run(command, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL).returncode
            if code:
                print(f"  exit status {code}", flush=True)
        return {tuple(key) for dump in sorted(out.iterdir())
                for key in json.loads(dump.read_text())}


def referrers(name, texts):
    """Files in ``texts`` naming ``name`` as a whole word."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    return [path for path, text in texts.items() if word.search(text)]


def main():
    universe = functions()
    scenario, tier1 = reached(SCENARIOS), reached(TIER1)
    texts = {str(path.relative_to(ROOT)): path.read_text()
             for pattern in REF_GLOBS for path in sorted(ROOT.glob(pattern))
             if path.name != "reach.py"}
    missed = {"never run": [], "tier-1 only": []}
    for key, (name, lines, ref) in sorted(universe.items()):
        if key not in scenario:
            kind = "tier-1 only" if key in tier1 else "never run"
            refs = referrers(ref, texts)
            missed[kind].append((key, name, lines, refs))
            print(f"{Path(key[0]).relative_to(PKG.parent)}:{key[1]}  {kind:<11}  "
                  f"{name} ({lines} lines)" + (f"  ref: {', '.join(refs)}" if refs else ""))
    print(f"\n{len(universe)} functions; scenario set reached {len(scenario & set(universe))}"
          f", tier-1 {len(tier1 & set(universe))}")
    for kind, rows in missed.items():
        unreferenced = [row for row in rows if not row[3]]
        print(f"{kind}: {len(rows)} functions, {sum(row[2] for row in rows)} lines; "
              f"{len(unreferenced)} functions, {sum(row[2] for row in unreferenced)} lines "
              "with no ref")


if __name__ == "__main__":
    main()
