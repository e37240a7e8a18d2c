"""Smoke test of the layered benchmark (run it by path; tier-1 collects
``tests/`` only):

    python -m pytest benchmarks/layers/test_layers_smoke.py -q

Runs ``run.py --smoke`` once (N / 20, one repeat, traced run included) and
holds its output against ``BENCHMARK.json``.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Layers each workload must leave untouched: every layer has one workload
#: that works it and one that bypasses it.
BYPASSED = {
    "engine_poisson": ("faas", "gateway", "obs", "parallel"),
    "first_chat": ("obs", "parallel"),
    "first_stream": ("obs", "parallel"),
    "first_traced": ("parallel",),
}
WORKED = {
    "engine_poisson": ("sim", "serving"),
    "first_chat": ("faas", "gateway"),
    "first_traced": ("obs",),
    "federated_w2": ("parallel", "placement"),
    "fig3_anchors": ("sweep",),
}


@pytest.fixture(scope="module")
def registry():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("layers")
    done = subprocess.run([sys.executable, RUN, "--smoke", "--out-dir", str(out_dir)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out_dir / "results.json") as handle:
        results = json.load(handle)
    return {"stdout": done.stdout, "results": results, "out_dir": out_dir}


def test_registry_is_well_formed(registry):
    assert set(registry) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert registry["paths"] == ["benchmarks/layers"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in registry[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in registry["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in registry["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in registry["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")
    for metric in registry["end_to_end"] + registry["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    setup = [m for m in registry["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in registry["end_to_end"])


def test_every_workload_reports_what_it_declares(registry, smoke):
    header = smoke["results"]["header"]
    for key in ("cpu_count", "python", "commit", "seed", "repeats"):
        assert key in header
    workloads = smoke["results"]["workloads"]
    assert list(sorted(workloads)) == sorted(w["name"] for w in registry["workloads"])
    for name, result in workloads.items():
        assert not result["problems"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["end_to_end"]) == sorted(
            m["name"] for m in registry["end_to_end"])
        assert sorted(result["per_layer"]) == sorted(
            m["name"] for m in registry["per_layer"])
        for metric, stat in result["end_to_end"].items():
            assert stat["median"] > 0, f"{name}/{metric} must never be 0"
        # Every metric is printed by name with its unit.
        for metric in registry["end_to_end"] + registry["per_layer"]:
            assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}",
                             smoke["stdout"], re.M), metric["name"]


def test_layers_are_worked_and_bypassed(smoke):
    workloads = smoke["results"]["workloads"]
    for name, layers in BYPASSED.items():
        for layer in layers:
            assert workloads[name]["per_layer"][f"{layer}.self_us_per_req"] == 0, (name, layer)
    for name, layers in WORKED.items():
        for layer in layers:
            assert workloads[name]["per_layer"][f"{layer}.self_us_per_req"] > 0, (name, layer)
    assert (workloads["first_traced"]["sim_fingerprint"]
            == workloads["first_chat"]["sim_fingerprint"])
    assert workloads["first_traced"]["per_layer"]["obs.traces_finished"] > 0


def test_trace_files_hold_spans_and_self_times(smoke):
    for name, result in smoke["results"]["workloads"].items():
        with open(smoke["out_dir"] / f"trace_{name}.json") as handle:
            trace = json.load(handle)
        assert trace["spans"], name
        assert set(trace["spans"][0]) == {"id", "name", "start_ns", "end_ns",
                                          "parent", "request_id"}
        covered = sum(row["self_s"] for row in trace["layers"].values())
        assert abs(covered - trace["traced_wall_s"]) <= 0.05 * trace["traced_wall_s"]
        assert result["per_layer"]["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line(registry, tmp_path, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "first_traced", "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--smoke", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = registry["per_layer" if trace else "end_to_end"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_compare_same_file_has_no_regression(smoke):
    path = str(smoke["out_dir"] / "results.json")
    done = subprocess.run([sys.executable, RUN, "--compare", path, path],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout[-2000:]
    assert "no regression" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: exit non-zero, print no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "layers",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", "--workload", "first_chat",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
