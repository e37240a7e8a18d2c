"""Cross-commit identity ledger: ``tests/fingerprints.json``.

The golden tests compare macro-stepped against per-token stepping *inside one
commit*; this module compares the commit against history.  It rebuilds the six
workloads of the layered benchmark (``benchmarks/layers/workloads.py``,
imported by path and read-only) at a fraction of their size on seeds 0 and 1,
plus two KV-starved engine scenarios that only the engine's exact
KV-pressure path serves, and asserts every fingerprint, ``sim_*`` value and
engine counter against the committed file.

The file is rewritten only by::

    PYTHONPATH=src python tests/test_fingerprint_ledger.py --record

A PR that records is by definition a *model change* and says why in
CHANGES.md; a performance PR must pass against the file it inherited.
"""

import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import pytest

from repro.cluster import A100_40GB, dgx_a100_spec
from repro.obs.trace import TRACE_KEY, TraceContext
from repro.serving import (
    ContinuousBatchingEngine,
    EngineConfig,
    InferenceRequest,
    PerformanceModel,
    default_catalog,
)
from repro.serving.stream import STREAM_CHANNEL_KEY, StreamChannel
from repro.sim import Environment

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).with_name("fingerprints.json")
SEEDS = (0, 1)
#: Request-count divisors: full size is the benchmark's business, the ledger
#: only has to execute every layer's code on realistic batch widths.
DIVISORS = {
    "engine_poisson": 10,
    "first_chat": 10,
    "first_stream": 10,
    "first_traced": 10,
    "federated_w2": 10,
    "fig3_anchors": 5,
}


def _layered_workloads():
    name = "layers_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "benchmarks" / "layers" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _engine_state(engines) -> list:
    return [{"stats": engine.stats.snapshot(),
             "allocation_failures": engine.kv.allocation_failures,
             "preemptions": engine.kv.preemptions,
             "kv_used_blocks": engine.kv.used_blocks}
            for engine in engines]


def layered_case(workload: str, seed: int) -> dict:
    run = _layered_workloads().WORKLOADS[workload](seed, DIVISORS[workload], 1)
    run.timed()
    outcome = run.outcome()
    case = {"requests": run.attempted, "fingerprint": outcome["fingerprint"],
            "failed": outcome["failed"], "problems": outcome["problems"],
            "sim": outcome["sim"]}
    if "anchor_err_mean" in outcome:
        case["anchor_err_mean"] = outcome["anchor_err_mean"]
    if hasattr(run, "engine"):
        case["engines"] = _engine_state([run.engine])
    elif hasattr(run, "deployment"):
        case["engines"] = _engine_state(
            instance.engine
            for endpoint in run.deployment.endpoints.values()
            for pool in endpoint.pools.values()
            for instance in pool.instances)
    return case


#: KV-starved engine scenarios: ``(prompt, output, arrival offset)`` per
#: request into a pool of ``kv_capacity`` tokens in blocks of ``block_size``.
#: Request 1 is streamed and left unread, request 2 streamed and read live,
#: requests 3 and 4 traced.
KV_SCENARIOS = {
    # Long sequences outgrow a 900-token pool while late arrivals split
    # windows: 28 preemptions, the streamed and the traced requests among
    # the victims, each recomputed from scratch.
    "starved": {"kv_capacity": 900, "block_size": 16, "requests": [
        (100, 400, 0.0), (100, 300, 0.0), (100, 250, 0.5), (60, 120, 0.5),
        (100, 300, 5.0), (40, 60, 5.0), (80, 200, 9.0)]},
    # Four blocks: when the first sequence crosses a block boundary at its
    # 16th token the pool is full and the victim is the later sequence that
    # would have finished in that very iteration.
    "victim_finishing": {"kv_capacity": 64, "block_size": 16, "requests": [
        (16, 40, 0.0), (16, 16, 0.0), (16, 8, 0.3), (16, 24, 0.3)]},
}


def kv_case(name: str, macro: bool) -> dict:
    scenario = KV_SCENARIOS[name]
    spec = default_catalog().get("Llama-3.3-70B")

    class TinyKV(PerformanceModel):
        def kv_capacity_tokens(self, vram_utilization=0.9):
            return scenario["kv_capacity"]

    env = Environment()
    engine = ContinuousBatchingEngine(
        env, TinyKV(spec, 8, A100_40GB, node_spec=dgx_a100_spec()),
        EngineConfig(generate_text=False, macro_stepping=macro,
                     kv_block_size=scenario["block_size"]))
    events, channels, live_tokens, traces = [], {}, [], {}

    def read_live(channel):
        while True:
            item = yield channel.get()
            if item is None:
                return
            live_tokens.append((item.kind, item.index, item.time))

    def driver():
        last = 0.0
        for i, (prompt, output, offset) in enumerate(scenario["requests"]):
            if offset > last:
                yield env.timeout(offset - last)
                last = offset
            request = InferenceRequest(f"kv-{i}", spec.name, prompt_tokens=prompt,
                                       max_output_tokens=output)
            if i in (1, 2):
                request.stream = True
                channels[i] = request.metadata[STREAM_CHANNEL_KEY] = StreamChannel(env)
                if i == 2:
                    env.process(read_live(channels[i]))
            elif i in (3, 4):
                traces[i] = request.metadata[TRACE_KEY] = TraceContext(
                    f"trace-{i}", env, sampled=True)
            events.append(engine.submit(request))

    env.process(driver())
    env.run()
    unread = []
    while True:
        item = env.run(until=channels[1].get())
        if item is None:
            break
        unread.append((item.kind, item.index, item.time))
    results = [(r.request_id, r.success, r.error, r.output_tokens,
                r.engine_enqueue_time, r.prefill_start_time, r.first_token_time,
                r.completion_time) for r in (event.value for event in events)]
    spans = [(s.name, s.start, s.end, s.status, s.attrs.get("iterations"),
              [(t, n) for t, n, _a in s.events])
             for trace in traces.values() for s in trace.spans]
    # The per-token engine records one decode window per token, the
    # macro-stepped one a span per catch-up: every other span is shared.
    phases = [span for span in spans if span[0] != "engine.decode_window"]
    digest = hashlib.sha256(repr((results, unread, live_tokens, phases)).encode())
    return {"digest": digest.hexdigest(),
            "spans_digest": hashlib.sha256(repr(spans).encode()).hexdigest(),
            "succeeded": sum(1 for r in results if r[1]),
            "streamed_tokens": [len(unread), len(live_tokens)],
            "engines": _engine_state([engine])}


def build_ledger() -> dict:
    import numpy

    cases = {f"{workload}/seed{seed}": layered_case(workload, seed)
             for workload in DIVISORS for seed in SEEDS}
    for name in KV_SCENARIOS:
        for macro in (True, False):
            cases[f"kv_{name}/{'macro' if macro else 'per_token'}"] = kv_case(name, macro)
    return {"header": {"python": platform.python_version(),
                       "numpy": numpy.__version__,
                       "divisors": DIVISORS,
                       "record": "PYTHONPATH=src python tests/test_fingerprint_ledger.py --record"},
            "cases": cases}


def recorded(case: str) -> dict:
    return json.loads(LEDGER.read_text())["cases"][case]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(DIVISORS))
def test_layered_workload_matches_the_ledger(workload, seed):
    pytest.importorskip("numpy")  # the request generators need it
    # Through JSON, as the file was written: floats round-trip exactly.
    observed = json.loads(json.dumps(layered_case(workload, seed)))
    assert observed == recorded(f"{workload}/seed{seed}")
    assert observed["failed"] == 0 and observed["problems"] == []


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_relations_between_workloads(seed):
    """Tracing is observe-only: ``first_traced`` reproduces ``first_chat``."""
    traced, chat = recorded(f"first_traced/seed{seed}"), recorded(f"first_chat/seed{seed}")
    assert traced["fingerprint"] == chat["fingerprint"]
    assert traced["sim"] == chat["sim"] and traced["engines"] == chat["engines"]


@pytest.mark.parametrize("macro", [True, False])
@pytest.mark.parametrize("name", list(KV_SCENARIOS))
def test_kv_starved_engine_matches_the_ledger(name, macro):
    observed = json.loads(json.dumps(kv_case(name, macro)))
    assert observed == recorded(f"kv_{name}/{'macro' if macro else 'per_token'}")
    reference = recorded(f"kv_{name}/per_token")
    assert dict(observed, spans_digest="") == dict(reference, spans_digest="")
    assert observed["engines"][0]["preemptions"] > 0
    assert observed["engines"][0]["kv_used_blocks"] == 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    LEDGER.write_text(json.dumps(build_ledger(), indent=1) + "\n")
    print(f"recorded {LEDGER}")
