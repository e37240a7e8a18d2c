"""Cross-commit identity ledger: ``tests/fingerprints.json``.

The golden tests compare macro-stepped against per-token stepping *inside one
commit*; this module compares the commit against history.  It rebuilds the six
workloads of the layered benchmark (``benchmarks/layers/workloads.py``,
imported by path and read-only) at a fraction of their size on seeds 0 and 1,
plus two KV-starved engine scenarios that only the engine's exact
KV-pressure path serves, and asserts every fingerprint, ``sim_*`` value and
engine counter against the committed file — and, where the test holds the
run's environment, the exact number of event ids the kernel issued.  Trace
*content* is pinned the same way: the ``to_dict()`` of every trace
``first_traced`` retains, and three scenarios on the edges of span recording
(a span cap hit between decode windows, ``stop()`` inside a macro window, a
live-streamed traced request whose delivery span opens mid-decode).

The file is rewritten only by::

    PYTHONPATH=src python tests/test_fingerprint_ledger.py --record

A PR that records is by definition a *model change* and says why in
CHANGES.md; a performance PR must pass against the file it inherited.
"""

import dataclasses
import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import pytest

from repro.cluster import A100_40GB, dgx_a100_spec
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelDeploymentSpec,
    ObservabilityConfig,
)
from repro.obs.trace import TRACE_KEY, Span, TraceContext
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
    if hasattr(run, "env"):
        # The run is over, so consuming one id to read the counter is free.
        case["kernel_event_ids"] = next(run.env._eid)
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

#: Engine scenarios on the edges of span recording, same request format;
#: ``traced`` / ``unread`` / ``live`` name the request indices that carry a
#: trace or a stream channel.
TRACE_SCENARIOS = {
    # The starved pool again with every request traced under a 16-span cap:
    # the cap falls between two decode windows of a run, and preemption's
    # queue-wait spans start past it (``dropped_spans`` counts both).
    "span_cap": dict(KV_SCENARIOS["starved"], traced=range(7), unread=(), live=(),
                     max_spans=16),
    # ``stop()`` lands inside a macro window that three traced sequences
    # share; the third has no prompt, so the iteration that admitted it
    # opened a window and its first token is that window's first boundary.
    "stop_mid_window": {"kv_capacity": None, "block_size": 16, "stop_at": 4.0,
                        "traced": (0, 1, 3), "unread": (2,), "live": (),
                        "requests": [(100, 400, 0.0), (100, 300, 0.0),
                                     (60, 200, 0.4), (0, 350, 1.0)]},
}


def _run_engine_scenario(scenario: dict, macro: bool):
    """Drive one engine through ``scenario``; returns ``(engine, results,
    unread stream items, live stream items, traces in request order)``."""
    spec = default_catalog().get("Llama-3.3-70B")

    class TinyKV(PerformanceModel):
        def kv_capacity_tokens(self, vram_utilization=0.9):
            if scenario["kv_capacity"] is None:
                return super().kv_capacity_tokens(vram_utilization)
            return scenario["kv_capacity"]

    env = Environment()
    engine = ContinuousBatchingEngine(
        env, TinyKV(spec, 8, A100_40GB, node_spec=dgx_a100_spec()),
        EngineConfig(generate_text=False, macro_stepping=macro,
                     kv_block_size=scenario["block_size"]))
    unread_at = scenario.get("unread", (1,))
    live_at = scenario.get("live", (2,))
    traced_at = scenario.get("traced", (3, 4))
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
            if i in unread_at or i in live_at:
                request.stream = True
                channels[i] = request.metadata[STREAM_CHANNEL_KEY] = StreamChannel(env)
                if i in live_at:
                    env.process(read_live(channels[i]))
            if i in traced_at:
                traces[i] = request.metadata[TRACE_KEY] = TraceContext(
                    f"trace-{i}", env, sampled=True,
                    max_spans=scenario.get("max_spans", 512))
            events.append(engine.submit(request))
        if "stop_at" in scenario:
            yield env.timeout(scenario["stop_at"] - last)
            engine.stop()

    env.process(driver())
    env.run()
    unread = []
    for i in unread_at:
        while True:
            item = env.run(until=channels[i].get())
            if item is None:
                break
            unread.append((item.kind, item.index, item.time))
    results = [(r.request_id, r.success, r.error, r.output_tokens,
                r.engine_enqueue_time, r.prefill_start_time, r.first_token_time,
                r.completion_time) for r in (event.value for event in events)]
    return engine, results, unread, live_tokens, list(traces.values())


def kv_case(name: str, macro: bool) -> dict:
    engine, results, unread, live_tokens, traces = _run_engine_scenario(
        KV_SCENARIOS[name], macro)
    spans = [(s.name, s.start, s.end, s.status, s.attrs.get("iterations"),
              [(t, n) for t, n, _a in s.events])
             for trace in traces for s in trace.spans]
    # The per-token engine records one decode window per token, the
    # macro-stepped one a span per catch-up: every other span is shared.
    phases = [span for span in spans if span[0] != "engine.decode_window"]
    digest = hashlib.sha256(repr((results, unread, live_tokens, phases)).encode())
    return {"digest": digest.hexdigest(),
            "spans_digest": hashlib.sha256(repr(spans).encode()).hexdigest(),
            "succeeded": sum(1 for r in results if r[1]),
            "streamed_tokens": [len(unread), len(live_tokens)],
            "engines": _engine_state([engine])}


def _traces_digest(traces, *extra) -> str:
    """sha256 over the full ``to_dict()`` (ids, parents, order, attrs, events)
    of every trace, and whatever else the case pins."""
    return hashlib.sha256(
        repr(([trace.to_dict() for trace in traces], *extra)).encode()).hexdigest()


def trace_case(name: str, macro: bool) -> dict:
    engine, results, unread, _live, traces = _run_engine_scenario(
        TRACE_SCENARIOS[name], macro)
    return {"traces_digest": _traces_digest(traces, results, unread),
            "span_counts": [len(trace.spans) for trace in traces],
            "dropped_spans": [trace.dropped_spans for trace in traces],
            "succeeded": sum(1 for r in results if r[1]),
            "engines": _engine_state([engine])}


def retained_traces_case(seed: int) -> dict:
    """What ``first_traced`` keeps: every retained trace, in ``trace_ids()``
    order, and the tracer's counters."""
    run = _layered_workloads().WORKLOADS["first_traced"](
        seed, DIVISORS["first_traced"], 1)
    run.timed()
    tracer = run.deployment.observability.tracer
    traces = [tracer.get(trace_id) for trace_id in tracer.trace_ids()]
    return {"traces_digest": _traces_digest(traces, tracer.stats()),
            "spans": sum(len(trace.spans) for trace in traces),
            "tracer": tracer.stats()}


def tail_sampled_case(seed: int) -> dict:
    """``first_traced`` under a tail predicate: the :class:`TraceShape` of
    every finished trace and which ones the tail ring kept."""
    run = _layered_workloads().WORKLOADS["first_traced"](
        seed, DIVISORS["first_traced"], 1)
    tracer = run.deployment.observability.tracer
    shapes = []

    def long_decode(shape):
        shapes.append(dataclasses.astuple(shape))
        return shape.span_count >= 100

    tracer.config.tail_predicate = long_decode
    run.timed()
    return {"shapes_digest": hashlib.sha256(repr(shapes).encode()).hexdigest(),
            "shapes": len(shapes), "tail_ids": tracer.tail_ids(),
            "tracer": tracer.stats()}


GATEWAY_MODEL = "Qwen/Qwen2.5-7B-Instruct"


def gateway_live_trace_case() -> dict:
    """A traced request streamed through the gateway and read token by token
    (its ``gateway.stream_delivery`` span opens between two decode windows),
    beside a plain and an unread-stream request in the same batch."""
    deployment = FIRSTDeployment(DeploymentConfig(
        clusters=[ClusterDeploymentSpec(
            name="devcluster", kind="small", num_nodes=2, scheduler="local",
            models=[ModelDeploymentSpec(GATEWAY_MODEL, max_parallel_tasks=32)])],
        users=["researcher@anl.gov"], generate_text=False,
        observability=ObservabilityConfig()))
    deployment.warm_up(GATEWAY_MODEL)
    client = deployment.client("researcher@anl.gov")
    pending = [client.submit(InferenceRequest(
        "beside-0", GATEWAY_MODEL, prompt_tokens=60, max_output_tokens=40)),
        client.submit(InferenceRequest(
            "beside-1", GATEWAY_MODEL, prompt_tokens=30, max_output_tokens=25,
            stream=True))]
    chunks = list(client.chat_completion(
        GATEWAY_MODEL, [{"role": "user", "content": "hello"}], max_tokens=12,
        stream=True))
    results = [deployment.env.run(until=event) for event in pending]
    tracer = deployment.observability.tracer
    traces = [tracer.get(trace_id) for trace_id in tracer.trace_ids()]
    live = next(trace for trace in traces if not trace.trace_id.startswith("beside-"))
    names = [span.name for span in live.spans]
    delivery = names.index("gateway.stream_delivery")
    return {"traces_digest": _traces_digest(traces, tracer.stats()),
            "chunks": len(chunks),
            "output_tokens": [r.output_tokens for r in results],
            "span_counts": [len(trace.spans) for trace in traces],
            "windows_before_delivery": names[:delivery].count("engine.decode_window"),
            "windows_after_delivery": names[delivery:].count("engine.decode_window")}


def build_ledger() -> dict:
    import numpy

    cases = {f"{workload}/seed{seed}": layered_case(workload, seed)
             for workload in DIVISORS for seed in SEEDS}
    for name in KV_SCENARIOS:
        for macro in (True, False):
            cases[f"kv_{name}/{'macro' if macro else 'per_token'}"] = kv_case(name, macro)
    for name in TRACE_SCENARIOS:
        for macro in (True, False):
            cases[f"trace_{name}/{'macro' if macro else 'per_token'}"] = trace_case(name, macro)
    for seed in SEEDS:
        cases[f"retained_traces/seed{seed}"] = retained_traces_case(seed)
        cases[f"tail_sampled/seed{seed}"] = tail_sampled_case(seed)
    cases["trace_gateway_live"] = gateway_live_trace_case()
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


def test_traced_run_advances_the_engine_exactly_as_the_untraced_one(monkeypatch):
    """Inside the engine a traced request costs what an untraced one does:
    ``first_traced`` makes ``first_chat``'s ``_advance_epoch`` calls, none of
    which finds a sequence to visit — windows go to the shared log, once."""
    pytest.importorskip("numpy")
    advance = ContinuousBatchingEngine._advance_epoch
    calls = {}

    def counting(engine, n, *args, **kwargs):
        calls[workload].append((n, len(engine._hooked)))
        return advance(engine, n, *args, **kwargs)

    monkeypatch.setattr(ContinuousBatchingEngine, "_advance_epoch", counting)
    for workload in ("first_chat", "first_traced"):
        calls[workload] = []
        _layered_workloads().WORKLOADS[workload](0, DIVISORS[workload], 1).timed()
    assert calls["first_traced"] == calls["first_chat"]
    assert len(calls["first_chat"]) == 1737
    assert all(hooked == 0 for _n, hooked in calls["first_chat"])


@pytest.mark.parametrize("macro", [True, False])
@pytest.mark.parametrize("name", list(KV_SCENARIOS))
def test_kv_starved_engine_matches_the_ledger(name, macro):
    observed = json.loads(json.dumps(kv_case(name, macro)))
    assert observed == recorded(f"kv_{name}/{'macro' if macro else 'per_token'}")
    reference = recorded(f"kv_{name}/per_token")
    assert dict(observed, spans_digest="") == dict(reference, spans_digest="")
    assert observed["engines"][0]["preemptions"] > 0
    assert observed["engines"][0]["kv_used_blocks"] == 0


@pytest.mark.parametrize("macro", [True, False])
@pytest.mark.parametrize("name", list(TRACE_SCENARIOS))
def test_span_recording_edges_match_the_ledger(name, macro):
    observed = json.loads(json.dumps(trace_case(name, macro)))
    assert observed == recorded(f"trace_{name}/{'macro' if macro else 'per_token'}")
    # Simulated results never depend on the stepping mode; span content does
    # (a macro window is one span), so only the engine state is shared.
    assert observed["engines"] == recorded(f"trace_{name}/per_token")["engines"]
    if name == "span_cap":
        assert max(observed["span_counts"]) == 16 and observed["dropped_spans"][0] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_retained_trace_content_matches_the_ledger(seed):
    pytest.importorskip("numpy")
    observed = json.loads(json.dumps(retained_traces_case(seed)))
    assert observed == recorded(f"retained_traces/seed{seed}")
    assert observed["tracer"]["retained"] < observed["tracer"]["finished"]


@pytest.mark.parametrize("seed", SEEDS)
def test_tail_sampling_decides_from_rows(seed, monkeypatch):
    """A tail predicate sees the shapes eager recording produced, and
    computing them builds no decode-window ``Span`` — kept or dropped, no
    run is expanded for the retention decision."""
    pytest.importorskip("numpy")
    init = Span.__init__
    windows_built = []

    def counting_init(span, name, *args):
        if name == "engine.decode_window":
            windows_built.append(span)
        init(span, name, *args)

    monkeypatch.setattr(Span, "__init__", counting_init)
    observed = json.loads(json.dumps(tail_sampled_case(seed)))
    assert observed == recorded(f"tail_sampled/seed{seed}")
    assert 0 < len(observed["tail_ids"]) < observed["shapes"]
    assert not windows_built


def test_live_streamed_traced_request_matches_the_ledger():
    observed = json.loads(json.dumps(gateway_live_trace_case()))
    assert observed == recorded("trace_gateway_live")
    # The delivery span really does open in the middle of the decode run.
    assert observed["windows_before_delivery"] > 0 < observed["windows_after_delivery"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    LEDGER.write_text(json.dumps(build_ledger(), indent=1) + "\n")
    print(f"recorded {LEDGER}")
