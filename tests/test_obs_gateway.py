"""End-to-end observability tests: the span tree of a streamed request
across every layer, the gateway's metrics/trace endpoints and the
bit-identity guarantee (tracing on == tracing off)."""

import json
import logging
from dataclasses import replace

import pytest

from repro.common import NotFoundError, sim_logger
from repro.core.calibration import default_gateway_config
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
    ObservabilityConfig,
    quickstart_config,
)
from repro.gateway import default_middleware_factories
from repro.obs import span_tree
from repro.placement import ReservationMiddleware
from repro.sim import Environment

MODEL = "Qwen/Qwen2.5-7B-Instruct"


def obs_deployment(observability=None, **config):
    return FIRSTDeployment(DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="devcluster", kind="small", num_nodes=2, scheduler="local",
                models=[ModelHostingConfig(MODEL, max_parallel_tasks=32)],
            )
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
        observability=observability,
        **config,
    ))


@pytest.fixture(scope="module")
def traced_request():
    """One streamed request through a traced deployment (shared, read-only)."""
    deployment = obs_deployment(ObservabilityConfig(profile_kernel=True))
    deployment.warm_up(MODEL)
    client = deployment.client("researcher@anl.gov")
    chunks = list(client.chat_completion(
        MODEL, [{"role": "user", "content": "hello"}], max_tokens=8, stream=True))
    trace_id = deployment.observability.tracer.trace_ids()[0]
    return deployment, client, chunks, trace_id


def _index(spans):
    return {s["name"]: s for s in spans}


# -- span-tree completeness -----------------------------------------------------

def test_streamed_request_span_tree_covers_every_layer(traced_request):
    deployment, client, chunks, trace_id = traced_request
    assert chunks[-1]["choices"][0]["finish_reason"] == "stop"
    trace = client.get_trace(trace_id)
    assert trace["trace_id"] == trace_id
    spans = trace["spans"]
    by_name = _index(spans)

    # Every layer of the pipeline shows up.
    for name, layer in [
        ("gateway.request", "gateway"),
        ("gateway.stage.routing", "gateway"),
        ("gateway.stage.dispatch", "gateway"),
        ("gateway.stream_delivery", "gateway"),
        ("relay.transfer", "relay"),
        ("relay.result", "relay"),
        ("endpoint.execute", "endpoint"),
        ("endpoint.queue_wait", "endpoint"),
        ("engine.request", "engine"),
        ("engine.queue_wait", "engine"),
        ("engine.prefill", "engine"),
    ]:
        assert name in by_name, f"missing span {name}"
        assert by_name[name]["layer"] == layer

    # Streaming forces per-token decode: one window span per post-first token.
    windows = [s for s in spans if s["name"] == "engine.decode_window"]
    assert len(windows) == 7  # 8 tokens - the prefill-produced first token
    assert all(w["attrs"]["iterations"] == 1 for w in windows)

    # The routing decision is annotated with the policy and chosen endpoint.
    routing = by_name["gateway.stage.routing"]
    assert routing["attrs"]["endpoint"] == "ep-devcluster"
    assert routing["attrs"]["policy"] == "PriorityRouter"

    root = by_name["gateway.request"]
    assert root["parent_id"] is None
    assert root["attrs"]["outcome"] == "success"
    assert root["attrs"]["stream"] is True
    assert by_name["gateway.stream_delivery"]["attrs"]["tokens"] == 8


def test_unread_stream_is_traced_as_the_live_one_was():
    """A streamed request nobody reads live crosses the hop as one batch; its
    delivery span, TTFT histogram sample and rolling TTFT input must be the
    values recorded when every token was its own hop (commit 2d275b0)."""
    from repro.serving import InferenceRequest

    deployment = obs_deployment(ObservabilityConfig())
    deployment.warm_up(MODEL)
    client = deployment.client("researcher@anl.gov")
    result = deployment.env.run(until=client.submit(InferenceRequest(
        "traced-stream-0", MODEL, prompt_tokens=40, max_output_tokens=12,
        stream=True)))
    spans = client.get_trace(deployment.observability.tracer.trace_ids()[0])["spans"]
    delivery = _index(spans)["gateway.stream_delivery"]
    token_times = result.metadata["gateway_token_times"]
    assert len(token_times) == 12
    assert (delivery["start"], delivery["end"]) == (35.67370536896933, 35.95524242145696)
    assert (delivery["start"], delivery["end"]) == (token_times[0], token_times[-1])
    assert delivery["attrs"] == {"tokens": 12}
    ttft = deployment.gateway.metrics.ttft.labels(model=MODEL)
    assert (ttft.count, ttft.sum) == (1, 6.17370536896933)
    recent = deployment.gateway.metrics.recent_timings(MODEL, "ep-devcluster")
    assert recent["ttft_p50_s"] == 6.17370536896933
    assert deployment.env.now == 37.91655454266908
    # What did change: the engine macro-steps the request, so the eleven
    # post-prefill tokens are one decode window instead of eleven.
    windows = [s for s in spans if s["name"] == "engine.decode_window"]
    assert [w["attrs"]["iterations"] for w in windows] == [11]
    assert (windows[0]["start"], windows[0]["end"]) == (35.62370536896933,
                                                        35.90524242145696)


def test_span_nesting_and_monotone_timestamps(traced_request):
    deployment, client, _, trace_id = traced_request
    trace = client.get_trace(trace_id)
    spans = trace["spans"]
    by_id = {s["span_id"]: s for s in spans}

    for span in spans:
        assert span["end"] is not None, f"unclosed span {span['name']}"
        assert span["end"] >= span["start"] >= trace["started_at"]
        assert span["end"] <= trace["finished_at"]
        parent = by_id.get(span["parent_id"]) if span["parent_id"] else None
        if parent is not None:
            # Children start within their parent.
            assert span["start"] >= parent["start"]

    roots = span_tree(spans)
    assert [r["name"] for r in roots] == ["gateway.request"]

    # The pipeline stages nest in chain order down to dispatch, which owns
    # the cross-layer subtree.
    node = roots[0]
    chain = []
    while node is not None:
        chain.append(node["name"])
        node = next((c for c in node["children"]
                     if c["name"].startswith("gateway.stage.")), None)
    assert chain == [
        "gateway.request", "gateway.stage.validation", "gateway.stage.auth",
        "gateway.stage.rate-limit", "gateway.stage.accounting", "gateway.stage.routing",
        "gateway.stage.dispatch",
    ]

    dispatch = _index(trace["spans"])["gateway.stage.dispatch"]["span_id"]
    for name in ("relay.transfer", "relay.result", "endpoint.execute",
                 "engine.request", "gateway.stream_delivery"):
        assert _index(spans)[name]["parent_id"] == dispatch
    engine_root = _index(spans)["engine.request"]["span_id"]
    for name in ("engine.queue_wait", "engine.prefill", "engine.decode_window"):
        assert _index(spans)[name]["parent_id"] == engine_root


# -- retrieval endpoints --------------------------------------------------------

def test_trace_and_metrics_endpoints(traced_request):
    deployment, client, _, trace_id = traced_request
    with pytest.raises(NotFoundError):
        client.get_trace("no-such-trace")

    text = client.metrics_text()
    assert '# TYPE gateway_requests_total counter' in text
    assert f'gateway_requests_total{{model="{MODEL}",outcome="success"}} 1' in text
    assert "gateway_request_latency_seconds_count" in text
    assert "gateway_ttft_seconds_count" in text
    assert f'gateway_tokens_total{{model="{MODEL}",kind="output"}} 8' in text
    assert "gateway_in_flight_requests 0" in text

    dashboard = client.dashboard()
    json.dumps(dashboard)  # plain JSON-serializable
    assert dashboard["uptime_s"] > 0
    obs = dashboard["observability"]
    assert obs["tracing"]["finished"] == 1
    assert obs["kernel"]["events_total"] > 0
    assert obs["slowest"][0]["trace_id"] == trace_id


def test_disabled_observability_endpoints_raise(traced_request):
    deployment = obs_deployment()  # no observability configured
    assert deployment.observability is None
    with pytest.raises(NotFoundError):
        deployment.gateway.get_trace("anything")


# -- bit-identity ---------------------------------------------------------------

def _workload_signature(observability):
    deployment = obs_deployment(observability)
    deployment.warm_up(MODEL)
    client = deployment.client("researcher@anl.gov")
    signature = []
    for i in range(4):
        stream = i % 2 == 0
        response = client.chat_completion(
            MODEL, [{"role": "user", "content": f"msg {i}"}],
            max_tokens=6 + i, stream=stream)
        if stream:
            list(response)
        signature.append(deployment.env.now)
    signature.append(deployment.gateway.metrics.total_output_tokens)
    return signature


def test_results_bit_identical_with_tracing_on_or_off():
    baseline = _workload_signature(None)
    traced = _workload_signature(ObservabilityConfig(profile_kernel=True))
    sampled_off = _workload_signature(ObservabilityConfig(sample_rate=0.0))
    assert traced == baseline
    assert sampled_off == baseline


# -- one metrics store ----------------------------------------------------------

def _metrics_after_mixed_traffic(observability):
    """Two identical requests, one the KV pool cannot hold, one for a model
    no endpoint hosts, and a streamed request."""
    from repro.serving import InferenceRequest

    deployment = obs_deployment(observability)
    deployment.warm_up(MODEL)
    client = deployment.client("researcher@anl.gov", raise_on_error=False)
    messages = [{"role": "user", "content": "cached"}]
    for _ in range(2):
        client.chat_completion(MODEL, messages, max_tokens=6)
    failed = deployment.env.run(until=client.submit(InferenceRequest(
        "too-long", MODEL, prompt_tokens=5_000_000, max_output_tokens=4)))
    assert failed.error == "KV cache exhausted"
    unhosted = client.submit(InferenceRequest(
        "unhosted", "meta-llama/Llama-3.1-8B-Instruct", prompt_tokens=5,
        max_output_tokens=4))
    with pytest.raises(NotFoundError):
        deployment.env.run(until=unhosted)
    list(client.chat_completion(MODEL, [{"role": "user", "content": "s"}],
                                max_tokens=5, stream=True))
    return deployment


def test_gateway_metrics_are_one_store_with_or_without_tracing():
    plain = _metrics_after_mixed_traffic(None)
    traced = _metrics_after_mixed_traffic(ObservabilityConfig())
    # Tracing changes nothing /v1/metrics reports.
    assert traced.gateway.metrics_text() == plain.gateway.metrics_text()

    metrics = plain.gateway.metrics
    dashboard = plain.gateway.dashboard()
    outcomes = metrics.requests_total.child_values()
    assert {key: value for key, value in outcomes.items() if value} == {
        (MODEL, "success"): 3, (MODEL, "failure"): 1,
                        ("meta-llama/Llama-3.1-8B-Instruct", "exception"): 1}
    assert sum(outcomes.values()) == dashboard["total_requests"] == 5
    output = {key: value for key, value in metrics.tokens_total.child_values().items()
              if key[1] == "output"}
    assert sum(output.values()) == dashboard["total_output_tokens"] > 0
    assert metrics.ttft.labels(model=MODEL).count == 1
    assert "gateway_in_flight_requests 0\n" in plain.gateway.metrics_text()
    assert dashboard["in_flight"] == 0


# -- the pipeline's unwind contract ---------------------------------------------

def test_unrecorded_trace_is_finished_when_the_request_fails():
    """A head-dropped (non-recording) trace is finished on failure too."""
    config = quickstart_config(generate_text=False)
    config.observability = ObservabilityConfig(sample_rate=0.0, slowest_k=0)
    config.gateway.rate_limit_requests = 1
    deployment = FIRSTDeployment(config)
    deployment.warm_up(MODEL)
    client = deployment.client("researcher@anl.gov", raise_on_error=False)
    client.chat_completion(MODEL, [{"role": "user", "content": "1"}], max_tokens=4)
    rejected = client.chat_completion(MODEL, [{"role": "user", "content": "2"}],
                                      max_tokens=4)
    assert rejected["error"]["type"] == "rate_limit_error"
    stats = deployment.observability.tracer.stats()
    assert (stats["begun"], stats["finished"]) == (2, 2)


def _reservation_deployment():
    """A traced deployment whose chain, configured through
    ``gateway.middleware_factories``, has ``ReservationMiddleware`` after auth."""
    factories = default_middleware_factories()
    factories.insert(2, ReservationMiddleware)  # after validation, auth
    return obs_deployment(ObservabilityConfig(), gateway=replace(
        default_gateway_config(), middleware_factories=factories))


@pytest.mark.parametrize("configured", [False, True])
def test_observability_stage_runs_first_with_any_chain(configured):
    """``DeploymentConfig.observability`` puts its stage first in front of the
    stock chain and in front of configured ``middleware_factories`` alike."""
    deployment = (_reservation_deployment() if configured
                  else obs_deployment(ObservabilityConfig()))
    stages = deployment.gateway.pipeline.stage_names()
    assert deployment.observability is not None
    assert stages[0] == "observability"
    if configured:
        assert stages[:4] == ["observability", "validation", "auth", "reservation"]


def test_editing_a_tracer_config_reaches_no_other_deployment():
    """Each tracer keeps a private copy of the config it was built from."""
    shared = ObservabilityConfig()
    first, second = obs_deployment(shared), obs_deployment(shared)
    edited = first.observability.tracer.config
    edited.tail_predicate = lambda shape: True
    edited.sample_rate = 0.0
    assert shared == ObservabilityConfig()
    assert second.observability.tracer.config == ObservabilityConfig()


def test_tail_sampling_through_a_deployment_keeps_the_failed_request():
    """A tail predicate set on the deployment's config keeps the request that
    failed and drops the one that succeeded."""
    deployment = obs_deployment(ObservabilityConfig(
        sample_rate=0.0, slowest_k=0, tail_predicate=lambda s: s.error_spans > 0))
    deployment.warm_up(MODEL)
    client = deployment.client("researcher@anl.gov", raise_on_error=False)
    client.chat_completion(MODEL, [{"role": "user", "content": "ok"}], max_tokens=4)
    deployment.topology.deregister("ep-devcluster")
    envelope = client.chat_completion(MODEL, [{"role": "user", "content": "lost"}],
                                      max_tokens=4)
    assert envelope["error"]["status"] == 404
    tracer = deployment.observability.tracer
    assert tracer.stats()["finished"] == 2
    assert len(tracer.tail_ids()) == 1
    root = tracer.get(tracer.tail_ids()[0]).spans[0]
    assert root.attrs["outcome"] == "exception"


def test_failure_after_accounting_unwinds_every_stage():
    """Routing fails after accounting logged the request: every entered stage
    settles its books on the way out and every stage span carries the error."""
    deployment = _reservation_deployment()
    tenant = "researcher@anl.gov"
    deployment.topology.reserve(tenant, MODEL, 2)
    deployment.topology.deregister("ep-devcluster")
    client = deployment.client(tenant, raise_on_error=False)
    envelope = client.chat_completion(MODEL, [{"role": "user", "content": "x"}],
                                      max_tokens=4)
    assert envelope["error"]["status"] == 404

    gateway = deployment.gateway
    assert [e.status for e in gateway.db.request_log] == ["failed"]
    assert gateway.metrics.requests_total.child_values()[MODEL, "exception"] == 1
    assert gateway.metrics.in_flight == 0
    assert deployment.topology.admitted(MODEL, tenant) == 0

    tracer = deployment.observability.tracer
    assert tracer.stats()["finished"] == 1
    spans = tracer.get(tracer.trace_ids()[0]).spans
    root = spans[0]
    assert root.name == "gateway.request"
    assert root.attrs["outcome"] == "exception"
    stages = [s for s in spans if s.name.startswith("gateway.stage.")]
    assert [s.name[len("gateway.stage."):] for s in stages] == [
        "validation", "auth", "reservation", "rate-limit", "accounting",
        "routing"]
    assert {s.status for s in [root] + stages} == {"error:NotFoundError"}
    assert all(s.end is not None for s in [root] + stages)


# -- sim-time structured logging ------------------------------------------------

def test_sim_logger_stamps_simulated_time(caplog):
    env = Environment()
    log = sim_logger("repro.test", env)

    def proc():
        yield env.timeout(12.5)
        log.warning("queue full", depth=3, limit=2)

    env.process(proc())
    with caplog.at_level(logging.WARNING, logger="repro.test"):
        env.run()
    record = caplog.records[-1]
    assert record.sim_time == 12.5
    assert record.sim_fields == {"depth": 3, "limit": 2}
    assert record.getMessage() == "[t=12.500s] queue full (depth=3 limit=2)"
