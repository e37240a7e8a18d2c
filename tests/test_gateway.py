"""Tests for the Inference Gateway: the API v2 middleware pipeline, typed
error envelopes, streaming, auth layer, rate limiting, caching, OpenAI
endpoints, batches, jobs, dashboard and the optimization toggles."""

import pytest

from repro.common import (
    AuthenticationError,
    AuthorizationError,
    NotFoundError,
    RateLimitError,
    ValidationError,
)
from repro.auth import AccessPolicy
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.gateway import (
    GatewayConfig,
    Middleware,
    RetrievalMode,
    ServerMode,
    SlidingWindowRateLimiter,
    default_middleware_factories,
)
from repro.serving import InferenceRequest, RequestKind
from repro.workload import ShareGPTWorkload, requests_to_jsonl

MODEL_7B = "Qwen/Qwen2.5-7B-Instruct"
MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"
EMBED = "nvidia/NV-Embed-v2"


def small_deployment(gateway_config=None, users=None, generate_text=True):
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="devcluster",
                kind="small",
                num_nodes=2,
                scheduler="local",
                models=[
                    ModelHostingConfig(MODEL_7B, max_parallel_tasks=32),
                    ModelHostingConfig(MODEL_8B, max_parallel_tasks=32),
                    ModelHostingConfig(EMBED, backend="infinity"),
                ],
            )
        ],
        gateway=gateway_config or GatewayConfig(),
        users=users or ["researcher@anl.gov", "student@university.edu"],
        generate_text=generate_text,
    )
    return FIRSTDeployment(config)


@pytest.fixture(scope="module")
def warm_deployment():
    """A deployment with the 7B model already hot (shared across read-only tests)."""
    deployment = small_deployment()
    deployment.warm_up(MODEL_7B)
    return deployment


# -- rate limiter unit tests ---------------------------------------------------------

def test_rate_limiter_sliding_window():
    limiter = SlidingWindowRateLimiter(max_requests=3, window_s=10.0)
    limiter.check("u", now=0.0)
    limiter.check("u", now=1.0)
    limiter.check("u", now=2.0)
    with pytest.raises(RateLimitError):
        limiter.check("u", now=3.0)
    # After the window slides, capacity frees up.
    limiter.check("u", now=11.0)
    assert limiter.rejections == 1
    # Only the events still inside the 10 s window count (t=2 and t=11).
    assert limiter.current_usage("u", now=11.0) == 2


def test_rate_limiter_validation():
    with pytest.raises(ValueError):
        SlidingWindowRateLimiter(0, 10.0)
    with pytest.raises(ValueError):
        SlidingWindowRateLimiter(10, 0.0)


# -- end-to-end request path ------------------------------------------------------------

def test_chat_completion_end_to_end(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    response = client.chat_completion(
        MODEL_7B, [{"role": "user", "content": "Summarise the climate runs"}], max_tokens=64
    )
    assert response["object"] == "chat.completion"
    assert response["model"] == MODEL_7B
    assert response["usage"]["completion_tokens"] == 64
    assert response["choices"][0]["message"]["content"].startswith(f"[{MODEL_7B}]")


def test_completion_endpoint(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    response = client.completion(MODEL_7B, "Explain PBS job arrays", max_tokens=32)
    assert response["usage"]["completion_tokens"] == 32


def test_embeddings_endpoint(warm_deployment):
    deployment = warm_deployment
    client = deployment.client("researcher@anl.gov")
    response = client.embedding(EMBED, "parallel filesystem striping guidance")
    assert response["object"] == "list"
    vector = response["data"][0]["embedding"]
    assert len(vector) == deployment.catalog.get(EMBED).embedding_dim


def test_unknown_model_rejected(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    with pytest.raises(ValidationError):
        client.chat_completion("no-such-model", [{"role": "user", "content": "hi"}])


def test_missing_messages_rejected(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    with pytest.raises(ValidationError):
        client.chat_completion(MODEL_7B, [])


def test_excessive_max_tokens_rejected(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    with pytest.raises(ValidationError):
        client.chat_completion(MODEL_7B, [{"role": "user", "content": "hi"}], max_tokens=10**6)


def test_invalid_token_rejected(warm_deployment):
    deployment = warm_deployment
    gateway = deployment.gateway
    request = InferenceRequest("bad-token-req", MODEL_7B, prompt_tokens=10, max_output_tokens=10)
    ev = gateway.submit_request("forged-token", request)
    with pytest.raises(AuthenticationError):
        deployment.env.run(until=ev)


def test_model_policy_enforced(warm_deployment):
    deployment = warm_deployment
    deployment.auth.policies.add_policy(
        AccessPolicy("qwen-lock", resource=f"model:{MODEL_8B}", allowed_domains=["anl.gov"])
    )
    messages = [{"role": "user", "content": "hi"}]
    client = deployment.client("student@university.edu")
    with pytest.raises(AuthorizationError):
        client.chat_completion(MODEL_8B, messages, max_tokens=8)
    envelope = deployment.client("student@university.edu", raise_on_error=False)
    error = envelope.chat_completion(MODEL_8B, messages, max_tokens=8)["error"]
    assert (error["type"], error["status"]) == ("permission_error", 403)
    # The policy guards only its model: the same user is served elsewhere.
    assert "error" not in envelope.chat_completion(MODEL_7B, messages, max_tokens=8)
    # A user from an allowed domain is served (the model may need a cold
    # start, so this goes through the full path).
    ok_client = deployment.client("researcher@anl.gov")
    response = ok_client.chat_completion(MODEL_8B, messages, max_tokens=8)
    assert response["usage"]["completion_tokens"] == 8


def test_gateway_rate_limit_enforced():
    deployment = small_deployment(
        gateway_config=GatewayConfig(rate_limit_requests=2, rate_limit_window_s=60.0)
    )
    deployment.warm_up(MODEL_7B)
    client = deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "1"}], max_tokens=8)
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "2"}], max_tokens=8)
    with pytest.raises(RateLimitError):
        client.chat_completion(MODEL_7B, [{"role": "user", "content": "3"}], max_tokens=8)
    assert deployment.gateway.metrics.rate_limited == 1


def test_token_introspection_cache_counts(warm_deployment):
    deployment = warm_deployment
    client = deployment.client("researcher@anl.gov")
    before_misses = deployment.gateway.auth_layer.cache_misses
    before_hits = deployment.gateway.auth_layer.cache_hits
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "a"}], max_tokens=8)
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "b"}], max_tokens=8)
    assert deployment.gateway.auth_layer.cache_misses == before_misses + 1
    assert deployment.gateway.auth_layer.cache_hits >= before_hits + 1


def test_request_logging_and_usage_summary(warm_deployment):
    deployment = warm_deployment
    db = deployment.database
    before = db.total_requests
    client = deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "log me"}], max_tokens=16)
    assert db.total_requests == before + 1
    entry = db.request_log[-1]
    assert entry.user == "researcher@anl.gov"
    assert entry.model == MODEL_7B
    assert entry.status == "completed"
    assert entry.output_tokens == 16
    assert entry.latency_s > 0
    summary = db.usage_summary()
    assert summary["total_users"] >= 1
    assert summary["total_output_tokens"] >= 16


def test_jobs_endpoint_reports_model_states(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    jobs = client.jobs()
    by_model = {j["model"]: j for j in jobs}
    assert by_model[MODEL_7B]["state"] == "running"
    assert by_model[MODEL_8B]["state"] in ("cold", "running", "starting", "queued")
    assert by_model[MODEL_7B]["cluster"] == "devcluster"


def test_list_models_endpoint(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    listing = client.models()
    ids = [m["id"] for m in listing["data"]]
    assert MODEL_7B in ids and MODEL_8B in ids and EMBED in ids


def test_dashboard_metrics(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "metrics"}], max_tokens=8)
    dashboard = client.dashboard()
    assert dashboard["total_requests"] >= 1
    assert dashboard["database"]["total_requests"] >= 1
    models = {m["model"] for m in dashboard["models"]}
    assert MODEL_7B in models


def test_batch_endpoint_end_to_end(warm_deployment):
    deployment = warm_deployment
    client = deployment.client("researcher@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=25)
    batch = client.create_batch(requests_to_jsonl(requests))
    assert batch["status"] == "in_progress"
    final = client.wait_for_batch(batch["id"], poll_every_s=60.0)
    assert final["status"] == "completed"
    assert final["request_counts"]["completed"] == 25
    assert final["output_tokens"] > 0


def test_batch_requires_single_model(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    mixed = (
        ShareGPTWorkload().generate(MODEL_7B, num_requests=2)
        + ShareGPTWorkload().generate(MODEL_8B, num_requests=2, id_prefix="other")
    )
    with pytest.raises(ValidationError):
        client.create_batch(requests_to_jsonl(mixed))


def test_get_unknown_batch_raises(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    with pytest.raises(NotFoundError):
        client.get_batch("batch-does-not-exist")
    envelope_client = warm_deployment.client("researcher@anl.gov", raise_on_error=False)
    response = envelope_client.get_batch("batch-does-not-exist")
    assert response["error"]["type"] == "not_found_error"


def test_token_refresh_is_transparent(warm_deployment):
    deployment = warm_deployment
    client = deployment.client("researcher@anl.gov")
    old_token = client.access_token
    # Jump past the 48 h token lifetime; the client refreshes automatically.
    deployment.run_for(48 * 3600.0 + 10.0)
    new_token = client.access_token
    assert new_token != old_token
    response = client.chat_completion(MODEL_7B, [{"role": "user", "content": "still works"}],
                                      max_tokens=8)
    assert response["usage"]["completion_tokens"] == 8


def test_sync_legacy_mode_limits_concurrency():
    config = GatewayConfig(server_mode=ServerMode.SYNC_LEGACY, sync_workers=9)
    deployment = small_deployment(gateway_config=config, generate_text=False)
    deployment.warm_up(MODEL_7B)
    gateway = deployment.gateway
    client = deployment.client("researcher@anl.gov")
    events = [
        client.submit(
            InferenceRequest(f"sync-{i}", MODEL_7B, prompt_tokens=100, max_output_tokens=80)
        )
        for i in range(30)
    ]
    deployment.run_for(5.0)
    # With 9 blocking workers, at most 9 requests are in flight at once.
    assert gateway.workers.count <= 9
    assert gateway.workers.queued > 0
    deployment.env.run(until=deployment.env.all_of(events))
    assert all(ev.value.success for ev in events)


def test_polling_retrieval_mode_adds_latency():
    fut_deploy = small_deployment(
        gateway_config=GatewayConfig(retrieval_mode=RetrievalMode.FUTURES), generate_text=False
    )
    fut_deploy.warm_up(MODEL_7B)
    poll_deploy = small_deployment(
        gateway_config=GatewayConfig(retrieval_mode=RetrievalMode.POLLING), generate_text=False
    )
    poll_deploy.warm_up(MODEL_7B)

    def one_latency(deployment):
        client = deployment.client("researcher@anl.gov")
        req = InferenceRequest("lat-0", MODEL_7B, prompt_tokens=100, max_output_tokens=50)
        start = deployment.now
        ev = client.submit(req)
        deployment.env.run(until=ev)
        return deployment.now - start

    # Warm the auth cache first so the comparison isolates retrieval mode.
    for d in (fut_deploy, poll_deploy):
        c = d.client("researcher@anl.gov")
        c.chat_completion(MODEL_7B, [{"role": "user", "content": "warm"}], max_tokens=8)

    lat_futures = one_latency(fut_deploy)
    lat_polling = one_latency(poll_deploy)
    assert lat_polling > lat_futures


# -- API v2: middleware pipeline ----------------------------------------------------------

DEFAULT_STAGES = [
    "validation", "auth", "rate-limit", "accounting", "routing", "dispatch",
]


def test_default_pipeline_stage_order(warm_deployment):
    assert warm_deployment.gateway.pipeline.stage_names() == DEFAULT_STAGES


def test_successful_request_traverses_every_stage(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "trace me"}], max_tokens=8)
    assert warm_deployment.gateway.last_context.trace == DEFAULT_STAGES


def test_custom_middleware_via_gateway_config():
    """A deployment inserts its own stage without touching InferenceGatewayAPI."""

    class TaggingMiddleware(Middleware):
        name = "tagging"

        def before(self, ctx):
            ctx.request.metadata["tagged_by"] = "tagging-middleware"

    factories = default_middleware_factories()
    factories.insert(0, TaggingMiddleware)
    deployment = small_deployment(
        gateway_config=GatewayConfig(middleware_factories=factories),
        generate_text=False,
    )
    deployment.warm_up(MODEL_7B)
    client = deployment.client("researcher@anl.gov")
    ev = client.submit(
        InferenceRequest("tagged-0", MODEL_7B, prompt_tokens=20, max_output_tokens=8)
    )
    result = deployment.env.run(until=ev)
    # The tag travelled through the whole stack and back on the result.
    assert result.metadata["tagged_by"] == "tagging-middleware"
    assert deployment.gateway.last_context.trace == ["tagging"] + DEFAULT_STAGES


def test_rate_limit_trip_skips_downstream_stages():
    deployment = small_deployment(
        gateway_config=GatewayConfig(rate_limit_requests=1, rate_limit_window_s=60.0)
    )
    deployment.warm_up(MODEL_7B)
    client = deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "1"}], max_tokens=8)
    with pytest.raises(RateLimitError):
        client.chat_completion(MODEL_7B, [{"role": "user", "content": "2"}], max_tokens=8)
    trace = deployment.gateway.last_context.trace
    assert trace == ["validation", "auth", "rate-limit"]
    # The envelope form carries the right type/status.
    lenient = deployment.client("researcher@anl.gov", raise_on_error=False)
    envelope = lenient.chat_completion(MODEL_7B, [{"role": "user", "content": "3"}],
                                       max_tokens=8)
    assert envelope["error"]["type"] == "rate_limit_error"
    assert envelope["error"]["status"] == 429


# -- API v2: typed error envelopes ---------------------------------------------------------

def test_unknown_model_error_envelope(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov", raise_on_error=False)
    envelope = client.chat_completion("no-such-model", [{"role": "user", "content": "hi"}])
    assert envelope["error"] == {
        "type": "invalid_request_error",
        "code": "invalid_request",
        "message": "Unknown model: no-such-model",
        "status": 422,
    }


def test_expired_token_error_envelope(warm_deployment):
    deployment = warm_deployment
    bundle = deployment.auth.issue_token("researcher@anl.gov")
    deployment.run_for(48 * 3600.0 + 10.0)  # past the 48 h token lifetime
    body = {"model": MODEL_7B, "messages": [{"role": "user", "content": "hi"}],
            "max_tokens": 8}
    proc = deployment.env.process(
        deployment.gateway.chat_completions(bundle.access_token, body)
    )
    envelope = deployment.env.run(until=proc)
    assert envelope["error"]["type"] == "authentication_error"
    assert envelope["error"]["code"] == "invalid_token"
    assert envelope["error"]["status"] == 401
    # The failure never reached the stages past auth.
    assert deployment.gateway.last_context.trace == ["validation", "auth"]


# -- API v2: end-to-end streaming ----------------------------------------------------------

def test_streaming_chat_completion_yields_openai_chunks(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    chunks = list(client.chat_completion(
        MODEL_7B, [{"role": "user", "content": "stream please"}],
        max_tokens=12, stream=True,
    ))
    assert len(chunks) >= 2
    assert all(c["object"] == "chat.completion.chunk" for c in chunks)
    # First chunk announces the assistant role; last carries the finish reason.
    assert chunks[0]["choices"][0]["delta"]["role"] == "assistant"
    assert chunks[-1]["choices"][0]["finish_reason"] == "stop"
    assert chunks[-1]["usage"]["completion_tokens"] == 12
    # One content chunk per generated token.
    content_chunks = [c for c in chunks[1:-1] if c["choices"][0]["delta"].get("content")]
    assert len(content_chunks) == 12


def test_streaming_records_gateway_observed_token_times(warm_deployment):
    deployment = warm_deployment
    client = deployment.client("researcher@anl.gov")
    request = InferenceRequest("stream-typed-0", MODEL_7B, prompt_tokens=50,
                               max_output_tokens=10, stream=True)
    send_time = deployment.now
    ev = client.submit(request)
    result = deployment.env.run(until=ev)
    times = result.metadata["gateway_token_times"]
    assert len(times) == 10
    assert list(times) == sorted(times)
    # Gateway-observed TTFT is after send and before the full response lands.
    assert send_time < result.metadata["gateway_first_token_time"] < deployment.now


def test_streaming_not_supported_for_embeddings(warm_deployment):
    from repro.serving import RequestKind

    deployment = warm_deployment
    request = InferenceRequest("stream-embed-0", EMBED, prompt_tokens=10,
                               max_output_tokens=1, kind=RequestKind.EMBEDDING,
                               stream=True)
    client = deployment.client("researcher@anl.gov")
    ev = client.submit(request)
    with pytest.raises(ValidationError):
        deployment.env.run(until=ev)


def test_streaming_error_is_raised_from_iterator(warm_deployment):
    client = warm_deployment.client("researcher@anl.gov")
    with pytest.raises(ValidationError):
        list(client.chat_completion("no-such-model", [{"role": "user", "content": "x"}],
                                    stream=True))


def _rate_limited_stream_deployment():
    deployment = small_deployment(
        gateway_config=GatewayConfig(rate_limit_requests=1, rate_limit_window_s=60.0))
    deployment.warm_up(MODEL_7B)
    return deployment


def test_stream_failing_inside_the_pipeline_ends_in_one_error_event():
    """A streamed request rejected by a stage (here the rate limiter) after
    ``submit_stream`` returned: its channel carries exactly one ``error``
    event with the typed envelope, then closes, and ``done`` fails typed."""
    deployment = _rate_limited_stream_deployment()
    gateway, env = deployment.gateway, deployment.env
    token = deployment.client("researcher@anl.gov").access_token
    streams = [
        gateway.submit_stream(token, gateway.build_request(
            {"model": MODEL_7B, "messages": [{"role": "user", "content": str(i)}],
             "max_tokens": 4, "stream": True}, RequestKind.CHAT_COMPLETION))
        for i in range(2)
    ]
    rejected = streams[1]
    error = env.run(until=rejected.channel.get())
    assert error.kind == "error"
    assert error.error["type"] == "rate_limit_error"
    assert error.error["status"] == 429
    assert isinstance(error.exception, RateLimitError)
    assert env.run(until=rejected.channel.get()) is None
    assert rejected.done.triggered and not rejected.done.ok
    assert isinstance(rejected.done.value, RateLimitError)
    assert rejected.result is None
    # The admitted stream is untouched by its neighbour's failure.
    assert env.run(until=streams[0].done).success


def test_stream_failing_inside_the_pipeline_through_the_client():
    deployment = _rate_limited_stream_deployment()
    messages = [{"role": "user", "content": "x"}]
    strict = deployment.client("researcher@anl.gov")
    list(strict.chat_completion(MODEL_7B, messages, max_tokens=4, stream=True))
    with pytest.raises(RateLimitError):
        list(strict.chat_completion(MODEL_7B, messages, max_tokens=4, stream=True))
    lenient = deployment.client("researcher@anl.gov", raise_on_error=False)
    chunks = list(lenient.chat_completion(MODEL_7B, messages, max_tokens=4, stream=True))
    assert len(chunks) == 1
    assert chunks[0]["error"]["type"] == "rate_limit_error"
    assert chunks[0]["error"]["status"] == 429
    assert deployment.gateway.metrics.rate_limited == 2


# -- routing-cache staleness ----------------------------------------------------------------

def test_stale_routing_cache_falls_back_to_fresh_selection():
    """A cached endpoint that left the federation is evicted, not an error."""
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="c1", kind="small", num_nodes=2, scheduler="local",
                models=[ModelHostingConfig(MODEL_7B, max_parallel_tasks=32)],
            ),
            ClusterDeploymentSpec(
                name="c2", kind="small", num_nodes=2, scheduler="local",
                models=[ModelHostingConfig(MODEL_7B, max_parallel_tasks=32)],
            ),
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
    )
    deployment = FIRSTDeployment(config)
    deployment.warm_up(MODEL_7B)  # warms an instance on the first endpoint
    client = deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "a"}], max_tokens=8)
    cache_key = (MODEL_7B, "researcher@anl.gov")
    cached_id = deployment.gateway._routing_cache[cache_key].endpoint_id
    assert cached_id == "ep-c1"

    deployment.topology.deregister("ep-c1")
    # Well inside the routing-cache TTL: the stale entry must be evicted and
    # the request re-routed to the surviving endpoint instead of crashing.
    response = client.chat_completion(MODEL_7B, [{"role": "user", "content": "b"}],
                                      max_tokens=8)
    assert response["usage"]["completion_tokens"] == 8
    assert deployment.gateway._routing_cache[cache_key].endpoint_id == "ep-c2"
