"""Additional edge-case coverage for gateway components and the FaaS client."""

import pytest

from repro.common import NotFoundError, ValidationError
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelDeploymentSpec,
)
from repro.gateway import GatewayConfig, GatewayMetrics, ResponseCache, ServerMode
from repro.serving import InferenceRequest
from repro.sim import Environment

MODEL_7B = "Qwen/Qwen2.5-7B-Instruct"
EMBED = "nvidia/NV-Embed-v2"


@pytest.fixture(scope="module")
def deployment():
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="devcluster", kind="small", num_nodes=2, scheduler="local",
                models=[
                    ModelDeploymentSpec(MODEL_7B, max_parallel_tasks=32),
                    ModelDeploymentSpec(EMBED, backend="infinity"),
                ],
            )
        ],
        users=["researcher@anl.gov"],
        generate_text=True,
    )
    d = FIRSTDeployment(config)
    d.warm_up(MODEL_7B)
    return d


# -- response cache unit behaviour -------------------------------------------------

def test_response_cache_ttl_expiry_and_eviction():
    cache = ResponseCache(ttl_s=10.0, max_entries=2)
    k1 = ResponseCache.key_for("m", "prompt one", 10)
    k2 = ResponseCache.key_for("m", "prompt two", 10)
    k3 = ResponseCache.key_for("m", "prompt three", 10)
    cache.put(k1, "r1", now=0.0)
    cache.put(k2, "r2", now=1.0)
    assert cache.get(k1, now=5.0) == "r1"
    # TTL expiry.
    assert cache.get(k1, now=20.0) is None
    # Eviction keeps the cache bounded.
    cache.put(k1, "r1", now=21.0)
    cache.put(k3, "r3", now=22.0)
    assert len(cache) <= 2
    # Different parameters produce different keys.
    assert ResponseCache.key_for("m", "p", 10) != ResponseCache.key_for("m", "p", 20)
    assert ResponseCache.key_for("m", "p", 10, {"temperature": 0.1}) != ResponseCache.key_for(
        "m", "p", 10, {"temperature": 0.9}
    )


# -- gateway metrics unit behaviour ---------------------------------------------------

def test_gateway_metrics_counters_and_dashboard():
    env = Environment()
    metrics = GatewayMetrics(env)
    metrics.request_started("m1", 100)
    metrics.request_started("m2", 50)
    assert metrics.in_flight == 2
    metrics.request_completed("m1", 200, 3.0)
    metrics.request_failed("m2")
    assert metrics.in_flight == 0
    assert metrics.peak_in_flight == 2
    assert metrics.total_requests == 2
    assert metrics.total_completed == 1
    assert metrics.total_output_tokens == 200
    dashboard = metrics.dashboard(extra={"custom": 1})
    assert dashboard["custom"] == 1
    per_model = {m["model"]: m for m in dashboard["models"]}
    assert per_model["m1"]["mean_latency_s"] == pytest.approx(3.0)
    assert per_model["m2"]["failed"] == 1


# -- request body validation ------------------------------------------------------------

def test_completions_requires_prompt(deployment):
    client = deployment.client("researcher@anl.gov")
    with pytest.raises(ValidationError):
        client.completion(MODEL_7B, prompt="", max_tokens=10)


def test_embeddings_requires_input(deployment):
    """Driving the endpoint directly returns a typed envelope, not an exception."""
    client = deployment.client("researcher@anl.gov")
    gateway = deployment.gateway
    proc = deployment.env.process(
        gateway.embeddings(client.access_token, {"model": EMBED, "input": ""})
    )
    response = deployment.env.run(until=proc)
    assert response["error"]["type"] == "invalid_request_error"
    assert response["error"]["status"] == 422
    # The client SDK re-raises the envelope as the typed exception.
    with pytest.raises(ValidationError):
        client.embedding(EMBED, "")


def test_prompt_tokens_hint_is_respected(deployment):
    client = deployment.client("researcher@anl.gov")
    gateway = deployment.gateway
    body = {
        "model": MODEL_7B,
        "messages": [{"role": "user", "content": "short"}],
        "max_tokens": 16,
        "prompt_tokens_hint": 999,
        "request_id": "hinted-req",
    }
    proc = deployment.env.process(gateway.chat_completions(client.access_token, body))
    response = deployment.env.run(until=proc)
    assert response["usage"]["prompt_tokens"] == 999


def test_sampling_params_are_accepted_and_logged(deployment):
    client = deployment.client("researcher@anl.gov")
    response = client.chat_completion(
        MODEL_7B,
        [{"role": "user", "content": "sampled"}],
        max_tokens=8,
        temperature=0.2,
        top_p=0.9,
    )
    assert response["usage"]["completion_tokens"] == 8


def test_alias_model_name_resolves_to_catalog_name(deployment):
    client = deployment.client("researcher@anl.gov")
    # The catalog accepts aliases; the canonical name comes back in the response.
    response = client.chat_completion(
        "Qwen/Qwen2.5-7B-Instruct", [{"role": "user", "content": "x"}], max_tokens=8
    )
    assert response["model"] == MODEL_7B


def test_list_models_and_jobs_are_consistent(deployment):
    client = deployment.client("researcher@anl.gov")
    hosted = {m["id"] for m in client.models()["data"]}
    job_models = {j["model"] for j in client.jobs()}
    assert hosted == job_models


def test_dashboard_includes_relay_queue_and_auth_cache(deployment):
    client = deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "dash"}], max_tokens=8)
    dash = client.dashboard()
    assert "queued_at_relay" in dash
    assert dash["auth_cache"]["misses"] >= 1


def test_gateway_config_worker_slot_sizing():
    async_cfg = GatewayConfig(cpu_count=16, threads_per_worker=4)
    assert async_cfg.async_worker_slots == (16 * 2 + 1) * 4
    assert async_cfg.worker_slots() == async_cfg.async_worker_slots
    sync_cfg = GatewayConfig(server_mode=ServerMode.SYNC_LEGACY, sync_workers=9)
    assert sync_cfg.worker_slots() == 9


def test_batch_results_are_retained_in_database(deployment):
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    client = deployment.client("researcher@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=8, id_prefix="dbres")
    batch = client.create_batch(requests_to_jsonl(requests))
    final = client.wait_for_batch(batch["id"], poll_every_s=30.0)
    record = deployment.database.get_batch(batch["id"])
    assert final["request_counts"]["completed"] == 8
    assert len(record.results) == 8
    assert all(r.success for r in record.results)


def test_unknown_endpoint_in_batch_request_raises(deployment):
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    client = deployment.client("researcher@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=2, id_prefix="noep")
    with pytest.raises(NotFoundError):
        client.create_batch(requests_to_jsonl(requests), endpoint_id="ep-missing")


def test_failed_batch_records_counts_and_dashboard_failure():
    """A batch whose compute task fails records full failure accounting."""
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="c1", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(MODEL_7B, max_parallel_tasks=32)],
            ),
            ClusterDeploymentSpec(
                name="c2", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(EMBED, backend="infinity")],
            ),
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
    )
    d = FIRSTDeployment(config)
    client = d.client("researcher@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=5, id_prefix="failbatch")
    # Force the batch onto the endpoint that does not host the model: the
    # compute task fails at the endpoint and the future is rejected.
    batch = client.create_batch(requests_to_jsonl(requests), endpoint_id="ep-c2")
    final = client.wait_for_batch(batch["id"], poll_every_s=10.0)
    assert final["status"] == "failed"
    assert final["error"]
    record = d.database.get_batch(batch["id"])
    assert record.completed_requests == 0
    assert record.failed_requests == 5
    assert record.output_tokens == 0
    assert record.completed_at is not None
    assert d.gateway.metrics.batches_failed == 1
    assert d.gateway.dashboard()["batches_failed"] == 1


def test_batch_partial_failure_reports_per_request_reasons():
    """A batch that completes with some failed requests surfaces which
    requests failed and why — typed envelopes on ``GET /v1/batches/{id}``,
    bucketed reasons on the dashboard."""
    from repro.serving import InferenceResult, OfflineRunResult
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="c1", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(MODEL_7B, max_parallel_tasks=32)],
            ),
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
    )
    d = FIRSTDeployment(config)
    client = d.client("researcher@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=3, id_prefix="pf")

    def result(req, success, error=None):
        return InferenceResult(
            request_id=req.request_id, model=req.model,
            prompt_tokens=req.prompt_tokens,
            output_tokens=req.max_output_tokens if success else 0,
            success=success, error=error,
        )

    run_result = OfflineRunResult(
        results=[result(requests[0], True),
                 result(requests[1], False, "KV cache exhausted"),
                 result(requests[2], False, "inference server crashed")],
        load_time_s=10.0, processing_time_s=5.0,
    )

    # Stub the compute layer: this test exercises the gateway's partial-
    # failure accounting, not the batch execution path itself.
    d.gateway.compute_client.submit = lambda *a, **k: object()

    def fake_wait(future):
        yield d.env.timeout(1.0)
        return run_result

    d.gateway.compute_client.wait_future = fake_wait

    batch = client.create_batch(requests_to_jsonl(requests))
    final = client.wait_for_batch(batch["id"], poll_every_s=5.0)

    assert final["status"] == "completed"
    assert final["request_counts"] == {"total": 3, "completed": 1, "failed": 2}
    errors = {e["request_id"]: e["error"] for e in final["errors"]["data"]}
    assert set(errors) == {requests[1].request_id, requests[2].request_id}
    assert errors[requests[1].request_id]["type"] == "overloaded_error"
    assert "KV cache exhausted" in errors[requests[1].request_id]["message"]
    assert errors[requests[2].request_id]["type"] == "internal_error"

    dashboard = d.gateway.dashboard()
    assert dashboard["batches_completed"] == 1
    assert dashboard["batch_requests_completed"] == 1
    assert dashboard["batch_requests_failed"] == 2
    assert dashboard["batch_failure_reasons"] == {
        "KV cache exhausted": 1,
        "inference server crashed": 1,
    }


def test_completed_batch_counts_in_dashboard(deployment):
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    client = deployment.client("researcher@anl.gov")
    before = deployment.gateway.metrics.batches_completed
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=4, id_prefix="okbatch")
    batch = client.create_batch(requests_to_jsonl(requests))
    client.wait_for_batch(batch["id"], poll_every_s=30.0)
    assert deployment.gateway.metrics.batches_completed == before + 1
    assert deployment.gateway.dashboard()["batches_completed"] == before + 1


# -- stream channel unit behaviour ---------------------------------------------------------

def test_stream_channel_fifo_and_close():
    from repro.serving import StreamChannel

    env = Environment()
    channel = StreamChannel(env)
    channel.publish("a")
    channel.publish("b")
    channel.close()
    got = []

    def consume():
        while True:
            item = yield channel.get()
            if item is None:
                return got
            got.append(item)

    proc = env.process(consume())
    assert env.run(until=proc) == ["a", "b"]
    # Closed channels keep resolving to None and drop further publishes.
    channel.publish("c")
    assert env.run(until=channel.get()) is None


def test_stream_channel_delivery_latency_preserves_order():
    from repro.serving import StreamChannel

    env = Environment()
    channel = StreamChannel(env, delivery_latency_s=0.5)
    arrivals = []

    def consume():
        while True:
            item = yield channel.get()
            if item is None:
                return
            arrivals.append((item, env.now))

    env.process(consume())
    channel.publish(1)
    channel.publish(2)
    channel.close()
    env.run()
    assert arrivals == [(1, 0.5), (2, 0.5)]


def _record_arrivals(env, channel):
    arrivals = []

    def consume():
        while True:
            item = yield channel.get()
            arrivals.append((item, env.now))
            if item is None:
                return

    env.process(consume())
    return arrivals


def test_stream_hop_delivers_fifo_at_exactly_publish_time_plus_latency():
    from repro.serving import StreamChannel

    env = Environment()
    latency = 0.3
    channel = StreamChannel(env, delivery_latency_s=latency)
    arrivals = _record_arrivals(env, channel)
    publish_times = [0.0, 0.0, 0.1, 0.1, 0.25, 1.7]

    def produce():
        for index, at in enumerate(publish_times):
            if at > env.now:
                yield env.timeout_at(at)
            channel.publish(index)
        channel.close()

    env.process(produce())
    env.run()
    assert arrivals == [(i, at + latency) for i, at in enumerate(publish_times)] + [
        (None, publish_times[-1] + latency)]
    assert (channel.published, channel.delivered) == (6, 6)


def test_stream_hop_close_never_overtakes_a_same_instant_publish():
    from repro.serving import StreamChannel

    env = Environment()
    channel = StreamChannel(env, delivery_latency_s=0.5)
    arrivals = _record_arrivals(env, channel)

    def produce():
        yield env.timeout(2.0)
        channel.publish("last")
        channel.close()
        channel.publish("after close")  # in flight behind the close: dropped

    env.process(produce())
    env.run()
    assert arrivals == [("last", 2.5), (None, 2.5)]


def test_stream_hop_costs_one_kernel_event_and_bulk_is_one_hop():
    from repro.serving import StreamChannel

    env = Environment()
    channel = StreamChannel(env, delivery_latency_s=0.5)
    channel.publish("solo")
    assert env.queue_size == 1  # one bare timeout: no process start, no process end
    env.run()
    channel.publish_bulk(["a", "b", "c"])
    assert env.queue_size == 1
    assert channel.pending == 1  # the batch is still in flight
    env.run()
    assert channel.drain() == ["solo", "a", "b", "c"]
    assert env.now == 1.0


def test_stream_sink_sees_every_item_at_its_delivery_instant_then_the_close():
    from repro.serving import StreamChannel

    env = Environment()
    channel = StreamChannel(env, delivery_latency_s=0.5)
    seen = []
    channel.attach_sink(lambda item: seen.append((item, env.now)))
    assert channel.live
    channel.publish("a")
    channel.publish_bulk(["b", "c"])
    channel.close()
    channel.close()  # idempotent: the sink hears one close
    assert env.queue_size == 4  # the hops only — a sink needs no event per item
    env.run()
    assert seen == [("a", 0.5), ("b", 0.5), ("c", 0.5), (None, 0.5)]
    assert channel.delivered == 3


#: ``gateway_token_times`` and kernel event count of the request below, recorded
#: at the commit before the stream hop went process-free (4419ea3).
_PARENT_TOKEN_TIMES = [
    42.03356436378204, 42.059158641280916, 42.08475291877979, 42.11034719627867,
    42.13594147377754, 42.16153575127642, 42.18713002877529, 42.21272430627417,
    42.238318583773044, 42.26391286127192,
]
_PARENT_KERNEL_EVENTS = 98


def _warm_stream_deployment():
    """A fresh warmed-up deployment (token cache filled) and a client on it."""
    fresh = FIRSTDeployment(DeploymentConfig(
        clusters=[ClusterDeploymentSpec(
            name="devcluster", kind="small", num_nodes=2, scheduler="local",
            models=[ModelDeploymentSpec(MODEL_7B, max_parallel_tasks=32)])],
        users=["researcher@anl.gov"],
    ))
    assert fresh.gateway.config.stream_chunk_latency_s > 0
    fresh.warm_up(MODEL_7B)
    client = fresh.client("researcher@anl.gov")
    fresh.env.run(until=client.submit(
        InferenceRequest("warm-0", MODEL_7B, prompt_tokens=20, max_output_tokens=2)))
    return fresh, client


def test_streamed_request_keeps_parent_token_times_with_fewer_kernel_events():
    class EventCounter:
        events = 0
        windows = 0

        def on_event(self, now, event, depth):
            self.events += 1

        def on_window(self, iterations, width_s):
            self.windows += 1

    fresh, client = _warm_stream_deployment()
    counter = EventCounter()
    fresh.env.attach_profiler(counter)
    result = fresh.env.run(until=client.submit(InferenceRequest(
        "stream-probe-0", MODEL_7B, prompt_tokens=50, max_output_tokens=10, stream=True)))
    fresh.env.detach_profiler()
    assert result.metadata["gateway_token_times"] == _PARENT_TOKEN_TIMES
    assert fresh.env.now == 44.22522498248404
    # Nobody reads this stream live, so the engine macro-steps it and the
    # tokens cross the hop as one batch: 35 events, exactly (98 with a process
    # per hop, 60 with a bare timeout per token).
    assert counter.windows == 1
    assert counter.events == 35 < _PARENT_KERNEL_EVENTS


def test_live_and_batched_streams_observe_the_same_timeline():
    """The same request read token by token (``submit_stream``) and unread
    (``submit_request(stream=True)``) on identical fresh deployments: one
    gateway timeline, one result, one completion instant."""
    def probe():
        return InferenceRequest("stream-probe-0", MODEL_7B, prompt_tokens=50,
                                max_output_tokens=10)

    live, live_client = _warm_stream_deployment()
    stream = live.gateway.submit_stream(live_client.access_token, probe())
    seen = []

    def read():
        while True:
            item = yield stream.channel.get()
            if item is None:
                return
            seen.append((item.kind, item.index, live.env.now))

    live.env.process(read())
    live_result = live.env.run(until=stream.done)

    batched, batched_client = _warm_stream_deployment()
    request = probe()
    request.stream = True
    batched_result = batched.env.run(until=batched_client.submit(request))

    times = batched_result.metadata["gateway_token_times"]
    assert times == live_result.metadata["gateway_token_times"] == _PARENT_TOKEN_TIMES
    assert (batched_result.metadata["gateway_first_token_time"]
            == live_result.metadata["gateway_first_token_time"] == times[0])
    # The live reader saw each token at the instant the batched run stamps it.
    assert seen[:-1] == [("token", i, t) for i, t in enumerate(times)]
    assert seen[-1][:2] == ("done", 10)
    for field in ("output_tokens", "success", "prefill_start_time",
                  "first_token_time", "completion_time", "text"):
        assert getattr(batched_result, field) == getattr(live_result, field), field
    assert batched.env.now == live.env.now == 44.22522498248404


def test_routing_cache_reuses_decision(deployment):
    client = deployment.client("researcher@anl.gov")
    before = len(deployment.gateway.router.decisions)
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "r1"}], max_tokens=8)
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "r2"}], max_tokens=8)
    after = len(deployment.gateway.router.decisions)
    # Within the routing-cache TTL the second request does not re-query.
    assert after - before <= 1


# -- batch retry (POST /v1/batches/{id}/retry) ------------------------------------------

def _partial_failure_deployment():
    """A deployment whose compute layer is stubbed to return scripted batch
    results: first a partial failure, then a clean completion (the retry)."""
    from repro.serving import InferenceResult, OfflineRunResult
    from repro.workload import ShareGPTWorkload

    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="c1", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(MODEL_7B, max_parallel_tasks=32)],
            ),
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
    )
    d = FIRSTDeployment(config)
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=3, id_prefix="rt")

    def result(req, success, error=None):
        return InferenceResult(
            request_id=req.request_id, model=req.model,
            prompt_tokens=req.prompt_tokens,
            output_tokens=req.max_output_tokens if success else 0,
            success=success, error=error,
        )

    first = OfflineRunResult(
        results=[result(requests[0], True),
                 result(requests[1], False, "KV cache exhausted"),
                 result(requests[2], False, "inference server crashed")],
        load_time_s=10.0, processing_time_s=5.0,
    )

    submitted = []

    def fake_submit(function_id, endpoint_id, payload, **kwargs):
        submitted.append(payload)
        return object()

    def fake_wait(future):
        yield d.env.timeout(1.0)
        batch_requests = submitted[-1]["requests"]
        if len(batch_requests) == 3:
            return first
        return OfflineRunResult(
            results=[result(r, True) for r in batch_requests],
            load_time_s=10.0, processing_time_s=2.0,
        )

    d.gateway.compute_client.submit = fake_submit
    d.gateway.compute_client.wait_future = fake_wait
    return d, requests, submitted


def test_batch_retry_resubmits_only_failed_requests():
    from repro.workload import requests_to_jsonl

    d, requests, submitted = _partial_failure_deployment()
    client = d.client("researcher@anl.gov")
    batch = client.create_batch(requests_to_jsonl(requests))
    final = client.wait_for_batch(batch["id"], poll_every_s=5.0)
    assert final["request_counts"]["failed"] == 2

    retry = client.retry_batch(batch["id"])
    assert retry["retried_from"] == batch["id"]
    assert retry["request_counts"]["total"] == 2
    # Only the failed request ids were resubmitted, nothing else.
    resubmitted_ids = {r.request_id for r in submitted[-1]["requests"]}
    assert resubmitted_ids == {requests[1].request_id, requests[2].request_id}

    # Provenance is recorded both ways.
    original = client.get_batch(batch["id"])
    assert retry["id"] in original["retry_batch_ids"]

    retried_final = client.wait_for_batch(retry["id"], poll_every_s=5.0)
    assert retried_final["status"] == "completed"
    assert retried_final["request_counts"] == {"total": 2, "completed": 2, "failed": 0}
    assert retried_final["errors"] is None


def test_batch_retry_unknown_batch_is_typed_not_found():
    d, _requests, _submitted = _partial_failure_deployment()
    client = d.client("researcher@anl.gov")
    with pytest.raises(NotFoundError):
        client.retry_batch("batch-does-not-exist")
    envelope_client = d.client("researcher@anl.gov", raise_on_error=False)
    response = envelope_client.retry_batch("batch-does-not-exist")
    assert response["error"]["type"] == "not_found_error"


def test_batch_retry_rejects_non_failed_and_running_batches():
    from repro.workload import requests_to_jsonl

    d, requests, _submitted = _partial_failure_deployment()
    client = d.client("researcher@anl.gov")
    batch = client.create_batch(requests_to_jsonl(requests))
    # Still in progress: not retryable yet.
    with pytest.raises(ValidationError):
        client.retry_batch(batch["id"])
    client.wait_for_batch(batch["id"], poll_every_s=5.0)

    # A clean retry completes with zero failures; retrying *it* is rejected.
    retry = client.retry_batch(batch["id"])
    client.wait_for_batch(retry["id"], poll_every_s=5.0)
    envelope_client = d.client("researcher@anl.gov", raise_on_error=False)
    response = envelope_client.retry_batch(retry["id"])
    assert response["error"]["type"] == "invalid_request_error"
    assert "no failed requests" in response["error"]["message"]


def test_fully_failed_batch_retries_every_request():
    """A batch whose whole compute task failed has no per-request reasons;
    retry resubmits all of them."""
    from repro.serving import InferenceResult, OfflineRunResult
    from repro.workload import requests_to_jsonl

    d, requests, submitted = _partial_failure_deployment()

    calls = {"n": 0}

    def result(req):
        return InferenceResult(
            request_id=req.request_id, model=req.model,
            prompt_tokens=req.prompt_tokens, output_tokens=req.max_output_tokens,
            success=True,
        )

    def fake_wait(future):
        yield d.env.timeout(1.0)
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("endpoint unreachable")
        return OfflineRunResult(
            results=[result(r) for r in submitted[-1]["requests"]],
            load_time_s=5.0, processing_time_s=2.0,
        )

    d.gateway.compute_client.wait_future = fake_wait
    client = d.client("researcher@anl.gov")
    batch = client.create_batch(requests_to_jsonl(requests))
    final = client.wait_for_batch(batch["id"], poll_every_s=5.0)
    assert final["status"] == "failed"

    retry = client.retry_batch(batch["id"])
    assert retry["request_counts"]["total"] == 3
    retried_final = client.wait_for_batch(retry["id"], poll_every_s=5.0)
    assert retried_final["status"] == "completed"
    assert retried_final["request_counts"]["completed"] == 3
