"""Tests for the continuous-batching engine and the API front-end model."""

import pytest

from repro.cluster import A100_40GB, dgx_a100_spec
from repro.serving import (
    APIServer,
    APIServerConfig,
    ContinuousBatchingEngine,
    EngineConfig,
    InferenceRequest,
    PerformanceModel,
    default_catalog,
)
from repro.sim import Environment


CATALOG = default_catalog()


def make_engine(env, model="Llama-3.3-70B", tp=None, engine_config=None, perf_config=None):
    spec = CATALOG.get(model)
    perf = PerformanceModel(
        model=spec,
        num_gpus=tp or spec.default_tp,
        gpu_spec=A100_40GB,
        config=perf_config,
        node_spec=dgx_a100_spec(),
    )
    return ContinuousBatchingEngine(env, perf, engine_config or EngineConfig(generate_text=False))


def make_request(i, prompt=220, output=182, model="meta-llama/Llama-3.3-70B-Instruct"):
    return InferenceRequest(
        request_id=f"req-{i:05d}",
        model=model,
        prompt_tokens=prompt,
        max_output_tokens=output,
    )


def test_request_validation():
    with pytest.raises(ValueError):
        InferenceRequest("r", "m", prompt_tokens=-1, max_output_tokens=10)
    with pytest.raises(ValueError):
        InferenceRequest("r", "m", prompt_tokens=10, max_output_tokens=0)


def test_single_request_latency_matches_timing_model():
    """A lone ShareGPT-like request on 70B finishes in roughly 2.5-3.5 s."""
    env = Environment()
    engine = make_engine(env)
    ev = engine.submit(make_request(0))
    env.run(until=ev)
    result = ev.value
    assert result.success
    assert result.output_tokens == 182
    assert 2.3 <= result.engine_latency_s <= 3.6
    assert result.time_to_first_token_s is not None
    assert result.time_to_first_token_s < 0.5


def test_engine_records_stats():
    env = Environment()
    engine = make_engine(env)
    events = [engine.submit(make_request(i)) for i in range(5)]
    env.run(until=env.all_of(events))
    assert engine.stats.submitted == 5
    assert engine.stats.completed == 5
    assert engine.stats.output_tokens == 5 * 182
    assert engine.stats.peak_batch_size == 5
    assert engine.is_idle


def test_continuous_batching_improves_aggregate_throughput():
    """Running 64 requests concurrently is far faster than running them serially."""
    env = Environment()
    engine = make_engine(env)
    n = 64
    events = [engine.submit(make_request(i)) for i in range(n)]
    done = env.all_of(events)
    env.run(until=done)
    batch_duration = env.now
    total_tokens = n * 182

    # Serial execution estimate: n * single-request latency.
    env2 = Environment()
    engine2 = make_engine(env2)
    ev = engine2.submit(make_request(0))
    env2.run(until=ev)
    serial_estimate = n * ev.value.engine_latency_s

    assert batch_duration < serial_estimate / 3
    aggregate = total_tokens / batch_duration
    single_seq_rate = 182 / ev.value.engine_latency_s
    assert aggregate > 5 * single_seq_rate


def test_batch_of_requests_completion_order_and_tokens():
    env = Environment()
    engine = make_engine(env)
    events = [engine.submit(make_request(i, output=50 + 10 * i)) for i in range(5)]
    env.run(until=env.all_of(events))
    results = [ev.value for ev in events]
    # Shorter generations finish earlier.
    times = [r.completion_time for r in results]
    assert times == sorted(times)
    assert [r.output_tokens for r in results] == [50, 60, 70, 80, 90]


def test_max_num_seqs_bounds_concurrency():
    env = Environment()
    engine = make_engine(env, engine_config=EngineConfig(max_num_seqs=4, generate_text=False))
    for i in range(10):
        engine.submit(make_request(i, output=40))
    env.run(until=5.0)
    assert engine.stats.peak_batch_size <= 4


def test_kv_exhaustion_triggers_preemption_or_queueing():
    """With a tiny KV cache, the engine must queue/preempt rather than crash."""
    env = Environment()
    spec = CATALOG.get("Llama-3.3-70B")

    class TinyKVPerf(PerformanceModel):
        def kv_capacity_tokens(self, vram_utilization=0.9):
            return 2048  # only ~5 ShareGPT requests fit

    tiny = TinyKVPerf(spec, 8, A100_40GB, node_spec=dgx_a100_spec())
    engine = ContinuousBatchingEngine(env, tiny, EngineConfig(generate_text=False))
    events = [engine.submit(make_request(i, prompt=300, output=80)) for i in range(12)]
    env.run(until=env.all_of(events))
    results = [ev.value for ev in events]
    assert all(r.success for r in results)
    assert engine.stats.completed == 12
    assert engine.stats.peak_batch_size < 12  # could not all run at once


def test_engine_stop_fails_outstanding_requests():
    env = Environment()
    engine = make_engine(env)
    ev = engine.submit(make_request(0))

    def stopper(env):
        yield env.timeout(0.5)
        engine.stop()

    env.process(stopper(env))
    env.run(until=ev)
    assert ev.value.success is False
    with pytest.raises(RuntimeError):
        engine.submit(make_request(1))


def test_engine_generates_text_when_enabled():
    env = Environment()
    spec = CATALOG.get("Llama-3.1-8B")
    perf = PerformanceModel(spec, 4, A100_40GB, node_spec=dgx_a100_spec())
    engine = ContinuousBatchingEngine(env, perf, EngineConfig(generate_text=True))
    req = make_request(0, output=40, model=spec.name)
    req.prompt_text = "Describe the genomic analysis pipeline"
    ev = engine.submit(req)
    env.run(until=ev)
    assert ev.value.text.startswith(f"[{spec.name}]")
    assert len(ev.value.text.split()) >= 20


def test_engine_idle_then_new_work_wakes_up():
    env = Environment()
    engine = make_engine(env)
    ev1 = engine.submit(make_request(0, output=20))
    env.run(until=ev1)
    first_done = env.now

    ev2_holder = {}

    def later(env):
        yield env.timeout(100.0)
        ev2_holder["ev"] = engine.submit(make_request(1, output=20))
        yield ev2_holder["ev"]

    p = env.process(later(env))
    env.run(until=p)
    result2 = ev2_holder["ev"].value
    assert result2.success
    assert result2.engine_enqueue_time >= first_done + 100.0


# ---------------------------------------------------------------------------
# API front-end model
# ---------------------------------------------------------------------------

def test_api_server_single_request_small_overhead():
    env = Environment()
    engine = make_engine(env)
    server = APIServer(env, engine)
    ev = server.submit(make_request(0))
    env.run(until=ev)
    result = ev.value
    assert result.success
    # Front-end adds only ~10 ms when the server is not hammered.
    assert 2.3 <= (result.completion_time - result.arrival_time) <= 3.7
    assert server.stats.handled == 1


def test_api_server_handling_cost_grows_with_open_connections():
    env = Environment()
    engine = make_engine(env)
    server = APIServer(env, engine, APIServerConfig(base_handling_s=0.012,
                                                    degradation_connections=70.0))
    base_cost = server.handling_cost_s()
    server._open_connections = 1000
    degraded = server.handling_cost_s()
    assert degraded > 10 * base_cost


def test_api_server_saturates_under_many_concurrent_connections():
    """Hammering the single-threaded front-end with hundreds of concurrent
    connections limits completion rate well below the engine's capability."""
    env = Environment()
    engine = make_engine(env)
    server = APIServer(env, engine)
    n = 800
    events = [server.submit(make_request(i, output=182)) for i in range(n)]
    env.run(until=env.all_of(events))
    duration = env.now
    throughput = n / duration
    assert server.stats.peak_open_connections == n
    # The front-end cap lands near the paper's ~5-7 req/s, well below the
    # ~9 req/s the engine sustains when admission is bounded (Fig. 3).
    assert throughput < 9.0
