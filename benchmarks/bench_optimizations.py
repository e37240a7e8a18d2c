"""§5.3.1 — The three gateway optimisations (ablation).

* **Optimization 1**: replacing 2 s status polling with concurrent futures
  removes the polling quantisation from every request's latency.
* **Optimization 2**: caching token introspection / endpoint connections
  "eliminated 2 s from the latency of each request" and avoids hammering the
  auth service.
* **Optimization 3**: moving from synchronous Django REST (nine concurrent
  requests) to the asynchronous gateway raised response throughput by roughly
  20x on a single compute node, and an Artillery-style load test (100 req/s)
  left thousands of tasks queued at the Globus relay rather than at the API.
"""

import pytest

from _harness import MODEL_8B

from repro.core import FIRSTDeployment, sophia_benchmark_config
from repro.gateway import GatewayConfig, RetrievalMode, ServerMode
from repro.serving import InferenceRequest
from repro.workload import BenchmarkClient, ShareGPTWorkload, UniformArrival


def build(gateway_config, max_parallel_tasks=200):
    deployment = FIRSTDeployment(sophia_benchmark_config(
        model=MODEL_8B, max_instances=1, num_nodes=2,
        max_parallel_tasks=max_parallel_tasks, gateway_config=gateway_config,
    ))
    deployment.warm_up(MODEL_8B)
    client = deployment.client("benchmark@anl.gov")
    # Warm the token cache so per-request measurements are steady-state.
    warm = client.submit(InferenceRequest("warm", MODEL_8B, prompt_tokens=50,
                                          max_output_tokens=10))
    deployment.env.run(until=warm)
    return deployment, client


def measure_single_latency(client, deployment, request_id):
    request = InferenceRequest(request_id, MODEL_8B, prompt_tokens=220, max_output_tokens=150)
    start = deployment.now
    ev = client.submit(request)
    deployment.env.run(until=ev)
    return deployment.now - start


def run_retrieval_and_cache_ablation():
    latencies = {}
    for label, config in [
        ("futures + cached auth", GatewayConfig()),
        ("polling (Opt.1 off)", GatewayConfig(retrieval_mode=RetrievalMode.POLLING)),
        ("no auth caching (Opt.2 off)", GatewayConfig(cache_token_introspection=False)),
    ]:
        deployment, client = build(config)
        latencies[label] = measure_single_latency(client, deployment, f"probe-{label}")
    return latencies


def run_sync_vs_async():
    """Artillery-style constant-rate load: 100 req/s for 120 s."""
    results = {}
    for label, config in [
        ("async gateway", GatewayConfig(server_mode=ServerMode.ASYNC)),
        ("sync legacy gateway", GatewayConfig(server_mode=ServerMode.SYNC_LEGACY)),
    ]:
        deployment, client = build(config)
        requests = ShareGPTWorkload().generate(MODEL_8B, num_requests=6000)
        bench = BenchmarkClient(deployment.env, client, label=label)
        proc = deployment.env.process(
            bench.run(requests, arrival=UniformArrival(rate=100.0), summary_label=label)
        )
        # Measure completions within the fixed load window rather than waiting
        # for the long sync backlog to drain.
        deployment.run_for(120.0)
        completed = len([r for r in bench.collector.records if r.success])
        results[label] = {
            "completed_in_window": completed,
            "throughput_req_s": completed / 120.0,
            "queued_at_relay": deployment.relay.queued_tasks,
            "peak_queued_at_relay": deployment.relay.stats.peak_queued,
        }
    return results


@pytest.mark.benchmark(group="optimizations")
def test_optimization1_and_2_latency_ablation(benchmark):
    latencies = benchmark.pedantic(run_retrieval_and_cache_ablation, rounds=1, iterations=1)
    print("\n=== Optimizations 1 & 2: per-request latency ablation (warm 8B instance) ===")
    for label, latency in latencies.items():
        print(f"  {label:<32s} {latency:6.2f} s")
    benchmark.extra_info.update({k: round(v, 3) for k, v in latencies.items()})

    base = latencies["futures + cached auth"]
    polling = latencies["polling (Opt.1 off)"]
    uncached = latencies["no auth caching (Opt.2 off)"]
    # Polling quantises retrieval to the 2 s poll interval: ≥1 s extra.
    assert polling > base + 1.0
    # Uncached introspection + connection setup adds roughly 2 s (paper's claim).
    assert 1.0 <= uncached - base <= 3.5


@pytest.mark.benchmark(group="optimizations")
def test_optimization3_async_vs_sync_gateway(benchmark):
    results = benchmark.pedantic(run_sync_vs_async, rounds=1, iterations=1)
    print("\n=== Optimization 3: async vs sync gateway under 100 req/s load ===")
    for label, data in results.items():
        print(f"  {label:<24s} {data['throughput_req_s']:6.2f} req/s completed, "
              f"{data['peak_queued_at_relay']} tasks queued at the relay")
    benchmark.extra_info.update(results)

    async_result = results["async gateway"]
    sync_result = results["sync legacy gateway"]
    # The asynchronous gateway completes far more requests in the window
    # (the paper reports a ~20x response-throughput improvement).
    ratio = async_result["throughput_req_s"] / max(sync_result["throughput_req_s"], 1e-9)
    assert ratio > 5.0
    # With the async gateway the backlog accumulates at the Globus relay, not
    # at the API server (the paper saw >8000 tasks queued at Globus under a
    # 100 req/s Artillery run).
    assert async_result["peak_queued_at_relay"] > 3000
    assert async_result["peak_queued_at_relay"] > 5 * sync_result["peak_queued_at_relay"]
