"""§5.3.1 / §6.3 — Batch (offline) mode.

Paper observations to reproduce:

* a batch job of 1000 requests on Llama 3.3 70B reached ~2117 tok/s overall
  and finished in ~409 s, including the cold start;
* "the initial model loading time can dominate the total execution time for
  smaller batches.  However, for larger workloads (>10,000 requests), the
  amortization of the loading cost across many requests makes batch mode
  highly efficient";
* batch mode reaches higher output-token throughput than interactive serving
  because requests bypass the shared online server.
"""

import pytest

from _harness import MODEL_70B

from repro.cluster import A100_40GB, dgx_a100_spec
from repro.serving import OfflineBatchRunner, PerformanceModel, default_catalog
from repro.sim import Environment
from repro.workload import BATCH_GENERATION_CONFIG, ShareGPTWorkload

BATCH_SIZES = [100, 1000, 5000]


def run_offline_batch(num_requests):
    env = Environment()
    catalog = default_catalog()
    spec = catalog.get(MODEL_70B)
    perf = PerformanceModel(spec, num_gpus=8, gpu_spec=A100_40GB, node_spec=dgx_a100_spec())
    runner = OfflineBatchRunner(env, perf)
    requests = ShareGPTWorkload(BATCH_GENERATION_CONFIG).generate(
        spec.name, num_requests=num_requests
    )
    proc = env.process(runner.run(requests))
    return env.run(until=proc)


def run_all():
    return {n: run_offline_batch(n) for n in BATCH_SIZES}


@pytest.mark.benchmark(group="batch")
def test_batch_mode_throughput_and_amortisation(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n=== Batch mode (Llama 3.3 70B, dedicated job, offline engine) ===")
    for n, result in results.items():
        print(
            f"  {n:>6d} requests: duration={result.duration_s:8.1f}s "
            f"(load {result.load_time_s:5.1f}s)  overall={result.overall_output_tok_s:7.1f} tok/s "
            f"processing={result.processing_output_tok_s:7.1f} tok/s"
        )
        benchmark.extra_info[f"batch_{n}"] = {
            "duration_s": round(result.duration_s, 1),
            "load_time_s": round(result.load_time_s, 1),
            "overall_tok_s": round(result.overall_output_tok_s, 1),
            "processing_tok_s": round(result.processing_output_tok_s, 1),
        }

    mid = results[1000]
    # Overall throughput (including the cold start) lands in the paper's
    # ballpark of ~2100 tok/s for a 1000-request batch.
    assert 1500.0 <= mid.overall_output_tok_s <= 2800.0
    assert mid.num_completed == 1000
    # The cold start is a visible but not dominant fraction for 1000 requests.
    assert 0.03 <= mid.load_time_s / mid.duration_s <= 0.5

    # Amortisation: the load-time share shrinks and overall throughput grows
    # as the batch gets larger.
    small, large = results[100], results[5000]
    assert small.load_time_s / small.duration_s > large.load_time_s / large.duration_s
    assert large.overall_output_tok_s > small.overall_output_tok_s
    # Large batches approach the processing-only rate (load fully amortised).
    assert large.overall_output_tok_s > 0.9 * large.processing_output_tok_s

    # Batch mode beats the interactive serving rate observed in Fig. 3/4
    # (~1400-1700 tok/s through the online path).
    assert mid.processing_output_tok_s > 1700.0
