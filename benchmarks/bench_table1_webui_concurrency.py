"""Table 1 — WebUI concurrency/throughput benchmark.

Paper table: token throughput (TP/s) and request throughput (Req/s) for
Llama-3.1-8B, Gemma-27B and Llama-3.3-70B at 50/100/300/500/700 concurrent
WebUI sessions, for 60 s and 120 s runs.  The qualitative findings to
reproduce:

* throughput grows (near-linearly at first) from 50 to 500 sessions with
  diminishing returns beyond that as the backend saturates;
* the web interface itself never becomes the bottleneck.

The paper also observed that 60 s runs consistently beat 120 s runs, which it
attributes to resource contention and long-tail latency effects; in the
simulator the two windows land within ~20% of each other (the 120 s window
benefits from proportionally less ramp-up), so that secondary effect is only
weakly reproduced.

Each (model, concurrency, duration) cell runs against a fresh deployment with
three pre-warmed instances (the production deployment auto-scales), so cells
do not contaminate each other.
"""

import pytest

from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.webui import WebUIConcurrencyBenchmark, WebUIServer

MODELS = [
    "meta-llama/Llama-3.1-8B-Instruct",
    "google/gemma-2-27b-it",
    "meta-llama/Llama-3.3-70B-Instruct",
]
CONCURRENCIES = [50, 100, 300, 500, 700]
DURATIONS = [60.0, 120.0]
INSTANCES = 3


def build_webui(model):
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia", kind="sophia", num_nodes=INSTANCES + 1, scheduler="pbs",
                models=[ModelHostingConfig(model, max_instances=INSTANCES,
                                           max_parallel_tasks=96)],
            )
        ],
        users=["benchmark@anl.gov"],
        generate_text=False,
    )
    deployment = FIRSTDeployment(config)
    deployment.warm_up(model, instances=INSTANCES)
    return WebUIServer(deployment)


def run_table1():
    cells = []
    for model in MODELS:
        for concurrency in CONCURRENCIES:
            for duration in DURATIONS:
                webui = build_webui(model)
                bench = WebUIConcurrencyBenchmark(webui, user="benchmark@anl.gov")
                cells.append(bench.run(model, concurrency=concurrency, duration_s=duration))
    return cells


@pytest.mark.benchmark(group="table1")
def test_table1_webui_concurrency(benchmark):
    cells = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    print("\n=== Table 1: WebUI benchmark results per model ===")
    for cell in cells:
        print("  " + cell.row())
    benchmark.extra_info.update(
        {f"{c.model}|c{c.concurrency}|{int(c.duration_s)}s": c.to_dict() for c in cells}
    )

    by_key = {(c.model, c.concurrency, c.duration_s): c for c in cells}
    for model in MODELS:
        tp60 = [by_key[(model, c, 60.0)].token_throughput for c in CONCURRENCIES]
        req60 = [by_key[(model, c, 60.0)].request_throughput for c in CONCURRENCIES]

        # Throughput grows with concurrency up to 500 sessions.
        assert tp60[0] < tp60[3], f"{model}: no growth from 50 to 500 sessions"
        assert req60[0] < req60[3]
        # Diminishing returns beyond 500 sessions: the 500→700 relative gain is
        # much smaller than the 50→300 relative gain.
        gain_low = tp60[2] / tp60[0]
        gain_high = tp60[4] / tp60[3]
        assert gain_high < gain_low

        # The WebUI path keeps serving at every concurrency (no collapse), and
        # the 60 s and 120 s windows are broadly comparable.
        for concurrency in CONCURRENCIES[2:]:
            short = by_key[(model, concurrency, 60.0)].token_throughput
            long = by_key[(model, concurrency, 120.0)].token_throughput
            assert short > 0 and long > 0
            assert short >= long * 0.75, (
                f"{model} @ {concurrency}: 60 s run ({short:.0f} TP/s) should not be "
                f"far below the 120 s run ({long:.0f} TP/s)"
            )

    # At matched concurrency the three models sustain the same order of
    # magnitude of token throughput (the table's rows are broadly similar).
    tp_300 = [by_key[(m, 300, 60.0)].token_throughput for m in MODELS]
    assert max(tp_300) < 4 * min(tp_300)
