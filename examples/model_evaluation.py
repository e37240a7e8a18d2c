#!/usr/bin/env python3
"""Case study §6.1 — evaluating a suite of models through the gateway.

The paper's researchers benchmarked fifteen GPT-style models against the
same prompt set; FIRST's ability to "swap models instantly" (every variant is
registered and served by the same API) removed the manual redeployment steps
and cut total evaluation time by ~40%.

This example evaluates a smaller suite on a shared prompt set and reports
per-model throughput and latency, plus the usage accounting the gateway keeps.

Run:  python examples/model_evaluation.py
"""

from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.workload import BenchmarkClient, ShareGPTWorkload

MODEL_SUITE = [
    "Qwen/Qwen2.5-7B-Instruct",
    "meta-llama/Llama-3.1-8B-Instruct",
    "mistralai/Mistral-7B-Instruct-v0.3",
    "argonne-private/AuroraGPT-7B",
    "argonne-private/AuroraGPT-Tulu3-SFT-0125",
]
REQUESTS_PER_MODEL = 40


def main() -> None:
    deployment = FIRSTDeployment(
        DeploymentConfig(
            clusters=[
                ClusterDeploymentSpec(
                    name="sophia",
                    kind="sophia",
                    num_nodes=6,
                    scheduler="pbs",
                    models=[ModelHostingConfig(m, max_parallel_tasks=48) for m in MODEL_SUITE],
                )
            ],
            users=["evaluator@anl.gov"],
        )
    )
    client = deployment.client("evaluator@anl.gov")

    # Pre-warm every variant in parallel: this is the step that replaces
    # "manually deploy model, run, tear down, repeat".
    events = []
    for model in MODEL_SUITE:
        events.extend(deployment.prewarm(model))
    deployment.env.run(until=deployment.env.all_of(events))
    print(f"All {len(MODEL_SUITE)} model variants are hot "
          f"(t={deployment.now:.0f}s simulated)")

    print(f"\nEvaluating each variant on the same {REQUESTS_PER_MODEL}-prompt set:")
    results = []
    for model in MODEL_SUITE:
        requests = ShareGPTWorkload().generate(model, num_requests=REQUESTS_PER_MODEL,
                                               id_prefix=f"eval-{model.split('/')[-1]}")
        bench = BenchmarkClient(deployment.env, client, label=model)
        proc = deployment.env.process(bench.run(requests, summary_label=model))
        summary = deployment.env.run(until=proc)
        results.append(summary)
        print("  " + summary.row())

    fastest = max(results, key=lambda s: s.output_token_throughput)
    print(f"\nHighest-throughput variant: {fastest.label} "
          f"({fastest.output_token_throughput:.0f} tok/s)")

    usage = deployment.database.usage_summary()
    print("\nGateway accounting for the evaluation campaign:")
    print(f"  total requests logged : {usage['total_requests']}")
    print(f"  total output tokens   : {usage['total_output_tokens']}")
    print("\n(The full-scale comparison against manual redeployment is in")
    print(" benchmarks/bench_case_study_eval.py — it reproduces the ~40% saving.)")


if __name__ == "__main__":
    main()
