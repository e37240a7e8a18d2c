"""§6.1 — Model evaluation and comparison case study.

"Researchers benchmarked fifteen GPT-style models ... The gateway's ability
to swap models instantly eliminated manual deployment steps, yielding a 40
percent reduction in total evaluation time while preserving consistent
throughput across all model variants."

The bench compares two ways of evaluating a suite of models on the same
prompt set:

* **FIRST**: all models are registered with the service; the evaluation
  sweeps through them via the gateway, and model "swaps" are instant because
  instances stay hot;
* **manual deployment**: each model is deployed by hand (cold start), the
  evaluation runs against it directly, then it is torn down before the next
  model — the workflow FIRST replaces.

The evaluation suite is scaled down (15 models x 60 requests instead of
50,000 requests) to keep the harness fast; the relative saving is what the
paper reports.
"""

import pytest

from repro.cluster import Node, dgx_a100_spec
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
    calibration,
)
from repro.serving import EngineConfig, ServingInstance, default_catalog
from repro.sim import Environment
from repro.workload import BenchmarkClient, ShareGPTWorkload

#: Fifteen 7-8B-class model variants (the paper's suite mixes AuroraGPT and
#: open-source models of similar size).
MODEL_SUITE = [f"eval-suite/model-{i:02d}" for i in range(15)]
REQUESTS_PER_MODEL = 60


def make_catalog():
    from repro.serving import ModelSpec

    catalog = default_catalog()
    for name in MODEL_SUITE:
        catalog.register(ModelSpec(name, params_b=7.5, default_tp=1, n_layers=32, kv_heads=8))
    return catalog


def run_with_first():
    catalog = make_catalog()
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia", kind="sophia", num_nodes=15, scheduler="pbs",
                models=[ModelHostingConfig(m, max_parallel_tasks=48) for m in MODEL_SUITE],
            )
        ],
        users=["evaluator@anl.gov"],
        generate_text=False,
    )
    deployment = FIRSTDeployment(config, catalog=catalog)
    client = deployment.client("evaluator@anl.gov")
    start = deployment.now
    total_tokens = 0
    # All model variants are registered with the service; their instances come
    # up in parallel and stay hot, so "swapping" models during the sweep is
    # instantaneous (no manual redeployment between variants).
    prewarm_events = []
    for model in MODEL_SUITE:
        prewarm_events.extend(deployment.prewarm(model))
    deployment.env.run(until=deployment.env.all_of(prewarm_events))
    for model in MODEL_SUITE:
        requests = ShareGPTWorkload().generate(model, num_requests=REQUESTS_PER_MODEL,
                                               id_prefix=f"eval-{model[-2:]}")
        bench = BenchmarkClient(deployment.env, client, label=model)
        proc = deployment.env.process(bench.run(requests, summary_label=model))
        summary = deployment.env.run(until=proc)
        total_tokens += summary.total_output_tokens
    return {"duration_s": deployment.now - start, "output_tokens": total_tokens}


def run_manual_deployment():
    catalog = make_catalog()
    env = Environment()
    node = Node("manual-0", dgx_a100_spec())
    start = env.now
    total_tokens = 0
    for model in MODEL_SUITE:
        spec = catalog.get(model)
        instance = ServingInstance(
            env, spec, [node],
            perf_config=calibration.default_perf_config(),
            engine_config=EngineConfig(generate_text=False),
        )
        env.run(until=instance.ready)  # manual cold start for every model
        requests = ShareGPTWorkload().generate(model, num_requests=REQUESTS_PER_MODEL,
                                               id_prefix=f"manual-{model[-2:]}")
        bench = BenchmarkClient(env, instance, label=model)
        proc = env.process(bench.run(requests, summary_label=model))
        summary = env.run(until=proc)
        total_tokens += summary.total_output_tokens
        instance.stop()  # tear down before deploying the next model
    return {"duration_s": env.now - start, "output_tokens": total_tokens}


def run_case_study():
    return {"first": run_with_first(), "manual": run_manual_deployment()}


@pytest.mark.benchmark(group="case_study_eval")
def test_model_evaluation_case_study(benchmark):
    results = benchmark.pedantic(run_case_study, rounds=1, iterations=1)
    first, manual = results["first"], results["manual"]
    reduction = 1.0 - first["duration_s"] / manual["duration_s"]
    print("\n=== Case study 6.1: evaluating 15 models on the same prompt set ===")
    print(f"  FIRST gateway sweep : {first['duration_s']:8.1f} s "
          f"({first['output_tokens']} tokens)")
    print(f"  manual redeployment : {manual['duration_s']:8.1f} s "
          f"({manual['output_tokens']} tokens)")
    print(f"  evaluation-time reduction: {reduction:.0%} (paper: ~40%)")
    benchmark.extra_info.update(
        {"first_s": round(first["duration_s"], 1), "manual_s": round(manual["duration_s"], 1),
         "reduction": round(reduction, 3)}
    )

    # Both approaches evaluate the full suite.
    assert first["output_tokens"] > 0 and manual["output_tokens"] > 0
    # FIRST eliminates the per-model redeployment cost: a substantial
    # reduction in total evaluation time (paper: ~40%).
    assert reduction > 0.25
    assert reduction < 0.75
