"""§4.3 — Hot vs. cold model starts and the ``/jobs`` visibility endpoint.

Paper behaviour to reproduce:

* a request for a "hot" model is served with minimal latency;
* a "cold" start pays scheduler queueing + node acquisition + model-weight
  loading, and the loading time grows with the parameter count (an 8B model
  loads quickly; a 70B model takes on the order of a minute; a 405B-class
  model spanning several nodes takes several times longer);
* the ``/jobs`` endpoint reports models as running / starting / queued.
"""

import pytest

from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.serving import InferenceRequest

MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"
MODEL_70B = "meta-llama/Llama-3.3-70B-Instruct"
MODEL_405B = "meta-llama/Llama-3.1-405B-Instruct"


def build_deployment():
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia", kind="sophia", num_nodes=8, scheduler="pbs",
                models=[
                    ModelHostingConfig(MODEL_8B),
                    ModelHostingConfig(MODEL_70B),
                    ModelHostingConfig(MODEL_405B, tensor_parallel=32, nodes_per_instance=4),
                ],
            )
        ],
        users=["benchmark@anl.gov"],
        generate_text=False,
    )
    return FIRSTDeployment(config)


def measure_latency(deployment, client, model, request_id):
    request = InferenceRequest(request_id, model, prompt_tokens=200, max_output_tokens=100)
    start = deployment.now
    ev = client.submit(request)
    deployment.env.run(until=ev)
    return deployment.now - start


def run_cold_start_study():
    deployment = build_deployment()
    client = deployment.client("benchmark@anl.gov")
    data = {}

    # Cold starts, smallest to largest model.
    for model in (MODEL_8B, MODEL_70B, MODEL_405B):
        data[f"cold:{model}"] = measure_latency(deployment, client, model, f"cold-{model}")
    # Hot repeats.
    for model in (MODEL_8B, MODEL_70B, MODEL_405B):
        data[f"hot:{model}"] = measure_latency(deployment, client, model, f"hot-{model}")
    data["jobs"] = client.jobs()
    return data


@pytest.mark.benchmark(group="cold_start")
def test_cold_vs_hot_start_latencies(benchmark):
    data = benchmark.pedantic(run_cold_start_study, rounds=1, iterations=1)
    print("\n=== Cold vs hot request latency (includes scheduler + model load) ===")
    for key, value in data.items():
        if key.startswith(("cold", "hot")):
            print(f"  {key:<60s} {value:8.1f} s")
    benchmark.extra_info.update(
        {k: round(v, 1) for k, v in data.items() if isinstance(v, float)}
    )

    cold8, cold70, cold405 = (data[f"cold:{m}"] for m in (MODEL_8B, MODEL_70B, MODEL_405B))
    hot8, hot70, hot405 = (data[f"hot:{m}"] for m in (MODEL_8B, MODEL_70B, MODEL_405B))

    # Cold-start latency grows with model size (§4.3).
    assert cold8 < cold70 < cold405
    assert cold405 > 2 * cold8

    # Hot requests are dramatically faster than cold ones for every model.
    for cold, hot in ((cold8, hot8), (cold70, hot70), (cold405, hot405)):
        assert hot < cold / 3
        assert hot < 30.0

    # The /jobs endpoint now reports all three models as running.
    states = {j["model"]: j["state"] for j in data["jobs"]}
    assert states[MODEL_8B] == "running"
    assert states[MODEL_70B] == "running"
    assert states[MODEL_405B] == "running"
