#!/usr/bin/env python3
"""Case study §6.3 — synthetic data generation with the batch mode.

Researchers used FIRST's ``/v1/batches`` endpoint to generate large volumes
of synthetic training data: a JSONL input file, one dedicated HPC job per
batch, no online-serving overhead, and status polling while it runs.

Run:  python examples/synthetic_data_generation.py
"""

from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.workload import BATCH_GENERATION_CONFIG, ShareGPTWorkload, requests_to_jsonl

MODEL = "meta-llama/Llama-3.3-70B-Instruct"
NUM_PROMPTS = 400


def main() -> None:
    deployment = FIRSTDeployment(
        DeploymentConfig(
            clusters=[
                ClusterDeploymentSpec(
                    name="sophia",
                    kind="sophia",
                    num_nodes=4,
                    scheduler="pbs",
                    models=[ModelHostingConfig(MODEL)],
                )
            ],
            users=["datagen@anl.gov"],
        )
    )
    client = deployment.client("datagen@anl.gov")

    # Build the JSONL batch input: prompts asking for synthetic descriptions,
    # with the longer generation profile typical of data-generation jobs.
    prompts = ShareGPTWorkload(BATCH_GENERATION_CONFIG).generate(
        MODEL, num_requests=NUM_PROMPTS, id_prefix="syndata"
    )
    jsonl = requests_to_jsonl(prompts)
    print(f"Prepared a batch input with {NUM_PROMPTS} requests "
          f"({len(jsonl.splitlines())} JSONL lines)")

    # Submit the batch.  The gateway validates the file, picks an endpoint and
    # launches a dedicated HPC job that loads the model just for this batch.
    batch = client.create_batch(jsonl)
    print(f"Submitted batch {batch['id']} -> status {batch['status']}")

    # Poll for completion (the batch system reports progress, §4.4).
    final = client.wait_for_batch(batch["id"], poll_every_s=60.0)
    duration = (final["completed_at"] or 0) - final["created_at"]
    tokens = final["output_tokens"]
    print(f"Batch finished with status {final['status']!r}")
    print(f"  requests completed : {final['request_counts']['completed']}/{NUM_PROMPTS}")
    print(f"  synthetic tokens   : {tokens}")
    print(f"  wall time          : {duration:.0f} simulated seconds "
          f"({tokens / max(duration, 1e-9):.0f} tok/s overall, cold start included)")

    # Compare against pushing the same prompts through the interactive path.
    print("\nWhy batch mode?  The same workload sent interactively would share the")
    print("online server with other users and pay per-request gateway/relay overhead;")
    print("the dedicated batch job amortises one model load across every request")
    print("(see benchmarks/bench_batch_mode.py for the measured comparison).")


if __name__ == "__main__":
    main()
