#!/usr/bin/env python3
"""Quickstart: bring up a FIRST deployment and talk to it like the OpenAI API.

This mirrors §4.6 of the paper: authenticate (Globus-Auth-like), then use an
OpenAI-style client against the Inference Gateway.  Everything — the cluster,
the scheduler, the Globus-Compute-like endpoint, the vLLM-like engines and
the gateway — runs inside a deterministic simulation, so the script works on
a laptop with no GPUs and finishes in seconds.

Run:  python examples/quickstart.py
"""

from repro.core import FIRSTDeployment, quickstart_config

CHAT_MODEL = "Qwen/Qwen2.5-7B-Instruct"
EMBED_MODEL = "nvidia/NV-Embed-v2"


def main() -> None:
    # 1. Deploy the service: a small 2-node cluster hosting two chat models
    #    and an embedding model behind the gateway.
    #
    #    The whole deployment runs on the from-scratch DES kernel
    #    (`repro.sim.Environment`: a clock and one binary-heap event queue).
    deployment = FIRSTDeployment(quickstart_config())
    print("Deployed FIRST on cluster(s):", ", ".join(deployment.clusters))

    # 2. Authenticate a user (institutional identity, 48-hour token).
    client = deployment.client("researcher@anl.gov")
    print(f"Authenticated as {client.username}")

    # 3. List the models the federation hosts.
    models = [m["id"] for m in client.models()["data"]]
    print("Hosted models:", ", ".join(models))

    # 4. First request: a cold start (node acquisition + model load), exactly
    #    like §4.3 describes.  The /jobs endpoint shows the transition.
    print("\nModel states before the first request:")
    for job in client.jobs():
        print(f"  {job['model']:<40s} {job['state']}")

    t0 = deployment.now
    response = client.chat_completion(
        CHAT_MODEL,
        [{"role": "user", "content": "Summarise why on-premises inference matters for HPC."}],
        max_tokens=96,
    )
    print(f"\nCold-start chat completion took {deployment.now - t0:.1f} simulated seconds")
    print("Assistant:", response["choices"][0]["message"]["content"][:160], "...")

    # 5. Second request hits the hot instance: low latency.
    t0 = deployment.now
    response = client.chat_completion(
        CHAT_MODEL,
        [{"role": "user", "content": "And what about data governance?"}],
        max_tokens=64,
    )
    print(f"Hot-path chat completion took {deployment.now - t0:.1f} simulated seconds")

    # 6. Streaming (API v2): stream=True returns an iterator of OpenAI-style
    #    chat.completion.chunk dicts.  Each token event travels engine →
    #    relay → gateway → client at the engine's real iteration timing, so
    #    the time-to-first-token is far below the full response latency.
    print("\nStreaming response: ", end="")
    t0 = deployment.now
    ttft = None
    for chunk in client.chat_completion(
        CHAT_MODEL,
        [{"role": "user", "content": "Stream a haiku about batch queues."}],
        max_tokens=24,
        stream=True,
    ):
        if ttft is None and chunk["choices"][0]["delta"].get("content"):
            ttft = deployment.now - t0
        print(chunk["choices"][0]["delta"].get("content", ""), end="")
    print(f"\nTime to first token: {ttft:.2f}s "
          f"(full response: {deployment.now - t0:.2f}s)")

    # 7. Embeddings work the same way.
    embedding = client.embedding(EMBED_MODEL, "lustre striping for large files")
    vector = embedding["data"][0]["embedding"]
    print(f"\nEmbedding dimension: {len(vector)}")

    # 8. The dashboard aggregates usage, like the paper's monitoring layer.
    dashboard = client.dashboard()
    print("\nGateway dashboard:")
    print(f"  requests completed : {dashboard['total_completed']}")
    print(f"  output tokens      : {dashboard['total_output_tokens']}")
    print(f"  models             : {[m['model'] for m in dashboard['models']]}")

    print("\nModel states after serving:")
    for job in client.jobs():
        print(f"  {job['model']:<40s} {job['state']}")

    # 9. Federation v2: every routing decision reads the placement plane's
    #    shared TopologyView — the federation's ordered endpoint list plus
    #    one event-refreshed aggregate of pool state, cluster
    #    free-nodes/GPU-seconds and gateway-observed latency medians per
    #    (model, endpoint).  The dashboard's routing block summarises where
    #    decisions went and which rule placed them.
    signal = deployment.topology.pool_signal("ep-devcluster", CHAT_MODEL)
    print(f"\nPlacement signal for {CHAT_MODEL} on ep-devcluster:")
    print(f"  state={signal.state} ready={signal.ready_instances} "
          f"waiting={signal.waiting_tasks} busy={signal.busy_fraction:.2f} "
          f"p50={signal.latency_p50_s and round(signal.latency_p50_s, 2)}s")
    routing = dashboard["routing"]
    print(f"  routing: policy={routing['policy']} total={routing['total']} "
          f"by_rule={routing['by_rule']}")
    #    Beyond the paper's priority rule, `repro.placement` ships a
    #    LeastLoadedRouter, an SLO-aware SLORouter (sheds to a secondary
    #    cluster while the primary's p50 breaches a per-tenant SLO), a
    #    `federated` autoscaling policy that shifts replicas across clusters
    #    on queue imbalance, and per-tenant capacity reservations as a
    #    pipeline stage — see examples/federated_slo_routing.py for a
    #    two-cluster demo.

    # 10. Shifting-traffic workloads: beyond fixed-rate arrivals, the
    #    workload package generates diurnal day/night cycles, linear ramps
    #    and trace replays — the shapes the autoscaling control plane is
    #    benchmarked against (see examples/autoscaling_policies.py).
    from repro.workload import DiurnalArrival, RampArrival

    diurnal = DiurnalArrival(base_rate=0.5, peak_rate=4.0, period_s=600.0, seed=7)
    ramp = RampArrival(start_rate=0.5, end_rate=4.0, ramp_s=300.0, seed=7)
    print("\nShifting-traffic arrival processes:")
    for arrival in (diurnal, ramp):
        sends = arrival.offsets(300)
        mid = sum(1 for t in sends if sends[-1] / 3 <= t < 2 * sends[-1] / 3)
        print(f"  {arrival.label:<42s} first send {sends[0]:6.1f}s, "
              f"300th {sends[-1]:6.1f}s ({mid} sends in the middle third)")

    # 11. Scenario grids at scale: the sweep plane expands a declarative grid
    #    into independent cells and shards them across worker processes —
    #    merged metrics are bit-identical for any worker count, and quantiles
    #    come from mergeable log-bucket histograms (1% relative error).
    #    A whole sweep is three lines:
    from repro.sweep import SweepRunner, SweepSpec

    grid = SweepSpec("demo", runner="engine",
                     base={"model": "meta-llama/Llama-3.1-8B-Instruct",
                           "num_requests": 50},
                     axes={"rate": [2.0, 8.0], "seed": [0, 1]})
    merged = SweepRunner(workers=1).run(grid.expand()).merged(label="demo grid")
    print(f"\nSweep plane ({grid.num_cells} cells, merged):")
    print("  " + merged.row())
    #    `workers=4` shards the same cells across 4 spawned processes and
    #    merges to the bit-identical summary (fingerprints are compared in
    #    benchmarks/bench_sweep_scale.py, which runs a 1M-request grid).

    # 12. Observing a request.  `DeploymentConfig(observability=...)` adds an
    #    observability stage to the gateway pipeline: every request gets a
    #    simulated-time distributed trace (gateway stages → relay transfer →
    #    endpoint queue → engine admission/prefill/decode windows → stream
    #    delivery).  The gateway's Prometheus-style RED metrics (backed by
    #    mergeable histograms) need no tracing: `metrics_text()` serves them
    #    on every deployment.  Tracing is observe-only — simulated
    #    results are bit-identical with it on or off (BENCH_obs.json gates
    #    the wall-clock overhead too).  Head sampling plus an always-kept
    #    top-K-slowest reservoir bound retention; `profile_kernel=True` also
    #    attaches an event-loop profiler to the DES kernel.
    from repro.core import ObservabilityConfig
    from repro.obs import span_tree

    traced_config = quickstart_config(generate_text=False)
    traced_config.observability = ObservabilityConfig(profile_kernel=True)
    traced = FIRSTDeployment(traced_config)
    traced_client = traced.client("researcher@anl.gov")
    for _ in traced_client.chat_completion(
        CHAT_MODEL, [{"role": "user", "content": "trace me"}],
        max_tokens=12, stream=True,
    ):
        pass

    trace_id = traced.observability.tracer.trace_ids()[0]
    trace = traced_client.get_trace(trace_id)          # GET /v1/traces/{id}
    print(f"\nTrace {trace_id} ({trace['duration_s']:.2f}s simulated, "
          f"{len(trace['spans'])} spans):")

    def show(node, depth=1):
        print(f"  {'  ' * depth}{node['name']:<28s} [{node['layer']}] "
              f"{node['duration_s']:.3f}s")
        for child in node["children"][:3]:
            show(child, depth + 1)
        if len(node["children"]) > 3:
            print(f"  {'  ' * (depth + 1)}... {len(node['children']) - 3} more")

    for root in span_tree(trace["spans"]):
        show(root)
    #    The trace is plain JSON (`TraceContext.to_dict()`): json.dump it to
    #    keep it, or rebuild the tree from its `spans` as above.

    metrics = traced_client.metrics_text()             # GET /v1/metrics
    print("\nPrometheus metrics (first lines):")
    for line in metrics.splitlines()[:4]:
        print("  " + line)
    kernel = traced.observability.kernel_profiler.snapshot()
    print(f"kernel profile: {kernel['events_total']} events, "
          f"{kernel['events_per_wall_s']:.0f} events/wall-s")

    # 13. Sharding one federated deployment across processes.  The parallel
    #    plane splits a gateway + N compute clusters into per-cluster event
    #    kernels that advance in conservative synchronous windows (lookahead
    #    = relay wire latency) and exchange only boundary messages.  Results
    #    are bit-identical to the serial run for any worker count — the
    #    fingerprint proves it.  On a single-CPU box this costs more than it
    #    saves (worker spawn + one sync round-trip per window); reach for it
    #    when one simulated cluster saturates a core and you have spare ones.
    from repro.parallel import FederatedScenario, PartitionedDeployment

    scenario = FederatedScenario.demo(clusters=2, num_requests=20)
    result = PartitionedDeployment(scenario, workers=2).run()
    print(f"\nPartitioned federation: {len(result.records)} requests across "
          f"{scenario.clusters[0].name}+{scenario.clusters[1].name}, "
          f"{result.stats.windows} windows, "
          f"fingerprint {result.fingerprint[:16]} "
          f"(identical at any worker count)")

    # 14. Guarding determinism.  Everything above is bit-identical across
    #    worker counts and PYTHONHASHSEED values — and two guard layers keep
    #    it that way as the code grows:
    #
    #    * detlint (`PYTHONPATH=src python -m repro.analysis src`) — AST
    #      rules that flag wall-clock reads (DET001), global/np.random draws
    #      (DET002), builtin hash() (DET003), iteration over sets in
    #      sim-path packages (DET004), pickle-unsafe closures in specs
    #      (DET005) and layering breaks (ARCH001/ARCH002).  CI fails on any
    #      finding not in detlint_baseline.json — which is empty.
    #    * DetSan (`REPRO_DETSAN=1`, or `Environment(sanitize=True)`) — a
    #      runtime sanitizer using the same shadow-step trick as the kernel
    #      profiler (zero overhead unattached): past-event pushes that get
    #      around the kernel's own ValueError, duplicate (time, priority, eid)
    #      keys and RNG draws from the observe-only obs/ layer raise
    #      DetSanError at the call site.
    import tempfile
    from pathlib import Path

    from repro.analysis import DetSanError, lint_paths, load_config
    from repro.sim import Environment

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        bad = root / "src" / "repro" / "sim" / "oops.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef stamp(events: set):\n"
                       "    return time.time(), sorted(hash(e) for e in events)\n")
        findings = lint_paths([str(bad.parent)], root=root,
                              config=load_config(root))
    print("\ndetlint on a deliberately bad sim-path file:")
    for f in findings:
        print(f"  {f.rule} line {f.line}: {f.message}")

    env = Environment(sanitize=True)
    try:
        env.schedule(env.event(), delay=-1.0)
    except ValueError as exc:
        print(f"kernel refused: {exc}")
    try:  # a component writing the event heap directly, past that check
        env._push(env.now - 1.0, 1, next(env._eid), env.event())
    except DetSanError as exc:
        print(f"DetSan caught: {exc}")
    env.sanitizer.detach()          # restores the plain class-level step
    #    The third guard runs in CI only: `python -m repro.analysis.detsan`
    #    reruns a partitioned federation under PYTHONHASHSEED=101 and =202
    #    in separate interpreters and fails unless the merged fingerprints
    #    are bit-identical.


if __name__ == "__main__":
    main()
