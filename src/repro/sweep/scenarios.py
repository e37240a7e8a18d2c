"""Importable cell runners for the sweep plane.

Each runner is a module-level function ``fn(spec) -> payload`` — importable
from worker processes, registered under a short name in :data:`RUNNERS`.
Payloads are dicts carrying at least:

* ``"summary"`` — an exact :class:`~repro.metrics.BenchmarkSummary`
  computed from the raw in-worker records (percentiles are exact, so ported
  benchmarks print unchanged rows);
* ``"mergeable"`` — a :class:`~repro.metrics.MergeableSummary` for
  cross-shard reduction (log-bucket quantiles, associative merge).

Seeding: cells that vary a ``seed`` axis key their workload and arrival
streams off ``(model, seed tag, rate)`` via :func:`repro.common.stable_seed`
— a pure function of the cell description, never of worker assignment — so
merged sweep metrics are bit-identical for any worker count, and cells that
differ only in engine knobs (e.g. ``macro_stepping``) replay the identical
workload and must produce bit-identical simulated results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from ..common import stable_seed
from ..metrics import MergeableSummary, RequestRecord, summarize
from ..sim import Environment
from ..workload import BenchmarkClient, ShareGPTConfig, ShareGPTWorkload
from .spec import ArrivalSpec, ScenarioSpec

__all__ = [
    "RUNNERS",
    "run_engine_cell",
    "run_first_cell",
    "run_direct_cell",
    "run_autoscale_policy_cell",
    "run_partitioned_cell",
]


def _workload(spec: ScenarioSpec) -> ShareGPTWorkload:
    """The cell's workload: the paper's fixed request set unless a
    ``workload_seed`` param or a ``seed`` grid axis varies it."""
    workload_seed = spec.params.get("workload_seed")
    if workload_seed is None and "seed" in spec.tags:
        workload_seed = stable_seed("workload", spec.model, spec.tags["seed"])
    if workload_seed is None:
        return ShareGPTWorkload()
    return ShareGPTWorkload(replace(ShareGPTConfig(), seed=workload_seed))


def _arrival_spec(spec: ScenarioSpec) -> ArrivalSpec:
    if spec.arrival is not None:
        arrival = spec.arrival
    else:
        arrival = ArrivalSpec.for_rate(spec.params.get("rate"))
    if "seed" in spec.tags and arrival.kind in ("poisson", "diurnal", "ramp"):
        arrival = replace(arrival, seed=stable_seed(
            "arrival", spec.tags["seed"], arrival.kind, arrival.rate or 0.0))
    return arrival


def _payload(collector_or_records, label: str, duration_s: float,
             extras: Dict = None) -> dict:
    summary = summarize(collector_or_records, label=label, duration_s=duration_s)
    mergeable = MergeableSummary.from_records(collector_or_records, label=label,
                                              duration_s=duration_s)
    payload = {"summary": summary, "mergeable": mergeable}
    if extras:
        payload.update(extras)
    return payload


# ------------------------------------------------------------------ engine
def run_engine_cell(spec: ScenarioSpec) -> dict:
    """Engine-level cell: requests against one macro-stepped engine instance.

    The fastest substrate (no gateway/relay/scheduler layers) — what the
    million-request scale sweeps run on.  Engine knobs come from
    ``spec.engine`` (e.g. ``{"macro_stepping": False}``).
    """
    from ..cluster import A100_40GB, dgx_a100_spec
    from ..serving import ContinuousBatchingEngine, EngineConfig, PerformanceModel
    from ..serving import default_catalog

    env = Environment()
    catalog_spec = default_catalog().get(spec.model)
    tensor_parallel = spec.params.get("tensor_parallel", 8)
    perf = PerformanceModel(catalog_spec, tensor_parallel, A100_40GB,
                            node_spec=dgx_a100_spec())
    engine_config = EngineConfig(generate_text=False, **spec.engine)
    engine = ContinuousBatchingEngine(env, perf, engine_config)

    requests = _workload(spec).generate(catalog_spec.name,
                                        num_requests=spec.num_requests)
    offsets = _arrival_spec(spec).build().offsets(spec.num_requests)
    result_events = []
    send_times: List[float] = []

    def driver(env):
        last = 0.0
        for request, offset in zip(requests, offsets):
            if offset > last:
                yield env.timeout(offset - last)
                last = offset
            send_times.append(env.now)
            result_events.append(engine.submit(request))
        yield env.all_of(result_events)

    proc = env.process(driver(env))
    env.run(until=proc)

    records = []
    for request, send_time, event in zip(requests, send_times, result_events):
        result = event.value
        records.append(RequestRecord(
            request_id=result.request_id,
            model=spec.model,
            send_time=send_time,
            completion_time=result.completion_time,
            prompt_tokens=request.prompt_tokens,
            output_tokens=result.output_tokens,
            success=result.success,
            first_token_time=result.first_token_time or None,
        ))
    label = spec.label or spec.key
    duration = max(1e-9, env.now - (min(send_times) if send_times else 0.0))
    stats = engine.stats
    return _payload(records, label, duration, extras={
        "sim_duration_s": env.now,
        "output_tokens": stats.output_tokens,
        "peak_batch_size": stats.peak_batch_size,
    })


# ------------------------------------------------------------------ FIRST / direct
def run_first_cell(spec: ScenarioSpec) -> dict:
    """Full FIRST path (gateway → relay → endpoint → engine), one deployment.

    Params: ``max_instances``, ``prewarm_instances``, ``num_nodes``,
    ``stream`` — the knobs of the paper's §5 scenarios.
    """
    from ..core import FIRSTDeployment, sophia_benchmark_config

    params = spec.params
    config = params.get("deployment") or sophia_benchmark_config(
        model=spec.model,
        max_instances=params.get("max_instances", 1),
        num_nodes=params.get("num_nodes", 8),
    )
    deployment = FIRSTDeployment(config)
    deployment.warm_up(spec.model, instances=params.get("prewarm_instances", 1))
    client = deployment.client("benchmark@anl.gov")
    workload = _workload(spec)
    # Warm the gateway's token/introspection cache with one request so the
    # measured run matches the paper's steady-state deployment.
    warm = client.submit(
        workload.generate(spec.model, num_requests=1, id_prefix="warmup")[0])
    deployment.env.run(until=warm)

    requests = workload.generate(spec.model, num_requests=spec.num_requests)
    if params.get("stream"):
        for request in requests:
            request.stream = True
    bench = BenchmarkClient(deployment.env, client, label="FIRST")
    arrival = _arrival_spec(spec).build()
    label = spec.label or f"FIRST @ {arrival.label}"
    proc = deployment.env.process(
        bench.run(requests, arrival=arrival, summary_label=label))
    summary = deployment.env.run(until=proc)
    mergeable = MergeableSummary.from_records(bench.collector, label=label,
                                              duration_s=summary.duration_s)
    return {"summary": summary, "mergeable": mergeable}


def run_direct_cell(spec: ScenarioSpec) -> dict:
    """vLLM-Direct baseline path (client → API server → engine)."""
    from ..baselines import DirectVLLMTarget
    from ..cluster import Node, dgx_a100_spec
    from ..core import calibration
    from ..serving import EngineConfig, default_catalog

    env = Environment()
    catalog = default_catalog()
    catalog_spec = catalog.get(spec.model)
    nodes = [Node(f"direct-{i}", dgx_a100_spec())
             for i in range(max(1, catalog_spec.default_tp // 8))]
    pending, ready = DirectVLLMTarget.launch(
        env, catalog_spec, nodes,
        perf_config=calibration.default_perf_config(),
        engine_config=EngineConfig(generate_text=False),
        api_config=calibration.default_api_server_config(),
    )
    env.run(until=ready)
    target = pending.materialise()

    requests = _workload(spec).generate(catalog_spec.name,
                                        num_requests=spec.num_requests)
    bench = BenchmarkClient(env, target, label="vLLM Direct")
    arrival = _arrival_spec(spec).build()
    label = spec.label or f"vLLM Direct @ {arrival.label}"
    proc = env.process(bench.run(requests, arrival=arrival, summary_label=label))
    summary = env.run(until=proc)
    mergeable = MergeableSummary.from_records(bench.collector, label=label,
                                              duration_s=summary.duration_s)
    return {"summary": summary, "mergeable": mergeable}


# ------------------------------------------------------------------ autoscaling
def run_autoscale_policy_cell(spec: ScenarioSpec) -> dict:
    """One autoscaling-policy scenario on the full FIRST stack.

    Params: ``deployment`` (a :class:`~repro.core.DeploymentConfig` whose
    single cluster hosts ``spec.model`` with an ``AutoscaleConfig``),
    ``policy`` (name, for the scheduled-epoch fix and the report),
    ``scenario`` (report key), ``floor`` and ``quiet_tail_s`` (the
    post-traffic leak/floor check).  Returns the report entry dict the
    autoscaling benchmark prints, plus summary/mergeable metrics.
    """
    from ..core import FIRSTDeployment

    params = spec.params
    config = params["deployment"]
    policy = params["policy"]
    floor = params.get("floor", 1)
    quiet_tail_s = params.get("quiet_tail_s", 420.0)
    model = spec.model

    deployment = FIRSTDeployment(config)
    deployment.warm_up(model, instances=floor)
    client = deployment.client("benchmark@anl.gov")
    workload = _workload(spec)
    warm = client.submit(
        workload.generate(model, num_requests=1, id_prefix="warmup")[0])
    deployment.env.run(until=warm)
    traffic_start = deployment.now

    cluster_name = config.clusters[0].name
    endpoint = deployment.endpoints[f"ep-{cluster_name}"]
    pool = endpoint.pools[model]
    if policy == "scheduled":
        # The cron plan's day starts when traffic opens, not at sim t=0.
        pool.replicas.policy.epoch_s = traffic_start

    requests = workload.generate(model, num_requests=spec.num_requests)
    arrival = _arrival_spec(spec).build()
    bench = BenchmarkClient(deployment.env, client, label=policy)
    proc = deployment.env.process(
        bench.run(requests, arrival=arrival,
                  summary_label=spec.label or f"{policy} @ {arrival.label}"))
    summary = deployment.env.run(until=proc)

    scheduler = deployment.schedulers[cluster_name]
    gpu_hours = scheduler.gpu_seconds() / 3600.0
    actions = pool.replicas.actions
    peak = max([a["to"] for a in actions], default=floor)

    # Quiet tail: scale-down-capable policies must return to the floor with
    # nothing leaked (the scale-up/scale-down cycle acceptance check).
    deployment.run_for(quiet_tail_s)
    active_jobs = [j for j in scheduler.all_jobs if not j.state.terminal]
    probe = client.chat_completion(
        model, [{"role": "user", "content": "post-cycle route probe"}],
        max_tokens=16,
    )
    entry = {
        "policy": policy,
        "scenario": params.get("scenario", ""),
        "label": summary.label,
        "num_requests": summary.num_requests,
        "num_successful": summary.num_successful,
        "duration_s": round(summary.duration_s, 1),
        "traffic_start_s": round(traffic_start, 1),
        "throughput_req_s": round(summary.request_throughput, 3),
        "p50_latency_s": round(summary.median_latency_s, 3),
        "mean_latency_s": round(summary.mean_latency_s, 3),
        "p99_latency_s": round(summary.p99_latency_s, 3),
        "gpu_hours": round(gpu_hours, 3),
        "peak_instances": peak,
        "launches": pool.replicas.launches,
        "drains": pool.replicas.drains,
        "final_ready": len(pool.ready_instances),
        "final_draining": len(pool.draining),
        "final_provisioned": pool.provisioned_count,
        "active_jobs_after_tail": len(active_jobs),
        "jobs_drained": scheduler.jobs_drained,
        "route_probe_ok": "error" not in probe,
    }
    mergeable = MergeableSummary.from_records(bench.collector, label=summary.label,
                                              duration_s=summary.duration_s)
    mergeable.counters["gpu_hours"] = gpu_hours
    return {"summary": summary, "mergeable": mergeable, "entry": entry}


# ------------------------------------------------------------------ partitioned federation
def run_partitioned_cell(spec: ScenarioSpec) -> dict:
    """One partitioned federated run under the conservative-window parallel
    plane (:mod:`repro.parallel`).

    Params: ``clusters`` — a list of :class:`~repro.parallel.ClusterShardSpec`
    (or kwargs dicts for them); ``stream``; ``relay`` (RelayConfig field
    overrides); ``partition_workers`` — worker processes *inside* the cell
    (default 1: serial partitions, so sweep workers never nest process
    pools).  The payload adds the run's bit-identity ``fingerprint``, the
    window/overhead ``partition_stats``, and the federation-wide ``registry``
    snapshot that :meth:`~repro.sweep.runner.SweepResult.merged_registry`
    reduces across cells.
    """
    from ..parallel import ClusterShardSpec, FederatedScenario, PartitionedDeployment

    params = spec.params
    clusters = params.get("clusters") or [{"name": "cluster0"}, {"name": "cluster1"}]
    shards = [shard if isinstance(shard, ClusterShardSpec)
              else ClusterShardSpec(**shard) for shard in clusters]
    scenario = FederatedScenario(
        clusters=shards,
        model=spec.model or FederatedScenario.model,
        num_requests=spec.num_requests,
        arrival=_arrival_spec(spec),
        seed=int(spec.tags.get("seed", params.get("seed", 0))),
        stream=bool(params.get("stream", False)),
        relay=dict(params.get("relay") or {}),
    )
    result = PartitionedDeployment(
        scenario,
        workers=int(params.get("partition_workers", 1)),
        mp_context=params.get("partition_mp_context", "spawn"),
    ).run()

    records = result.records
    if records:
        duration = (max(r.completion_time for r in records)
                    - min(r.send_time for r in records))
    else:
        duration = 0.0
    return _payload(records, spec.label or spec.key, max(duration, 1e-9), extras={
        "registry": result.registry.to_dict(),
        "fingerprint": result.fingerprint,
        "partition_stats": result.stats.to_dict(),
        "partition_workers": result.workers,
    })


#: Short runner names usable as ``ScenarioSpec.runner``.
RUNNERS = {
    "engine": run_engine_cell,
    "first": run_first_cell,
    "direct": run_direct_cell,
    "autoscale_policy": run_autoscale_policy_cell,
    "partitioned": run_partitioned_cell,
}
