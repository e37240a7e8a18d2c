"""The six workloads of the layered benchmark: set-up, timed section, outcome.

Every workload is built from public entry points of ``repro`` only and is
driven by an open-loop Poisson schedule in **simulated** time that the
simulation itself generates, so the load generator is never late.  A
workload object is constructed (that is the set-up), its :meth:`timed`
method is the timed section, and :meth:`outcome` reads results and public
counters afterwards.  ``--seed S`` reaches the program only as generated
inputs: ``stable_seed("layers", <workload>, S, ...)`` seeds the ShareGPT
request set and the Poisson arrivals.

Sizes are part of a workload's identity (the relay's cost is quadratic in the
number of requests submitted), so ``divisor`` exists only for ``--smoke`` and
the one-request spawn probe.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import replace
from typing import Dict, List, Optional

from repro.cluster import A100_40GB, dgx_a100_spec
from repro.common import stable_seed
from repro.core import FIRSTDeployment, ObservabilityConfig, sophia_benchmark_config
from repro.metrics import BenchmarkSummary, RequestRecord, summarize
from repro.parallel import (
    ClusterShardSpec,
    FederatedScenario,
    PartitionedDeployment,
    trace_fingerprint,
)
from repro.serving import (
    ContinuousBatchingEngine,
    EngineConfig,
    PerformanceModel,
    default_catalog,
)
from repro.sim import Environment
from repro.sweep import ArrivalSpec, ScenarioSpec
from repro.workload import BenchmarkClient, PoissonArrival, ShareGPTConfig, ShareGPTWorkload

MODEL_70B = "meta-llama/Llama-3.3-70B-Instruct"
MODEL_7B = "Qwen/Qwen2.5-7B-Instruct"
USER = "benchmark@anl.gov"

#: Fig. 3 of the paper (Llama 3.3 70B, one Sophia node): the eight numbers the
#: text states, keyed (system, offered req/s, BenchmarkSummary field).
PAPER_ANCHORS = {
    ("first", 1.0, "median_latency_s"): 9.2,
    ("direct", 1.0, "median_latency_s"): 3.0,
    ("first", 20.0, "request_throughput"): 9.2,
    ("direct", 20.0, "request_throughput"): 5.8,
    ("first", 20.0, "output_token_throughput"): 1677.0,
    ("direct", 20.0, "output_token_throughput"): 1054.0,
    ("first", 20.0, "median_latency_s"): 46.9,
    ("direct", 20.0, "median_latency_s"): 80.2,
}
#: (offered req/s, requests) of the two Fig. 3 rates the anchors come from.
ANCHOR_CELLS = ((1.0, 300), (20.0, 1000))

SIM_SPLIT_KEYS = ("queue_p50_s", "prefill_p50_s", "decode_p50_s", "return_p50_s")


def _seeds(seed_name: str, seed: int) -> Dict[str, int]:
    return {"workload": stable_seed("layers", seed_name, seed, "workload"),
            "arrival": stable_seed("layers", seed_name, seed, "arrival")}


def _sharegpt(seed: int) -> ShareGPTWorkload:
    return ShareGPTWorkload(replace(ShareGPTConfig(), seed=seed))


def _sim_metrics(summary: BenchmarkSummary) -> Dict[str, float]:
    return {
        "sim_latency_p50_s": summary.median_latency_s,
        "sim_latency_p99_s": summary.p99_latency_s,
        "sim_ttft_p50_s": summary.median_ttft_s or 0.0,
        "sim_req_per_s": summary.request_throughput,
    }


def _termination(records: List[RequestRecord], attempted: int,
                 request_ids: Optional[List[str]] = None) -> List[str]:
    """Every attempted request must have exactly one terminal record."""
    problems = []
    ids = [r.request_id for r in records]
    if len(ids) != attempted or len(set(ids)) != len(ids):
        problems.append(f"{len(ids)} records ({len(set(ids))} distinct ids) "
                        f"for {attempted} requests")
    if request_ids is not None and set(ids) != set(request_ids):
        problems.append("recorded request ids differ from the ids sent")
    open_records = sum(1 for r in records if r.completion_time is None)
    if open_records:
        problems.append(f"{open_records} records never completed")
    return problems


def _failed(records: List[RequestRecord], attempted: int) -> int:
    terminated_ok = sum(1 for r in records
                        if r.success and r.completion_time is not None)
    return attempted - terminated_ok


def _sim_split(records: List[RequestRecord], results: Dict[str, object]) -> Dict[str, float]:
    """Where simulated latency goes: medians of the four legs of a request,
    from the client's record and the engine's own timestamps."""
    legs: Dict[str, List[float]] = {key: [] for key in SIM_SPLIT_KEYS}
    for record in records:
        result = results.get(record.request_id)
        if result is None or not record.success:
            continue
        legs["queue_p50_s"].append(result.prefill_start_time - record.send_time)
        legs["prefill_p50_s"].append(result.first_token_time - result.prefill_start_time)
        legs["decode_p50_s"].append(result.completion_time - result.first_token_time)
        legs["return_p50_s"].append(record.completion_time - result.completion_time)
    return {key: statistics.median(values) if values else 0.0
            for key, values in legs.items()}


def _engine_counters(engines) -> Dict[str, float]:
    stats = [engine.stats for engine in engines]
    return {
        "serving.peak_batch_size": max((s.peak_batch_size for s in stats), default=0),
        "serving.preempted": sum(s.preempted for s in stats),
        "serving.busy_s": sum(s.busy_time_s for s in stats),
    }


#: Counters that are running maxima; every other counter is reported as the
#: increase over the timed section.
_PEAKS = ("serving.peak_batch_size", "faas.relay_peak_queued", "obs.traces_retained")


def _delta(begin: Dict[str, float], end: Dict[str, float]) -> Dict[str, float]:
    return {key: value if key in _PEAKS else value - begin.get(key, 0)
            for key, value in end.items()}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class _ResultKeeper:
    """BenchmarkClient target that keeps each request's result event, so the
    engine-side timestamps can be read once the run is over."""

    name = "FIRST"

    def __init__(self, target):
        self.target = target
        self.events = []

    def submit(self, request):
        event = self.target.submit(request)
        self.events.append(event)
        return event


class EnginePoisson:
    """``ContinuousBatchingEngine`` alone on a heap-queue kernel."""

    requests = 40_000
    rate = 8.0

    def __init__(self, seed: int, divisor: int = 1, workers: int = 1):
        seeds = _seeds("engine_poisson", seed)
        self.attempted = max(1, self.requests // divisor)
        self.env = Environment(queue="heap")
        model = default_catalog().get(MODEL_70B)
        perf = PerformanceModel(model, 8, A100_40GB, node_spec=dgx_a100_spec())
        self.engine = ContinuousBatchingEngine(self.env, perf,
                                               EngineConfig(generate_text=False))
        self._requests = _sharegpt(seeds["workload"]).generate(
            model.name, num_requests=self.attempted)
        self._offsets = PoissonArrival(self.rate, seed=seeds["arrival"]).offsets(
            self.attempted)
        self._send_times: List[float] = []
        self._events = []
        self._driver = self.env.process(self._drive())

    def _drive(self):
        env, engine = self.env, self.engine
        last = 0.0
        for request, offset in zip(self._requests, self._offsets):
            if offset > last:
                yield env.timeout(offset - last)
                last = offset
            self._send_times.append(env.now)
            self._events.append(engine.submit(request))
        yield env.all_of(self._events)

    def timed(self) -> None:
        self.env.run(until=self._driver)

    def outcome(self) -> dict:
        records, results = [], {}
        for request, sent, event in zip(self._requests, self._send_times, self._events):
            result = event.value
            results[result.request_id] = result
            records.append(RequestRecord(
                request_id=result.request_id, model=MODEL_70B, send_time=sent,
                completion_time=result.completion_time,
                prompt_tokens=request.prompt_tokens,
                output_tokens=result.output_tokens, success=result.success,
                first_token_time=result.first_token_time or None))
        duration = max(1e-9, self.env.now - self._send_times[0])
        counters = _engine_counters([self.engine])
        counters["serving.busy_frac"] = counters.pop("serving.busy_s") / duration
        return {
            "sim": _sim_metrics(summarize(records, duration_s=duration)),
            "failed": _failed(records, self.attempted),
            "fingerprint": trace_fingerprint(records),
            "problems": _termination(records, self.attempted,
                                     [r.request_id for r in self._requests]),
            "simtime": _sim_split(records, results),
            "counters": counters,
        }


class FirstPath:
    """The paper's §5 deployment: gateway → relay → endpoint → engine."""

    requests = 5_000
    rate = 4.0
    seed_name = "first_chat"
    stream = False
    observability: Optional[ObservabilityConfig] = None

    def __init__(self, seed: int, divisor: int = 1, workers: int = 1):
        seeds = _seeds(self.seed_name, seed)
        self.attempted = max(1, self.requests // divisor)
        config = sophia_benchmark_config(model=MODEL_70B)
        config.observability = self.observability
        self.deployment = deployment = FIRSTDeployment(config)
        self.env = deployment.env
        deployment.warm_up(MODEL_70B, instances=1)
        client = deployment.client(USER)
        workload = _sharegpt(seeds["workload"])
        # One warm-up request fills the gateway's token-introspection cache,
        # the steady state the paper measured.
        self.env.run(until=client.submit(
            workload.generate(MODEL_70B, num_requests=1, id_prefix="warmup")[0]))
        self._requests = workload.generate(MODEL_70B, num_requests=self.attempted)
        for request in self._requests:
            request.stream = self.stream
        self._target = _ResultKeeper(client)
        self._bench = BenchmarkClient(self.env, self._target, label="FIRST")
        self._driver = self.env.process(self._bench.run(
            self._requests, arrival=PoissonArrival(self.rate, seed=seeds["arrival"])))
        self._begin = self._counters()
        self._started = self.env.now

    def _counters(self) -> Dict[str, float]:
        deployment = self.deployment
        engines = [instance.engine
                   for endpoint in deployment.endpoints.values()
                   for pool in endpoint.pools.values()
                   for instance in pool.instances]
        dashboard = deployment.gateway.dashboard()
        response_cache = dashboard.get("response_cache", {"hits": 0, "misses": 0})
        relay = deployment.relay.stats
        schedulers = list(deployment.schedulers.values())
        tracing = (deployment.observability.tracer.stats()
                   if deployment.observability is not None else {})
        return {
            **_engine_counters(engines),
            "faas.relay_submitted": relay.submitted,
            "faas.relay_peak_queued": relay.peak_queued,
            "faas.relay_rejected": relay.rejected,
            "auth_hits": dashboard["auth_cache"]["hits"],
            "auth_misses": dashboard["auth_cache"]["misses"],
            "response_hits": response_cache["hits"],
            "response_misses": response_cache["misses"],
            "cluster.jobs_started": sum(
                1 for s in schedulers for job in s.all_jobs
                if job.start_time is not None),
            "cluster.gpu_hours": sum(s.gpu_seconds() for s in schedulers) / 3600.0,
            "obs.traces_finished": tracing.get("finished", 0),
            "obs.traces_retained": tracing.get("retained", 0),
        }

    def timed(self) -> None:
        self._summary = self.env.run(until=self._driver)

    def outcome(self) -> dict:
        records = list(self._bench.collector.records)
        results = {event.value.request_id: event.value
                   for event in self._target.events
                   if event.triggered and event.ok}
        counters = _delta(self._begin, self._counters())
        duration = max(1e-9, self.env.now - self._started)
        counters["serving.busy_frac"] = counters.pop("serving.busy_s") / duration
        counters["gateway.auth_cache_hit_ratio"] = _ratio(
            counters.pop("auth_hits"), counters.pop("auth_misses"))
        counters["gateway.response_cache_hit_ratio"] = _ratio(
            counters.pop("response_hits"), counters.pop("response_misses"))
        return {
            "sim": _sim_metrics(self._summary),
            "failed": _failed(records, self.attempted),
            "fingerprint": trace_fingerprint(records),
            "problems": _termination(records, self.attempted,
                                     [r.request_id for r in self._requests]),
            "simtime": _sim_split(records, results),
            "counters": counters,
        }


class FirstStream(FirstPath):
    """Same deployment, every request streamed token by token."""

    requests = 3_000
    seed_name = "first_stream"
    stream = True


class FirstTraced(FirstPath):
    """``first_chat`` (same requests, same arrivals) with every trace kept."""

    observability = ObservabilityConfig(sample_rate=1.0)


class FederatedW2:
    """Four cluster shards under the conservative-window parallel plane.

    The timed section is the whole ``PartitionedDeployment.run()``: users pay
    worker spawn and partition build on every run.
    """

    requests = 4_000
    rate = 8.0

    def __init__(self, seed: int, divisor: int = 1, workers: int = 1):
        self.attempted = max(1, self.requests // divisor)
        self.workers = workers
        shards = [ClusterShardSpec(name=f"cluster{i}") for i in range(4)]
        self.scenario = FederatedScenario(
            clusters=shards, model=MODEL_7B, num_requests=self.attempted,
            rate=self.rate, seed=stable_seed("layers", "federated_w2", seed))

    def timed(self) -> None:
        self._result = PartitionedDeployment(self.scenario,
                                             workers=self.workers).run()

    def outcome(self) -> dict:
        result = self._result
        records = result.records
        finished = [r for r in records if r.completion_time is not None]
        duration = max(1e-9, max((r.completion_time for r in finished), default=0.0)
                       - min((r.send_time for r in records), default=0.0))
        stats = result.stats
        gateway = result.per_partition[0]
        clusters = [p for pid, p in sorted(result.per_partition.items()) if pid != 0]
        return {
            "sim": _sim_metrics(summarize(records, duration_s=duration)),
            "failed": _failed(records, self.attempted),
            "fingerprint": trace_fingerprint(records),
            "problems": _termination(records, self.attempted),
            "simtime": {},  # the public result carries client records only
            "counters": {
                "faas.relay_submitted": gateway["relay"]["submitted"],
                "cluster.gpu_hours": sum(c["gpu_seconds"] for c in clusters) / 3600.0,
                "parallel.windows": stats.windows,
                "parallel.micro_windows": stats.micro_windows,
                "parallel.msgs_per_window": stats.messages / max(1, stats.windows),
                "parallel.advance_wall_s": stats.advance_wall_s,
                "parallel.sync_wall_s": stats.sync_wall_s,
            },
        }


class Fig3Anchors:
    """The four Fig. 3 cells (FIRST and vLLM-Direct at 1 and 20 req/s) as
    sweep-plane ``ScenarioSpec`` cells; the timed section runs them in turn,
    deployment build included, as a sweep user would.

    ``seed=None`` replays the paper's fixed request set, the one the model was
    calibrated on; an integer seed resamples requests and arrivals, which is
    the held-out check of the same anchors.
    """

    requests = sum(n for _rate, n in ANCHOR_CELLS) * 2

    def __init__(self, seed: Optional[int], divisor: int = 1, workers: int = 1):
        self.cells: Dict[tuple, ScenarioSpec] = {}
        seeds = _seeds("fig3_anchors", seed) if seed is not None else None
        for rate, requests in ANCHOR_CELLS:
            for system in ("direct", "first"):
                params, arrival = {}, ArrivalSpec.for_rate(rate)
                if seeds is not None:
                    params = {"workload_seed": seeds["workload"]}
                    arrival = ArrivalSpec.for_rate(
                        rate, seed=stable_seed(seeds["arrival"], rate))
                self.cells[(system, rate)] = ScenarioSpec(
                    key=f"layers/fig3/{system}/rate={rate:g}", runner=system,
                    model=MODEL_70B, num_requests=max(1, requests // divisor),
                    arrival=arrival, params=params)
        self.attempted = sum(cell.num_requests for cell in self.cells.values())

    def timed(self) -> None:
        self._payloads = {key: cell.run() for key, cell in self.cells.items()}

    def outcome(self) -> dict:
        summaries = {key: payload["summary"] for key, payload in self._payloads.items()}
        mergeables = [self._payloads[key]["mergeable"] for key in self.cells]
        successful = sum(s.num_successful for s in summaries.values())
        # The cells are four different experiments, not one population: each
        # simulated statistic is the mean of the cells' exact values.
        sim = {name: statistics.fmean(_sim_metrics(s)[name] for s in summaries.values())
               for name in _sim_metrics(next(iter(summaries.values())))}
        problems = [f"{key}: {s.num_requests} records for {self.cells[key].num_requests}"
                    for key, s in summaries.items()
                    if s.num_requests != self.cells[key].num_requests]
        digest = hashlib.sha256()
        for mergeable in mergeables:
            digest.update(mergeable.fingerprint().encode())
        errors = {
            f"{system}@{rate:g}:{field}":
                abs(getattr(summaries[(system, rate)], field) - paper) / paper
            for (system, rate, field), paper in PAPER_ANCHORS.items()}
        return {
            "sim": sim,
            "failed": self.attempted - successful,
            "fingerprint": digest.hexdigest(),
            "problems": problems,
            "simtime": {},  # the public result carries client records only
            "counters": {},
            "anchor_errors": errors,
            "anchor_err_mean": sum(errors.values()) / len(errors),
        }


WORKLOADS = {
    "engine_poisson": EnginePoisson,
    "first_chat": FirstPath,
    "first_stream": FirstStream,
    "first_traced": FirstTraced,
    "federated_w2": FederatedW2,
    "fig3_anchors": Fig3Anchors,
}
