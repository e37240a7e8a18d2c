"""Partition implementations: per-cluster shards of one federated deployment.

A partitioned run splits the federated topology at its relay edges:

* the **gateway partition** hosts the workload driver, the cloud relay and
  the placement plane's :class:`~repro.placement.TopologyView`; every
  remote cluster appears as a :class:`~repro.faas.RelayBoundaryProxy`
  answering the queue-depth dispatcher from barrier snapshots;
* one **cluster partition** per facility hosts the real
  :class:`~repro.faas.ComputeEndpoint` — scheduler, model pools, serving
  engines — and executes the tasks shipped across the boundary.

Each partition owns a private :class:`~repro.sim.Environment`.  All
partitions share one simulated clock by construction: the conservative window
scheme (:mod:`repro.parallel.horizon`) only ever lets a partition run inside a
window that no in-flight message can land in, so ``env.now`` values interleave
exactly as one global event queue would have interleaved them.

Determinism notes (the bit-identical-across-worker-counts contract):

* randomness is keyed, never drawn from shared streams — the workload seed
  is ``stable_seed(seed, "workload")`` and every partition gets its own
  :meth:`~repro.common.RandomSource.spawn_named` stream keyed by partition
  name, a pure function of the scenario seed regardless of which worker
  builds it;
* boundary messages are delivered in :func:`~repro.parallel.boundary.sort_key`
  order, so event ids assigned during delivery are reproducible;
* barrier snapshots are applied in sorted source order before delivery, so
  routing reads window-granular state that the serial fallback reproduces
  identically.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..common import IdGenerator, RandomSource, stable_seed
from ..faas import (
    HANDLER_CHAT,
    ComputeEndpoint,
    EndpointConfig,
    ModelHostingConfig,
    RelayBoundaryProxy,
    RelayService,
)
from ..faas.functions import FunctionRegistry
from ..faas.task import TaskRecord, TaskStatus
from ..federation import FederationRegistry
from ..metrics import RequestRecord
from ..obs import MetricsRegistry
from ..placement import TopologyView
from ..serving import InstanceState
from ..serving.stream import STREAM_CHANNEL_KEY, StreamChannel
from ..sim import Environment
from .boundary import DISPATCH, PING, RESULT, BoundaryMessage, sort_key, validate_arrival
from .horizon import Window

__all__ = [
    "PartitionSpec",
    "Partition",
    "GatewayPartition",
    "ClusterPartition",
    "PingPartition",
    "build_partition",
    "PARTITION_KINDS",
]

#: The one function id partitioned runs exercise (chat inference).
FUNCTION_ID = "fn-inference-chat"


class PartitionSpec:
    """Pickle-safe description of one partition (shipped to spawn workers)."""

    __slots__ = ("pid", "name", "kind", "lookahead_s", "seed", "params")

    def __init__(self, pid: int, name: str, kind: str, lookahead_s: float,
                 seed: int = 0, params: Optional[Dict[str, Any]] = None):
        self.pid = pid
        self.name = name
        #: Key into :data:`PARTITION_KINDS`.
        self.kind = kind
        #: Minimum transfer latency on this partition's *outgoing* edges —
        #: the conservative lookahead the window planner relies on.
        self.lookahead_s = lookahead_s
        self.seed = seed
        self.params = params or {}

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PartitionSpec(pid={self.pid}, name={self.name!r}, "
                f"kind={self.kind!r}, lookahead={self.lookahead_s})")


class Partition:
    """Base partition: an environment plus boundary in/out mechanics."""

    def __init__(self, spec: PartitionSpec):
        self.spec = spec
        self.pid = spec.pid
        self.name = spec.name
        self.env = Environment()
        #: Partition-local random stream, keyed by name: a pure function of
        #: the scenario seed, independent of worker assignment or build
        #: order (numpy-backed; unused unless a partition draws from it).
        self._rng_seed = stable_seed(spec.seed, "partition", spec.name)
        self._outbox: List[BoundaryMessage] = []
        self._seq = 0

    def rng(self) -> RandomSource:
        return RandomSource(self._rng_seed)

    # -- boundary plumbing -------------------------------------------------
    def send(self, kind: str, dst: int, arrival_time: float,
             body: Dict[str, Any]) -> None:
        self._outbox.append(BoundaryMessage(kind=kind, src=self.pid, dst=dst,
                                            seq=self._seq,
                                            arrival_time=arrival_time,
                                            body=body))
        self._seq += 1

    def collect_outbox(self) -> List[BoundaryMessage]:
        out, self._outbox = self._outbox, []
        return out

    def deliver(self, messages: List[BoundaryMessage]) -> None:
        """Schedule inbound messages (the barrier hands them in already
        sorted; sorting again here keeps the method safe to call directly)."""
        for message in sorted(messages, key=sort_key):
            validate_arrival(message, self.env.now)
            self._deliver_one(message)

    def _deliver_one(self, message: BoundaryMessage) -> None:
        raise NotImplementedError

    # -- window protocol ---------------------------------------------------
    def bound(self) -> float:
        """Earliest time this partition could commit its next event."""
        return self.env.peek()

    def advance(self, window: Window) -> float:
        return self.env.run_until_horizon(window.time, inclusive=window.inclusive)

    def done(self) -> bool:
        """True once this partition no longer needs simulation to progress.

        The orchestrator stops when every partition is done and no boundary
        message is in flight.  The conservative default — no local events
        left — suits partitions whose pending events all matter (e.g. ping
        relays); shards with perpetual background timers (autoscaler ticks,
        pool maintenance) must override, otherwise the run never terminates.
        """
        return self.env.peek() == float("inf")

    def snapshots(self) -> List[dict]:
        """Serialized pool state shipped to the gateway at each barrier."""
        return []

    def apply_snapshots(self, snapshots: List[dict]) -> None:
        pass

    def finalize(self) -> dict:
        return {}


class GatewayPartition(Partition):
    """The control-plane shard: workload driver, relay, placement view.

    Params (all picklable): ``clusters`` — ``[{"pid", "name"}]`` in routing
    candidate order; ``model``; ``num_requests``; ``arrival`` — an
    :class:`~repro.sweep.spec.ArrivalSpec`; ``stream``; ``relay`` —
    :class:`~repro.faas.RelayConfig` field overrides.
    """

    def __init__(self, spec: PartitionSpec):
        super().__init__(spec)
        from dataclasses import replace

        from ..core import calibration
        from ..sweep.spec import ArrivalSpec
        from ..workload import ShareGPTConfig, ShareGPTWorkload

        params = spec.params
        self.model: str = params["model"]
        self.num_requests: int = params["num_requests"]
        self.stream: bool = bool(params.get("stream", False))

        relay_config = calibration.default_relay_config()
        if params.get("relay"):
            relay_config = replace(relay_config, **params["relay"])
        self.ids = IdGenerator()
        self.relay = RelayService(self.env, relay_config, ids=self.ids)
        self.relay.functions.register(FUNCTION_ID, name=HANDLER_CHAT,
                                      handler=HANDLER_CHAT, owner="parallel")

        # Placement plane over an (empty) federation registry: every remote
        # cluster's signals arrive as barrier snapshots, not observer hooks.
        self.view = TopologyView(self.env, FederationRegistry())
        self._proxy_by_pid: Dict[int, RelayBoundaryProxy] = {}
        self._candidates: List[str] = []
        for cluster in params["clusters"]:
            proxy = RelayBoundaryProxy(
                self.env, endpoint_id=f"ep-{cluster['name']}",
                cluster=cluster["name"], models=[self.model], view=self.view,
            )
            self.relay.register_endpoint(proxy)
            self._proxy_by_pid[cluster["pid"]] = proxy
            self._candidates.append(proxy.endpoint_id)

        workload = ShareGPTWorkload(
            replace(ShareGPTConfig(), seed=stable_seed(spec.seed, "workload")))
        self._requests = workload.generate(self.model,
                                           num_requests=self.num_requests)
        arrival: ArrivalSpec = params["arrival"]
        self._offsets = arrival.build().offsets(self.num_requests)

        self.registry = MetricsRegistry()
        self._latency = self.registry.histogram(
            "parallel_gateway_latency_s",
            "End-to-end request latency observed by the gateway partition")
        self._completed = self.registry.counter(
            "parallel_requests_total",
            "Requests completed, by outcome", labelnames=("outcome",))
        #: Engine-side token production times of streamed tasks whose result
        #: message has arrived, until the task's record is written.
        self._token_times: Dict[str, List[float]] = {}
        self.records: List[RequestRecord] = []
        self.env.process(self._driver())

    # -- workload driver ---------------------------------------------------
    def _driver(self):
        for request, offset in zip(self._requests, self._offsets):
            if offset > self.env.now:
                yield self.env.timeout_at(offset)
            request.stream = self.stream
            request.arrival_time = self.env.now
            future = self.relay.submit(FUNCTION_ID, self._candidates,
                                       {"request": request},
                                       submitter="parallel-gateway")
            self.env.process(self._record(request, self.env.now, future))

    def _record(self, request, send_time: float, future):
        result = yield future.done
        token_times = self._token_times.pop(future.task_id, None)
        success = result is not None and getattr(result, "success", True)
        first_token = token_times[0] if token_times else (
            getattr(result, "first_token_time", 0.0) or None)
        record = RequestRecord(
            request_id=request.request_id,
            model=self.model,
            send_time=send_time,
            completion_time=self.env.now,
            prompt_tokens=request.prompt_tokens,
            output_tokens=getattr(result, "output_tokens", 0),
            success=success,
            error=None if success else (future.record.error or "failed"),
            first_token_time=first_token if success else None,
            token_times=token_times,
        )
        self.records.append(record)
        if success:
            self._latency.observe(record.completion_time - record.send_time)
        self._completed.labels(outcome="ok" if success else "error").inc()

    # -- boundary ----------------------------------------------------------
    def collect_outbox(self) -> List[BoundaryMessage]:
        # Dispatches queued on the proxies during the window become boundary
        # messages; sorted pid order pins the same-arrival tiebreak.
        for pid in sorted(self._proxy_by_pid):
            for entry in self._proxy_by_pid[pid].drain_outbox():
                self.send(DISPATCH, pid, entry["arrival_time"], {
                    "task_id": entry["task_id"],
                    "function_id": entry["function_id"],
                    "submit_time": entry["submit_time"],
                    "submitter": entry["submitter"],
                    "payload": entry["payload"],
                })
        return super().collect_outbox()

    def _deliver_one(self, message: BoundaryMessage) -> None:
        if message.kind != RESULT:
            raise RuntimeError(f"gateway partition cannot handle {message.kind!r}")
        self.env.process(self._ingest_result(message))

    def _ingest_result(self, message: BoundaryMessage):
        yield self.env.timeout_at(message.arrival_time)
        body = message.body
        if body["stream_times"]:
            self._token_times[body["task_id"]] = body["stream_times"]
        self._proxy_by_pid[message.src].complete(body["task_id"], body["outcome"])

    def apply_snapshots(self, snapshots: List[dict]) -> None:
        for snapshot in snapshots:
            self.view.apply_partition_snapshot(snapshot)

    def done(self) -> bool:
        # One record per workload request, appended only after its future
        # resolved (its token times, if any, arrived on the same message).
        return len(self.records) >= self.num_requests

    def finalize(self) -> dict:
        return {
            "records": self.records,
            "registry": self.registry.to_dict(),
            "relay": {
                "submitted": self.relay.stats.submitted,
                "completed": self.relay.stats.completed,
                "failed": self.relay.stats.failed,
            },
        }


class ClusterPartition(Partition):
    """One facility shard: scheduler + compute endpoint + serving engines.

    Params: ``cluster_kind`` ("sophia" | "polaris" | "small"); ``num_nodes``;
    ``scheduler``; ``model``; ``max_instances``; ``max_parallel_tasks``;
    ``prewarm``; ``gateway_pid``; ``result_latency_s`` (this partition's
    outgoing lookahead — must equal ``spec.lookahead_s``).
    """

    def __init__(self, spec: PartitionSpec):
        super().__init__(spec)
        from ..cluster import (
            SchedulerConfig,
            make_scheduler,
            polaris_like,
            small_test_cluster,
            sophia_like,
        )
        from ..core import calibration
        from ..serving import default_catalog

        params = spec.params
        self.gateway_pid: int = params["gateway_pid"]
        self.result_latency_s: float = params["result_latency_s"]
        kind = params.get("cluster_kind", "small")
        num_nodes = params.get("num_nodes", 2)
        if kind == "sophia":
            cluster = sophia_like(num_nodes=num_nodes)
        elif kind == "polaris":
            cluster = polaris_like(num_nodes=num_nodes)
        else:
            cluster = small_test_cluster(name=spec.name, num_nodes=num_nodes)
        cluster.name = spec.name

        self.ids = IdGenerator()
        scheduler_kind = params.get("scheduler", "local")
        scheduler = make_scheduler(
            scheduler_kind, self.env, cluster,
            SchedulerConfig() if scheduler_kind in ("pbs", "slurm") else None,
            ids=self.ids,
        )
        self.scheduler = scheduler
        hosting = ModelHostingConfig(
            model=params["model"],
            max_instances=params.get("max_instances", 1),
            max_parallel_tasks=params.get("max_parallel_tasks", 32),
        )
        self.endpoint = ComputeEndpoint(
            self.env,
            scheduler,
            default_catalog(),
            EndpointConfig(
                endpoint_id=f"ep-{spec.name}",
                cluster=spec.name,
                models=[hosting],
                # Boundary tasks were already authenticated gateway-side;
                # the partition's dispatch message is the trust boundary.
                required_client_id=None,
            ),
            perf_config=calibration.default_perf_config(),
            engine_config=calibration.default_engine_config(False),
            api_config=calibration.default_api_server_config(),
            ids=self.ids,
        )
        functions = FunctionRegistry()
        self._function = functions.register(FUNCTION_ID, name=HANDLER_CHAT,
                                            handler=HANDLER_CHAT, owner="parallel")
        prewarm = params.get("prewarm", 1)
        if prewarm:
            self.endpoint.prewarm(params["model"], prewarm)

        self.registry = MetricsRegistry()
        self._service = self.registry.histogram(
            "parallel_cluster_service_s",
            "Dispatch-to-outcome task service time", labelnames=("cluster",))
        self._tasks = self.registry.counter(
            "parallel_cluster_tasks_total",
            "Boundary tasks executed", labelnames=("cluster",))

    # -- boundary ----------------------------------------------------------
    def _deliver_one(self, message: BoundaryMessage) -> None:
        if message.kind != DISPATCH:
            raise RuntimeError(f"cluster partition cannot handle {message.kind!r}")
        self.env.process(self._ingest_dispatch(message))

    def _ingest_dispatch(self, message: BoundaryMessage):
        yield self.env.timeout_at(message.arrival_time)
        body = message.body
        payload = dict(body["payload"])
        request = payload.get("request")
        record = TaskRecord(
            task_id=body["task_id"],
            function_id=body["function_id"],
            endpoint_id=self.endpoint.endpoint_id,
            payload=payload,
            submitter=body["submitter"],
            submit_time=body["submit_time"],
        )
        record.status = TaskStatus.DISPATCHED
        record.dispatch_time = self.env.now
        channel = None
        if request is not None and getattr(request, "stream", False):
            # Cluster-side stream channel with no live consumer: the engine
            # hands it the request's tokens as one batch, whose times ride
            # the result message back to the gateway.
            channel = StreamChannel(self.env)
            payload[STREAM_CHANNEL_KEY] = channel
        outcome = yield self.endpoint.enqueue(record, self._function)

        stream_times: Optional[List[float]] = None
        if channel is not None:
            stream_times = [time for item in channel.drain()
                            if item.kind == "tokens" for time in item.times]
            payload.pop(STREAM_CHANNEL_KEY, None)
            if request is not None:
                request.metadata.pop(STREAM_CHANNEL_KEY, None)
        result = outcome.get("result")
        metadata = getattr(result, "metadata", None)
        if isinstance(metadata, dict):
            metadata.pop(STREAM_CHANNEL_KEY, None)

        self._service.labels(cluster=self.name).observe(
            self.env.now - record.dispatch_time)
        self._tasks.labels(cluster=self.name).inc()
        self.send(RESULT, self.gateway_pid,
                  self.env.now + self.result_latency_s, {
                      "task_id": record.task_id,
                      "outcome": outcome,
                      "stream_times": stream_times,
                  })

    def snapshots(self) -> List[dict]:
        snaps = []
        for model in sorted(self.endpoint.pools):
            pool = self.endpoint.pools[model]
            snaps.append({
                "model": pool.model,
                "endpoint_id": self.endpoint.endpoint_id,
                "cluster": self.name,
                "ready_instances": len(pool.ready_instances),
                "starting_instances": sum(
                    1 for i in pool.instances
                    if i.state == InstanceState.STARTING),
                "draining_instances": len(pool.draining),
                "queued_jobs": pool.queued_job_launches,
                "waiting_tasks": pool.waiting_tasks,
                "in_flight_tasks": pool.in_flight_tasks,
                "slots_per_instance": pool.slots_per_instance,
                "max_instances": pool.replicas.max_instances,
                "cold_start_estimate_s": pool.cold_start_estimate_s,
                "computed_at": self.env.now,
            })
        return snaps

    def done(self) -> bool:
        # Cluster shards never block termination on their own: pools and
        # autoscalers tick forever, and every in-flight federated task is
        # already covered by the gateway's record count (an undelivered
        # dispatch or result is a pending boundary message; a delivered one
        # keeps the gateway short of its target).
        return True

    def finalize(self) -> dict:
        return {
            "registry": self.registry.to_dict(),
            "tasks_executed": self.endpoint.tasks_executed,
            "tasks_failed": self.endpoint.tasks_failed,
            "gpu_seconds": self.scheduler.gpu_seconds(),
        }


class PingPartition(Partition):
    """Minimal partition for the null-message progress tests.

    A token circulates a ring of ping partitions with a configurable (often
    *zero*) transfer latency.  With zero latency every window degenerates to
    an inclusive micro-window at the current instant — the worst case for a
    conservative scheme — and the run must still make one hop of progress
    per round rather than deadlock.

    Params: ``ring`` — the pids in circulation order; ``hops``;
    ``latency_s``; ``start`` — True on the partition that emits hop 0.
    """

    def __init__(self, spec: PartitionSpec):
        super().__init__(spec)
        params = spec.params
        self.ring: List[int] = list(params["ring"])
        self.hops: int = params["hops"]
        self.latency_s: float = params.get("latency_s", 0.0)
        #: ``(time, hop)`` pairs observed by this partition.
        self.log: List[tuple] = []
        if params.get("start"):
            self.env.process(self._kickoff())

    def _next_pid(self) -> int:
        return self.ring[(self.ring.index(self.pid) + 1) % len(self.ring)]

    def _kickoff(self):
        yield self.env.timeout(0.0)
        self.log.append((self.env.now, 0))
        self.send(PING, self._next_pid(), self.env.now + self.latency_s,
                  {"hop": 1})

    def _deliver_one(self, message: BoundaryMessage) -> None:
        self.env.process(self._ingest_ping(message))

    def _ingest_ping(self, message: BoundaryMessage):
        yield self.env.timeout_at(message.arrival_time)
        hop = message.body["hop"]
        self.log.append((self.env.now, hop))
        if hop < self.hops:
            self.send(PING, self._next_pid(), self.env.now + self.latency_s,
                      {"hop": hop + 1})

    def finalize(self) -> dict:
        return {"log": self.log}


PARTITION_KINDS = {
    "gateway": GatewayPartition,
    "cluster": ClusterPartition,
    "ping": PingPartition,
}


def build_partition(spec: PartitionSpec) -> Partition:
    try:
        factory = PARTITION_KINDS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown partition kind {spec.kind!r}; "
                         f"expected one of {sorted(PARTITION_KINDS)}") from None
    return factory(spec)
