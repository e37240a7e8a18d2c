"""Partition implementations: per-cluster shards of one federated deployment.

A partitioned run splits the federated topology at its relay edges:

* the **gateway partition** hosts the workload driver, the cloud relay and
  the placement plane's :class:`~repro.placement.TopologyView`; every
  remote cluster appears as a :class:`~repro.faas.RelayBoundaryProxy`, and
  the partition itself picks the proxy for each task from the clusters'
  barrier snapshots (queue-depth dispatch) before submitting to the relay;
* one **cluster partition** per facility hosts the real
  :class:`~repro.faas.ComputeEndpoint` — scheduler, model pools, serving
  engines — and executes the tasks shipped across the boundary.

Each partition owns a private :class:`~repro.sim.Environment`.  All
partitions share one simulated clock by construction: the conservative window
scheme (:mod:`repro.parallel.horizon`) only ever lets a partition run inside a
window that no in-flight message can land in, so ``env.now`` values interleave
exactly as one global event queue would have interleaved them.

Determinism notes:

* randomness is keyed, never drawn from shared streams — the gateway's
  workload seed is ``stable_seed(seed, "workload")``, a pure function of the
  scenario seed, and cluster partitions draw nothing;
* boundary messages are delivered in :func:`~repro.parallel.boundary.sort_key`
  order, so event ids assigned during delivery are reproducible;
* barrier snapshots are applied in sorted source order before delivery, so
  routing reads window-granular state in a reproducible order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..common import IdGenerator, stable_seed
from ..core.deployment import ClusterDeploymentSpec, build_cluster
from ..faas import HANDLER_CHAT, PoolSignal, RelayBoundaryProxy, RelayService
from ..faas.functions import FunctionRegistry
from ..faas.task import TaskRecord, TaskStatus
from ..metrics import RequestRecord
from ..placement import TopologyView
from ..serving import default_catalog
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
    """Description of one partition: what :func:`build_partition` builds."""

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
        self._outbox: List[BoundaryMessage] = []
        self._seq = 0

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

    def snapshots(self) -> List[PoolSignal]:
        """Pool state shipped to the gateway at each barrier."""
        return []

    def apply_snapshots(self, snapshots: List[PoolSignal]) -> None:
        pass

    def finalize(self) -> dict:
        return {}


class GatewayPartition(Partition):
    """The control-plane shard: workload driver, relay, placement view.

    The partition routes, not the relay: each task goes to the cluster
    proxy with ready instances first, then the shortest backlog — the
    snapshot's waiting plus in-flight tasks, plus the tasks sent to that
    proxy since the snapshot was taken — then cluster order, and is
    submitted to that one endpoint id.

    Params (all picklable): ``clusters`` — ``[{"pid", "name"}]`` in routing
    tie-break order; ``model``; ``num_requests``; ``arrival`` — an
    :class:`~repro.sweep.spec.ArrivalSpec`; ``stream``.
    """

    def __init__(self, spec: PartitionSpec):
        super().__init__(spec)
        from dataclasses import replace

        from ..sweep.spec import ArrivalSpec
        from ..workload import ShareGPTConfig, ShareGPTWorkload

        params = spec.params
        self.model: str = params["model"]
        self.num_requests: int = params["num_requests"]
        self.stream: bool = bool(params.get("stream", False))

        self.ids = IdGenerator()
        self.relay = RelayService(self.env, ids=self.ids)
        self.relay.functions.register(FUNCTION_ID, name=HANDLER_CHAT,
                                      handler=HANDLER_CHAT, owner="parallel")

        # Placement plane with no local members: every remote cluster's
        # signals arrive as barrier snapshots, not observer hooks.
        self.view = TopologyView(self.env)
        self._proxy_by_pid: Dict[int, RelayBoundaryProxy] = {}
        #: Per cluster, in tie-break order: its proxy and the dispatch
        #: arrival stamps of the tasks sent to it that its latest snapshot
        #: may not include yet (ascending, as tasks are sent in time order).
        self._routes: List[Tuple[RelayBoundaryProxy, Deque[float]]] = []
        for cluster in params["clusters"]:
            proxy = RelayBoundaryProxy(
                self.env, endpoint_id=f"ep-{cluster['name']}",
                cluster=cluster["name"], models=[self.model], view=self.view,
            )
            self.relay.register_endpoint(proxy)
            self._proxy_by_pid[cluster["pid"]] = proxy
            self._routes.append((proxy, deque()))

        workload = ShareGPTWorkload(
            replace(ShareGPTConfig(), seed=stable_seed(spec.seed, "workload")))
        self._requests = workload.generate(self.model,
                                           num_requests=self.num_requests)
        arrival: ArrivalSpec = params["arrival"]
        self._offsets = arrival.build().offsets(self.num_requests)

        #: Engine-side token production times of streamed tasks whose result
        #: message has arrived, until the task's record is written.
        self._token_times: Dict[str, List[float]] = {}
        self.records: List[RequestRecord] = []
        self.env.process(self._driver())

    # -- workload driver ---------------------------------------------------
    def _load(self, index: int) -> tuple:
        """Routing key of cluster ``index``: (cold, backlog, index)."""
        proxy, unseen = self._routes[index]
        signal = self.view.pool_signal(proxy.endpoint_id, self.model)
        if signal is None:
            return (1, len(unseen), index)
        # Snapshot times only grow, so a task the snapshot already includes
        # (it reached the cluster by then) never needs counting again.
        while unseen and unseen[0] <= signal.computed_at:
            unseen.popleft()
        return (0 if signal.ready_instances > 0 else 1,
                signal.waiting_tasks + signal.in_flight_tasks + len(unseen),
                index)

    def _route(self) -> RelayBoundaryProxy:
        """Pick the proxy for a task sent now and count the task against it
        until a snapshot taken after its dispatch arrival (the relay's
        stamp, summed the same way) includes it."""
        proxy, unseen = self._routes[min(range(len(self._routes)), key=self._load)]
        relay_config = self.relay.config
        unseen.append(self.env.now + relay_config.submit_latency_s
                      + relay_config.dispatch_latency_s)
        return proxy

    def _driver(self):
        for request, offset in zip(self._requests, self._offsets):
            if offset > self.env.now:
                yield self.env.timeout_at(offset)
            request.stream = self.stream
            request.arrival_time = self.env.now
            future = self.relay.submit(FUNCTION_ID, self._route().endpoint_id,
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

    def apply_snapshots(self, snapshots: List[PoolSignal]) -> None:
        for signal in snapshots:
            self.view.apply_partition_snapshot(signal)

    def done(self) -> bool:
        # One record per workload request, appended only after its future
        # resolved (its token times, if any, arrived on the same message).
        return len(self.records) >= self.num_requests

    def finalize(self) -> dict:
        return {
            "records": self.records,
            "relay": {
                "submitted": self.relay.stats.submitted,
                "completed": self.relay.stats.completed,
                "failed": self.relay.stats.failed,
            },
        }


class ClusterPartition(Partition):
    """One facility shard: scheduler + compute endpoint + serving engines.

    Params: ``gateway_pid``; ``cluster`` — the shard's
    :class:`~repro.core.ClusterDeploymentSpec`, built like any deployment's
    cluster with one instance of each hosted model prewarmed.  Results
    leave after ``spec.lookahead_s``, the relay's result wire time.
    """

    def __init__(self, spec: PartitionSpec):
        super().__init__(spec)
        params = spec.params
        self.gateway_pid: int = params["gateway_pid"]
        shard: ClusterDeploymentSpec = params["cluster"]
        self.ids = IdGenerator()
        # Boundary tasks were already authenticated gateway-side; the
        # partition's dispatch message is the trust boundary.
        _cluster, self.scheduler, self.endpoint = build_cluster(
            self.env, shard, default_catalog(), self.ids,
            generate_text=False, required_client_id=None)
        functions = FunctionRegistry()
        self._function = functions.register(FUNCTION_ID, name=HANDLER_CHAT,
                                            handler=HANDLER_CHAT, owner="parallel")
        for hosting in shard.models:
            self.endpoint.prewarm(hosting.model, 1)

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

        self.send(RESULT, self.gateway_pid,
                  self.env.now + self.spec.lookahead_s, {
                      "task_id": record.task_id,
                      "outcome": outcome,
                      "stream_times": stream_times,
                  })

    def snapshots(self) -> List[PoolSignal]:
        pools = self.endpoint.pools
        return [pools[model].signal() for model in sorted(pools)]

    def done(self) -> bool:
        # Cluster shards never block termination on their own: pools and
        # autoscalers tick forever, and every in-flight federated task is
        # already covered by the gateway's record count (an undelivered
        # dispatch or result is a pending boundary message; a delivered one
        # keeps the gateway short of its target).
        return True

    def finalize(self) -> dict:
        return {
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
