"""The cloud-hosted FaaS relay (the Globus Compute web service).

The relay is the communication layer between the Inference Gateway and the
HPC endpoints (§3.2): it validates that the invoked function is
pre-registered, that the caller is an authorised confidential client,
dispatches the task to the requested endpoint, and relays the result back.

Two timing behaviours matter for the paper's evaluation:

* fixed per-hop network latencies (submit, dispatch, result) — these add the
  constant overhead visible at low request rates in Fig. 3;
* a *routing scalability* limit on the result-forwarding path — the paper
  attributes the sub-linear auto-scaling in Fig. 4 to "the ability of Globus
  Compute to scale and route requests to the multiple instances".  The relay
  therefore serialises result forwarding through a channel whose service
  rate follows ``R(N) = R_max * N / (N + N_half)`` where ``N`` is the number
  of active model instances; the constants are fitted to Fig. 4 and the
  hop latencies to Fig. 3 (see ``repro.core.calibration.CALIBRATION_NOTES``).

The relay does not route: every task goes to the one endpoint its submitter
named, as in §3.2 — the gateway (or a partitioned run's gateway shard) has
already chosen it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..common import AuthorizationError, IdGenerator, NotFoundError, sim_logger
from ..obs.trace import TRACE_KEY
from ..sim import Environment, Resource
from .functions import FunctionRegistry
from .task import TaskFuture, TaskRecord, TaskStatus

__all__ = ["RelayConfig", "RelayStats", "RelayService", "RelayBoundaryProxy"]


@dataclass
class RelayConfig:
    """Timing and capacity parameters of the cloud relay."""

    #: Client SDK → cloud service (accept + persist) latency.
    submit_latency_s: float = 0.8
    #: Cloud service → endpoint dispatch latency (includes the endpoint's
    #: task-queue pickup).
    dispatch_latency_s: float = 2.4
    #: Endpoint → cloud → client result delivery latency.
    result_latency_s: float = 1.8
    #: Routing-scalability ceiling (tasks/s) as the instance count grows.
    routing_rate_max: float = 66.0
    #: Instance count at which the routing rate reaches half its ceiling.
    routing_half_instances: float = 7.0
    #: Maximum tasks the cloud service will hold (the paper observed >8000
    #: tasks queued without issue).
    max_queued_tasks: int = 200000


@dataclass
class RelayStats:
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    peak_queued: int = 0


class RelayBoundaryProxy:
    """Stand-in for a :class:`~repro.faas.endpoint.ComputeEndpoint` whose
    cluster runs in another partition (see :mod:`repro.parallel`).

    The proxy registers with the relay like a real endpoint and reports the
    cluster's ready instances — which the relay's R(N) routing-rate curve
    counts — from its last barrier snapshot (a
    :class:`~repro.placement.PoolSignal` held by the gateway partition's
    :class:`~repro.placement.TopologyView`).  Tasks sent to it do not
    execute here: they are appended to an outbox with a deterministic
    arrival stamp (``submit_time + submit latency + dispatch latency`` — the
    partition scheme's conservative lookahead) and shipped across the
    barrier; :meth:`complete` resolves the held outcome event when the
    result message returns.
    """

    is_boundary_proxy = True

    def __init__(self, env: Environment, endpoint_id: str, cluster: str,
                 models: Sequence[str], view=None):
        self.env = env
        self.endpoint_id = endpoint_id
        self.cluster_name = cluster
        self.models = list(models)
        #: The gateway partition's :class:`~repro.placement.TopologyView`,
        #: where remote snapshots land (``apply_partition_snapshot``).
        self.view = view
        #: ``task_id -> outcome event`` for tasks shipped across the
        #: boundary and not yet completed.
        self._open: Dict[str, Any] = {}
        #: Outbox drained by the owning partition at each window barrier.
        self.outbox: List[dict] = []
        self._seq = 0

    def ready_instance_count(self) -> int:
        if self.view is None:
            return 0
        signals = (self.view.pool_signal(self.endpoint_id, m) for m in self.models)
        return sum(s.ready_instances for s in signals if s is not None)

    # -- boundary mechanics --------------------------------------------------
    def enqueue_boundary(self, record: TaskRecord, function,
                         arrival_time: float):
        """Ship ``record`` across the partition boundary; returns the outcome
        event resolved by :meth:`complete` when the result message returns."""
        outcome = self.env.event()
        self._open[record.task_id] = outcome
        self.outbox.append({
            "task_id": record.task_id,
            "function_id": record.function_id,
            "endpoint_id": self.endpoint_id,
            "arrival_time": arrival_time,
            "submit_time": record.submit_time,
            "submitter": record.submitter,
            "seq": self._seq,
            "payload": record.payload,
        })
        self._seq += 1
        return outcome

    def drain_outbox(self) -> List[dict]:
        out, self.outbox = self.outbox, []
        return out

    def complete(self, task_id: str, outcome: Dict[str, Any]) -> None:
        """Resolve a boundary task with the outcome carried by a result
        message (called by the owning partition at the stamped arrival)."""
        self._open.pop(task_id).succeed(outcome)


class RelayService:
    """Cloud relay connecting clients (the gateway) to compute endpoints."""

    def __init__(
        self,
        env: Environment,
        config: Optional[RelayConfig] = None,
        ids: Optional[IdGenerator] = None,
        authorized_client_ids: Optional[List[str]] = None,
    ):
        self.env = env
        self.config = config or RelayConfig()
        self.functions = FunctionRegistry()
        self.stats = RelayStats()
        self._ids = ids or IdGenerator()
        self._endpoints: Dict[str, Any] = {}
        self._tasks: Dict[str, TaskRecord] = {}
        self._result_channel = Resource(env, capacity=1)
        #: Confidential client ids allowed to submit (None = open, used in tests).
        self.authorized_client_ids = set(authorized_client_ids or [])
        self._log = sim_logger("repro.faas.relay", env)

    # -- registration -----------------------------------------------------------
    def register_endpoint(self, endpoint) -> None:
        """Attach a :class:`~repro.faas.endpoint.ComputeEndpoint` to the relay."""
        if endpoint.endpoint_id in self._endpoints:
            raise ValueError(f"Endpoint {endpoint.endpoint_id} already registered")
        self._endpoints[endpoint.endpoint_id] = endpoint

    def get_endpoint(self, endpoint_id: str):
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise NotFoundError(f"Unknown endpoint id: {endpoint_id}") from None

    @property
    def endpoint_ids(self) -> List[str]:
        return sorted(self._endpoints)

    def authorize_client(self, client_id: str) -> None:
        self.authorized_client_ids.add(client_id)

    # -- routing scalability ---------------------------------------------------------
    def active_instance_count(self) -> int:
        """Number of ready model instances across all registered endpoints."""
        return sum(ep.ready_instance_count() for ep in self._endpoints.values())

    def result_service_time_s(self) -> float:
        """Per-result forwarding time on the shared routing channel."""
        n = max(1, self.active_instance_count())
        cfg = self.config
        rate = cfg.routing_rate_max * n / (n + cfg.routing_half_instances)
        return 1.0 / rate

    # -- task submission --------------------------------------------------------------
    @property
    def queued_tasks(self) -> int:
        """Tasks accepted by the cloud service that have not yet completed
        (a ledger read: submissions must not cost more as history grows)."""
        stats = self.stats
        return stats.submitted - stats.completed - stats.failed

    @staticmethod
    def _payload_trace(payload: Dict[str, Any]):
        """TraceContext riding the payload's request, when tracing is on."""
        metadata = getattr(payload.get("request"), "metadata", None)
        return metadata.get(TRACE_KEY) if metadata else None

    def submit(
        self,
        function_id: str,
        endpoint_id: str,
        payload: Dict[str, Any],
        submitter: str = "",
        client_id: Optional[str] = None,
    ) -> TaskFuture:
        """Submit a task for the endpoint ``endpoint_id`` names; returns a
        :class:`TaskFuture` immediately.  The relay dispatches it there
        (§3.2) — choosing the endpoint is the submitter's job."""
        if self.authorized_client_ids and client_id not in self.authorized_client_ids:
            self.stats.rejected += 1
            self._log.warning("relay rejected submission: unauthorised client",
                              client_id=client_id, submitter=submitter)
            raise AuthorizationError(
                "Caller is not an authorised confidential client of the relay"
            )
        function = self.functions.require_registered(function_id)
        endpoint = self.get_endpoint(endpoint_id)
        queued = self.queued_tasks
        if queued >= self.config.max_queued_tasks:
            self.stats.rejected += 1
            self._log.warning("relay rejected submission: task queue full",
                              queued=queued,
                              limit=self.config.max_queued_tasks)
            raise RuntimeError("Relay task queue is full")

        record = TaskRecord(
            task_id=self._ids.next("task"),
            function_id=function_id,
            endpoint_id=endpoint.endpoint_id,
            payload=payload,
            submitter=submitter,
            submit_time=self.env.now,
        )
        future = TaskFuture(self.env, record)
        self._tasks[record.task_id] = record
        self.stats.submitted += 1
        self.stats.peak_queued = max(self.stats.peak_queued, queued + 1)
        # Anchor the relay's spans under the caller's active span (the
        # gateway's dispatch stage) — captured here, synchronously, while
        # the caller is still the running process.
        trace = self._payload_trace(payload)
        anchor = trace.current if trace is not None else None
        self.env.process(self._process_task(record, future, function, endpoint,
                                            trace=trace, anchor=anchor))
        return future

    def _process_task(self, record: TaskRecord, future: TaskFuture, function,
                      endpoint, trace=None, anchor=None):
        if getattr(endpoint, "is_boundary_proxy", False):
            yield from self._process_boundary_task(record, future, function,
                                                   endpoint)
            return
        cfg = self.config
        span = None
        if trace is not None:
            span = trace.start_span("relay.transfer", parent=anchor,
                                    layer="relay",
                                    attrs={"task_id": record.task_id,
                                           "endpoint": record.endpoint_id})
        yield self.env.timeout(cfg.submit_latency_s)
        yield self.env.timeout(cfg.dispatch_latency_s)
        record.status = TaskStatus.DISPATCHED
        record.dispatch_time = self.env.now

        outcome_event = endpoint.enqueue(record, function)
        if span is not None:
            trace.end_span(span)
        outcome = yield outcome_event

        # Result forwarding through the shared routing channel.
        result_span = None
        if trace is not None:
            result_span = trace.start_span("relay.result", parent=anchor,
                                           layer="relay",
                                           attrs={"task_id": record.task_id})
        with self._result_channel.request() as req:
            yield req
            yield self.env.timeout(self.result_service_time_s())
        yield self.env.timeout(cfg.result_latency_s)

        self._finish(record, future, outcome, "task failed at endpoint",
                     trace=trace, result_span=result_span)

    def _process_boundary_task(self, record: TaskRecord, future: TaskFuture,
                               function, endpoint: RelayBoundaryProxy):
        """Relay path for tasks whose endpoint lives in another partition.

        The submit+dispatch wire time spends no simulated time here: it
        rides the boundary message's arrival stamp (that sum is exactly the
        gateway partition's conservative lookahead, so the stamp can never
        land inside the window that produced it).  The returning result
        likewise already paid ``result_latency_s`` as its message transfer;
        only the shared routing channel — the paper's R(N) scalability
        limit, which is cloud-side state — is still modeled here.
        """
        cfg = self.config
        arrival = record.submit_time + cfg.submit_latency_s + cfg.dispatch_latency_s
        record.status = TaskStatus.DISPATCHED
        record.dispatch_time = arrival
        outcome = yield endpoint.enqueue_boundary(record, function, arrival)

        with self._result_channel.request() as req:
            yield req
            yield self.env.timeout(self.result_service_time_s())

        self._finish(record, future, outcome, "task failed at remote partition")

    def _finish(self, record: TaskRecord, future: TaskFuture,
                outcome: Dict[str, Any], failure_message: str,
                trace=None, result_span=None) -> None:
        """Complete ``record`` with ``outcome`` and settle its future.

        The only place a task turns terminal, hence the only place
        :attr:`queued_tasks` drops.
        """
        record.completion_time = self.env.now
        success = bool(outcome.get("success", False))
        if result_span is not None:
            result_span.attrs["success"] = success
            if not success:
                result_span.status = "error"
            trace.end_span(result_span)
        if success:
            record.status = TaskStatus.COMPLETED
            record.result = outcome.get("result")
            self.stats.completed += 1
            future.resolve(record.result)
        else:
            record.status = TaskStatus.FAILED
            record.error = outcome.get("error", "unknown error")
            self.stats.failed += 1
            self._log.warning(failure_message, task_id=record.task_id,
                              endpoint=record.endpoint_id, error=record.error)
            future.reject(record.error)

    # -- status / results (the polling path of Optimization 1) -------------------------
    def get_task(self, task_id: str) -> TaskRecord:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise NotFoundError(f"Unknown task id: {task_id}") from None

    def get_status(self, task_id: str) -> TaskStatus:
        return self.get_task(task_id).status

    def get_result(self, task_id: str) -> Any:
        record = self.get_task(task_id)
        if not record.status.terminal:
            raise RuntimeError(f"Task {task_id} has not completed yet")
        if record.status != TaskStatus.COMPLETED:
            raise RuntimeError(f"Task {task_id} failed: {record.error}")
        return record.result
