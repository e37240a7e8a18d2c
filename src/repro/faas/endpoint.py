"""Compute endpoints deployed on HPC clusters.

An endpoint is the piece FIRST administrators deploy inside each facility
(§3.2.1): it receives tasks from the cloud relay, acquires compute nodes
through the local batch scheduler, launches model-serving instances on
them, and executes the pre-registered inference functions.  The endpoint
implements the configuration features of §3.2.2:

* **Auto-scaling** — additional instances (scheduler jobs) are launched when
  the existing ones are saturated, up to ``max_instances``.
* **Hot-node management** — instances stay resident after finishing work and
  are only released after ``hot_idle_timeout_s`` (2 hours by default).
* **Fault tolerance** — a process-management monitor restarts failed
  instances.
* **Resource utilisation** — several models can be co-located on one node as
  long as GPUs are free.
* **Security** — only functions pre-registered by administrators (and passed
  down by the relay) are executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..autoscale import AutoscaleConfig, AutoscaleController, ReplicaPool, make_policy
from ..cluster import JobRequest, SchedulerBase
from ..common import ConfigurationError, IdGenerator, NotFoundError, sim_logger
from ..obs.trace import TRACE_KEY
from ..serving import (
    APIServerConfig,
    EmbeddingServingInstance,
    EngineConfig,
    InferenceRequest,
    InstanceState,
    ModelCatalog,
    OfflineBatchRunner,
    PerfModelConfig,
    PerformanceModel,
    STREAM_CHANNEL_KEY,
    ServingInstance,
)
from ..sim import Environment, Event, Resource
from .functions import HANDLER_BATCH, HANDLER_CHAT, HANDLER_EMBEDDING, RegisteredFunction
from .task import TaskRecord

__all__ = ["ModelHostingConfig", "EndpointConfig", "PoolSignal", "ComputeEndpoint"]


@dataclass
class ModelHostingConfig:
    """How one model is hosted on an endpoint."""

    model: str
    backend: str = "vllm"
    tensor_parallel: Optional[int] = None
    nodes_per_instance: int = 1
    #: Maximum number of instances (scheduler jobs) auto-scaling may launch.
    max_instances: int = 1
    #: Maximum concurrent inference tasks per instance (bounds the number of
    #: open connections against the instance's API server).
    max_parallel_tasks: int = 96
    #: Idle time after which a hot instance is released (2 h in the paper).
    hot_idle_timeout_s: float = 2 * 3600.0
    #: Scheduler walltime requested for each instance job.
    walltime_s: float = 12 * 3600.0
    #: Queue depth (waiting tasks) per ready instance that triggers scale-up.
    scale_up_queue_per_instance: int = 8
    #: Autoscaling control-plane configuration.  ``None`` keeps the legacy
    #: demand-driven queue-depth behaviour (reactive scale-up only, no
    #: periodic controller, scale-down via the hot-idle reaper).
    autoscale: Optional[AutoscaleConfig] = None


@dataclass
class EndpointConfig:
    """Endpoint-level configuration."""

    endpoint_id: str
    cluster: str
    models: List[ModelHostingConfig] = field(default_factory=list)
    #: Interval at which the endpoint polls for new tasks / runs its monitors.
    poll_interval_s: float = 1.0
    #: Interval of the idle/health monitor loop.
    monitor_interval_s: float = 30.0
    #: Confidential client id this endpoint trusts (None = accept relay tasks).
    required_client_id: Optional[str] = None

    def hosting_for(self, model: str) -> ModelHostingConfig:
        for cfg in self.models:
            if cfg.model == model:
                return cfg
        raise NotFoundError(f"Model {model} is not hosted on endpoint {self.endpoint_id}")

    def hosts(self, model: str) -> bool:
        return any(cfg.model == model for cfg in self.models)


@dataclass
class PoolSignal:
    """One (model, endpoint, cluster) pool's state at one instant.

    Built only by :meth:`_ModelPool.signal`; the gateway's ``/jobs`` rows,
    the placement view, partition barrier snapshots and the autoscale
    control plane all read it.
    """

    model: str
    endpoint_id: str
    cluster: str
    ready_instances: int
    starting_instances: int
    draining_instances: int
    queued_jobs: int
    waiting_tasks: int
    in_flight_tasks: int
    slots_per_instance: int
    max_instances: int
    cold_start_estimate_s: float
    #: Instance objects created (ready, loading and draining).
    created_instances: int
    #: Launches not yet ready (scheduler job queued or starting, or the
    #: model still loading on an instance that already exists).
    open_launches: int
    #: Task arrival / completion rates since the previous controller tick;
    #: filled in by ``ReplicaPool.tick`` on the signal its policy decides
    #: on (None everywhere else).
    arrival_rate_rps: Optional[float] = None
    completion_rate_rps: Optional[float] = None
    #: Gateway-observed rolling medians, filled in by the placement view
    #: (None until traffic produced them).
    latency_p50_s: Optional[float] = None
    ttft_p50_s: Optional[float] = None
    #: Simulation time this snapshot was computed.
    computed_at: float = 0.0

    @property
    def state(self) -> str:
        """Aggregate state: running / draining / starting / queued / cold."""
        if self.ready_instances > 0:
            return "running"
        if self.draining_instances > 0:
            return "draining"
        if self.starting_instances > 0:
            return "starting"
        if self.queued_jobs > 0:
            return "queued"
        return "cold"

    @property
    def active(self) -> bool:
        """The paper's rule-1 predicate: running, starting or queued."""
        return self.state in ("running", "starting", "queued")

    @property
    def ready_slots(self) -> int:
        return self.ready_instances * self.slots_per_instance

    @property
    def provisionable_slots(self) -> int:
        """Slot capacity the pool could reach at its instance ceiling."""
        return self.max_instances * self.slots_per_instance

    @property
    def busy_fraction(self) -> float:
        """Demand over ready slot capacity (> 1 when work queues)."""
        demand = self.in_flight_tasks + self.waiting_tasks
        if self.ready_slots <= 0:
            return 0.0 if demand == 0 else float("inf")
        return demand / self.ready_slots

    @property
    def queue_per_ready(self) -> float:
        if self.ready_instances <= 0:
            return float("inf") if self.waiting_tasks else 0.0
        return self.waiting_tasks / self.ready_instances

    @property
    def total_instances(self) -> int:
        """Instances the actuator counts against its ceiling (draining
        excluded).

        Legacy accounting, kept deliberately: a loading instance counts both
        as an instance object and as an open launch, which stops the
        queue-depth heuristic from piling on launches while it loads.
        """
        return self.ready_instances + max(
            0, self.created_instances + self.open_launches
            - self.draining_instances - self.ready_instances)

    @property
    def provisioned_instances(self) -> int:
        """Deduplicated non-draining count: created instances plus launches
        that have no instance object yet.  Policies computing *absolute*
        replica targets compare against this."""
        return (self.created_instances
                + max(0, self.open_launches - self.starting_instances)
                - self.draining_instances)


#: Cold-start guess used by the control plane before the pool has measured
#: one (submit-to-ready: scheduler queue + prologue + model load).
DEFAULT_COLD_START_ESTIMATE_S = 120.0


class _ModelPool:
    """Per-model instance pool with hot-idle and health monitoring.

    Scale decisions (up *and* down) are delegated to the autoscale control
    plane: the pool implements the ``ReplicaPool`` backend protocol
    (``model``, ``signal()``, ``arrivals_total`` / ``completions_total``,
    ``launch_one`` / ``start_drain_one``) and never decides capacity itself.
    """

    def __init__(self, endpoint: "ComputeEndpoint", hosting: ModelHostingConfig):
        self.endpoint = endpoint
        self.env = endpoint.env
        self.hosting = hosting
        self.spec = endpoint.catalog.get(hosting.model)
        self.instances: List = []
        self.slots: Dict[str, Resource] = {}
        self.jobs: Dict[str, object] = {}  # instance_id -> JobHandle
        self.launching = 0
        self.queued_job_launches = 0
        self.waiting_tasks = 0
        self.restarts = 0
        self.draining: Set[str] = set()
        self.drained = 0
        self.arrivals_total = 0
        self.completions_total = 0
        self._cold_start_observed: Optional[float] = None
        self._ready_signal: Event = self.env.event()
        self._log = sim_logger("repro.faas.endpoint", self.env)
        #: Placement-plane observers notified (with the pool) whenever the
        #: pool's observable state changes; see ``TopologyView``.
        self._observers: List = []

        autoscale = hosting.autoscale
        policy = make_policy(
            autoscale or AutoscaleConfig(policy="queue_depth", scale_down=False),
            queue_per_instance=hosting.scale_up_queue_per_instance,
        )
        self.replicas = ReplicaPool(
            self.env,
            policy,
            backend=self,
            min_instances=autoscale.min_instances if autoscale else 0,
            max_instances=(
                autoscale.max_instances
                if autoscale and autoscale.max_instances is not None
                else hosting.max_instances
            ),
        )
        if autoscale is not None:
            endpoint.autoscaler.add(self.replicas, autoscale.interval_s)
        self.env.process(self._monitor())

    # -- placement-plane observation ----------------------------------------------
    def add_observer(self, callback) -> None:
        """Subscribe ``callback(pool)`` to state-change notifications."""
        if callback not in self._observers:
            self._observers.append(callback)

    def remove_observer(self, callback) -> None:
        if callback in self._observers:
            self._observers.remove(callback)

    def _touch(self) -> None:
        """Notify observers that the pool's observable state changed."""
        for callback in self._observers:
            callback(self)

    # -- queries ---------------------------------------------------------------
    @property
    def ready_instances(self) -> List:
        return [i for i in self.instances if i.is_ready]

    def capacity(self) -> int:
        return len(self.ready_instances) * self.hosting.max_parallel_tasks

    def signal(self) -> PoolSignal:
        """The pool's state now, without gateway medians."""
        cold_start = self._cold_start_observed
        return PoolSignal(
            model=self.hosting.model,
            endpoint_id=self.endpoint.endpoint_id,
            cluster=self.endpoint.config.cluster,
            ready_instances=len(self.ready_instances),
            starting_instances=sum(
                1 for i in self.instances if i.state == InstanceState.STARTING
            ),
            draining_instances=len(self.draining),
            queued_jobs=self.queued_job_launches,
            waiting_tasks=self.waiting_tasks,
            in_flight_tasks=sum(slot.count for slot in self.slots.values()),
            slots_per_instance=self.hosting.max_parallel_tasks,
            max_instances=self.replicas.max_instances,
            cold_start_estimate_s=(
                DEFAULT_COLD_START_ESTIMATE_S if cold_start is None else cold_start
            ),
            created_instances=len(self.instances),
            open_launches=self.launching,
            computed_at=self.env.now,
        )

    @property
    def model(self) -> str:
        return self.hosting.model

    # -- scaling -----------------------------------------------------------------
    def ensure_capacity(self) -> None:
        """Demand-driven control-plane check (a task is waiting)."""
        self.replicas.reactive()

    def launch_one(self) -> Event:
        """ReplicaPool backend: launch one instance."""
        return self._launch()

    def _instance_load(self, instance) -> int:
        """Held + queued slots: the load metric shared by admission placement
        and drain-victim selection."""
        slot_res = self.slots[instance.instance_id]
        return slot_res.count + slot_res.queued

    def start_drain_one(self) -> bool:
        """ReplicaPool backend: drain-before-terminate one ready instance.

        Picks the least-loaded ready instance, stops routing new work to it
        and retires it (instance stop + scheduler job release) once every
        in-flight request has finished.
        """
        candidates = self.ready_instances
        if not candidates:
            return False
        instance = min(candidates, key=self._instance_load)
        if not instance.drain():
            return False
        self.draining.add(instance.instance_id)
        self._touch()
        self.env.process(self._drain_proc(instance))
        return True

    def _drain_proc(self, instance):
        poll = max(self.endpoint.config.poll_interval_s, 0.5)
        while instance in self.instances:
            slot = self.slots.get(instance.instance_id)
            busy = instance.in_flight > 0 or (slot is not None and slot.count > 0)
            if not busy:
                break
            yield self.env.timeout(poll)
        self.draining.discard(instance.instance_id)
        self._touch()
        if instance in self.instances:
            self.drained += 1
            self._retire(instance, drained=True)

    def prewarm(self, count: int = 1) -> List[Event]:
        """Explicitly launch until ``count`` instances are provisioned (ignores
        demand); a loading instance counts once, a draining one not at all."""
        events = []
        while self.signal().provisioned_instances < min(count, self.hosting.max_instances):
            events.append(self._launch())
        return events

    def _launch(self) -> Event:
        """Submit a scheduler job and bring up an instance on its nodes."""
        done = self.env.event()
        self.launching += 1
        self.queued_job_launches += 1
        self._touch()
        self.env.process(self._launch_proc(done))
        return done

    def _launch_proc(self, done: Event):
        hosting = self.hosting
        submit_time = self.env.now
        request = JobRequest(
            name=f"serve-{self.spec.name.split('/')[-1]}",
            num_nodes=hosting.nodes_per_instance,
            gpus_per_node=self.endpoint.scheduler.cluster.nodes[0].spec.gpus_per_node,
            walltime_s=hosting.walltime_s,
            metadata={"model": self.spec.name, "endpoint": self.endpoint.endpoint_id},
        )
        handle = self.endpoint.scheduler.submit(request)
        try:
            nodes = yield handle.started
        except RuntimeError as exc:
            self.launching -= 1
            self.queued_job_launches -= 1
            self._touch()
            self._log.warning("instance launch failed: scheduler job never started",
                              model=self.spec.name, error=str(exc))
            if not done.triggered:
                done.fail(exc)
                done.defuse()
            return
        self.queued_job_launches -= 1
        instance = self.endpoint.create_instance(self.spec, hosting, nodes)
        self.jobs[instance.instance_id] = handle
        self.instances.append(instance)
        self._touch()
        try:
            yield instance.ready
        except RuntimeError as exc:
            self.launching -= 1
            self.instances.remove(instance)
            self.endpoint.scheduler.release(handle.job.job_id)
            self._touch()
            self._log.warning("instance launch failed: server never became ready",
                              model=self.spec.name,
                              instance=instance.instance_id, error=str(exc))
            if not done.triggered:
                done.fail(exc)
                done.defuse()
            return
        self.launching -= 1
        # Feed the control plane's cold-start estimate (submit → ready), the
        # horizon the predictive policy pre-warms ahead by.
        self._cold_start_observed = self.env.now - submit_time
        self.slots[instance.instance_id] = Resource(
            self.env, capacity=hosting.max_parallel_tasks
        )
        self._signal_ready()
        self._touch()
        self.env.process(self._watch_job(instance, handle))
        if not done.triggered:
            done.succeed(instance)

    def _watch_job(self, instance, handle):
        """Mark the instance failed if its scheduler job ends underneath it
        (walltime expiry, node failure); the health monitor then relaunches."""
        yield handle.finished
        if instance.state == InstanceState.RUNNING:
            instance.fail("scheduler job ended (walltime or node failure)")
            self._touch()

    def _signal_ready(self) -> None:
        if not self._ready_signal.triggered:
            self._ready_signal.succeed()
        self._ready_signal = self.env.event()

    # -- task slot acquisition -----------------------------------------------------
    def acquire(self):
        """Simulation process: wait for a ready instance slot.

        Returns ``(instance, slot_request)``; the caller must call
        :meth:`release` when done.
        """
        self.waiting_tasks += 1
        self.arrivals_total += 1
        self._touch()
        try:
            self.ensure_capacity()
            while True:
                ready = self.ready_instances
                if ready:
                    # Least-loaded ready instance.  Load is measured from the
                    # slot resource (held + queued), which updates synchronously
                    # at request time, so a burst of arrivals spreads across
                    # instances instead of piling onto the first one.
                    instance = min(ready, key=self._instance_load)
                    slot = self.slots[instance.instance_id]
                    request = slot.request()
                    yield request
                    if instance.is_ready:
                        return instance, request
                    # Instance died while we waited for the slot; retry.
                    slot.release(request)
                else:
                    signal = self._ready_signal
                    yield signal
        finally:
            self.waiting_tasks -= 1
            self._touch()

    def release(self, instance, slot_request) -> None:
        self.completions_total += 1
        slot = self.slots.get(instance.instance_id)
        if slot is not None:
            slot.release(slot_request)
        self._touch()

    # -- monitors ----------------------------------------------------------------------
    def _monitor(self):
        """Hot-idle release and fault-tolerance restart loop."""
        interval = self.endpoint.config.monitor_interval_s
        while True:
            yield self.env.timeout(interval)
            self._reap_idle()
            self._restart_failed()
            # Re-evaluate auto-scaling for tasks that queued up after their
            # initial admission check (sustained saturation).
            if self.waiting_tasks > 0:
                self.ensure_capacity()

    def _reap_idle(self) -> None:
        for instance in list(self.ready_instances):
            if (
                instance.in_flight == 0
                and instance.idle_for_s >= self.hosting.hot_idle_timeout_s
            ):
                self._retire(instance)

    def _restart_failed(self) -> None:
        for instance in list(self.instances):
            if instance.state == InstanceState.FAILED:
                was_draining = instance.instance_id in self.draining
                self.draining.discard(instance.instance_id)
                self._retire(instance, failed=True)
                if was_draining:
                    # The autoscaler was retiring it anyway; don't relaunch.
                    continue
                self.restarts += 1
                self._log.warning("restarting failed instance",
                                  model=self.spec.name,
                                  instance=instance.instance_id,
                                  restarts=self.restarts)
                # Process-management scripts restart failed servers (§3.2.2).
                self._launch()

    def _retire(self, instance, failed: bool = False, drained: bool = False) -> None:
        if instance in self.instances:
            self.instances.remove(instance)
        self.slots.pop(instance.instance_id, None)
        handle = self.jobs.pop(instance.instance_id, None)
        if not failed:
            instance.stop()
        if handle is not None and not handle.job.state.terminal:
            if drained:
                self.endpoint.scheduler.release_drained(handle.job.job_id)
            else:
                self.endpoint.scheduler.release(handle.job.job_id)
        self._touch()

    def shutdown(self) -> None:
        self.draining.clear()
        for instance in list(self.instances):
            self._retire(instance)


class ComputeEndpoint:
    """A Globus-Compute-like endpoint bound to one cluster/scheduler."""

    def __init__(
        self,
        env: Environment,
        scheduler: SchedulerBase,
        catalog: ModelCatalog,
        config: EndpointConfig,
        perf_config: Optional[PerfModelConfig] = None,
        engine_config: Optional[EngineConfig] = None,
        api_config: Optional[APIServerConfig] = None,
        ids: Optional[IdGenerator] = None,
    ):
        if scheduler.cluster.name != config.cluster:
            raise ConfigurationError(
                f"Endpoint {config.endpoint_id} is configured for cluster "
                f"{config.cluster!r} but was given a scheduler for "
                f"{scheduler.cluster.name!r}"
            )
        self.env = env
        self.scheduler = scheduler
        self.catalog = catalog
        self.config = config
        self.perf_config = perf_config or PerfModelConfig()
        self.engine_config = engine_config or EngineConfig()
        self.api_config = api_config or APIServerConfig()
        self._ids = ids or IdGenerator()
        #: Control plane driving every pool with an ``AutoscaleConfig``;
        #: legacy pools stay demand-driven and never register with it.
        self.autoscaler = AutoscaleController(env)
        self.pools: Dict[str, _ModelPool] = {
            hosting.model: _ModelPool(self, hosting) for hosting in config.models
        }
        self._log = sim_logger("repro.faas.endpoint", env)
        # counters
        self.tasks_executed = 0
        self.tasks_failed = 0
        self.tasks_rejected = 0

    # -- identity ---------------------------------------------------------------------
    @property
    def endpoint_id(self) -> str:
        return self.config.endpoint_id

    @property
    def cluster_name(self) -> str:
        return self.config.cluster

    def ready_instance_count(self) -> int:
        return sum(len(p.ready_instances) for p in self.pools.values())

    # -- instance creation (used by pools) -----------------------------------------------
    def create_instance(self, spec, hosting: ModelHostingConfig, nodes):
        instance_id = self._ids.next(f"{self.endpoint_id}-{spec.name.split('/')[-1]}")
        if spec.is_embedding or hosting.backend == "infinity":
            return EmbeddingServingInstance(
                self.env,
                spec,
                nodes,
                tensor_parallel=hosting.tensor_parallel,
                backend=hosting.backend,
                instance_id=instance_id,
                cluster=self.cluster_name,
            )
        return ServingInstance(
            self.env,
            spec,
            nodes,
            tensor_parallel=hosting.tensor_parallel,
            backend=hosting.backend,
            perf_config=self.perf_config,
            engine_config=self.engine_config,
            api_config=self.api_config,
            instance_id=instance_id,
            cluster=self.cluster_name,
        )

    # -- warm-up and status ---------------------------------------------------------------
    def prewarm(self, model: str, instances: int = 1) -> List[Event]:
        """Launch ``instances`` instances of ``model`` ahead of demand."""
        return self._pool(model).prewarm(instances)

    def model_status(self, model: Optional[str] = None) -> List[PoolSignal]:
        """Fresh signals of hosted models (backs the gateway's ``/jobs``)."""
        pools = [self._pool(model)] if model else list(self.pools.values())
        return [p.signal() for p in pools]

    def hosts_model(self, model: str) -> bool:
        return self.config.hosts(model)

    def _pool(self, model: str) -> _ModelPool:
        if model in self.pools:
            return self.pools[model]
        # Allow alias lookup through the catalog.
        try:
            spec = self.catalog.get(model)
        except KeyError:
            raise NotFoundError(
                f"Model {model} is not hosted on endpoint {self.endpoint_id}"
            ) from None
        for pool in self.pools.values():
            if pool.spec.name == spec.name:
                return pool
        raise NotFoundError(
            f"Model {model} is not hosted on endpoint {self.endpoint_id}"
        )

    # -- task execution --------------------------------------------------------------------
    def enqueue(self, record: TaskRecord, function: RegisteredFunction) -> Event:
        """Accept a dispatched task; returns an event with the execution outcome."""
        outcome = self.env.event()
        self.env.process(self._execute(record, function, outcome))
        return outcome

    @staticmethod
    def _trace_of(record: TaskRecord):
        """TraceContext riding the task's request metadata, if tracing is on."""
        metadata = getattr(record.payload.get("request"), "metadata", None)
        return metadata.get(TRACE_KEY) if metadata else None

    def _execute(self, record: TaskRecord, function: RegisteredFunction, outcome: Event):
        from .task import TaskStatus

        cfg = self.config
        trace = self._trace_of(record)
        # `current` is still the gateway's suspended dispatch span while the
        # task executes; anchor the endpoint subtree under it.
        anchor = trace.current if trace is not None else None
        span = None
        if trace is not None:
            span = trace.start_span("endpoint.execute", parent=anchor,
                                    layer="endpoint",
                                    attrs={"endpoint": self.endpoint_id,
                                           "task_id": record.task_id,
                                           "handler": function.handler})
        # Task pickup on the endpoint's polling loop.
        if cfg.poll_interval_s > 0:
            yield self.env.timeout(cfg.poll_interval_s)

        if cfg.required_client_id is not None and record.payload.get("client_id") not in (
            cfg.required_client_id,
        ):
            self.tasks_rejected += 1
            self._log.warning("task rejected: untrusted client",
                              task_id=record.task_id, endpoint=self.endpoint_id)
            if span is not None:
                span.status = "error:rejected"
                trace.end_span(span)
            outcome.succeed({"success": False,
                             "error": "task not submitted by the trusted confidential client"})
            return

        record.status = TaskStatus.RUNNING
        record.start_time = self.env.now
        try:
            if function.handler == HANDLER_CHAT:
                result = yield from self._run_chat(record, trace=trace, span=span)
            elif function.handler == HANDLER_EMBEDDING:
                result = yield from self._run_embedding(record, trace=trace, span=span)
            elif function.handler == HANDLER_BATCH:
                result = yield from self._run_batch(record)
            else:
                raise ConfigurationError(f"Unknown handler {function.handler!r}")
        except Exception as exc:  # noqa: BLE001 - report execution failures upstream
            self.tasks_failed += 1
            self._log.warning("task execution failed", task_id=record.task_id,
                              endpoint=self.endpoint_id,
                              error=f"{type(exc).__name__}: {exc}")
            if span is not None:
                span.status = f"error:{type(exc).__name__}"
                trace.end_span(span)
            outcome.succeed({"success": False, "error": f"{type(exc).__name__}: {exc}"})
            return
        self.tasks_executed += 1
        if span is not None:
            trace.end_span(span)
        outcome.succeed({"success": True, "result": result})

    def _request_from_payload(self, record: TaskRecord) -> InferenceRequest:
        request = record.payload.get("request")
        if not isinstance(request, InferenceRequest):
            raise ConfigurationError("Task payload does not contain an InferenceRequest")
        return request

    def _run_chat(self, record: TaskRecord, trace=None, span=None):
        request = self._request_from_payload(record)
        channel = record.payload.get(STREAM_CHANNEL_KEY)
        if channel is not None and request.stream:
            request.metadata[STREAM_CHANNEL_KEY] = channel
        pool = self._pool(request.model)
        wait_span = None
        if trace is not None:
            wait_span = trace.start_span("endpoint.queue_wait", parent=span,
                                         layer="endpoint",
                                         attrs={"model": request.model})
        instance, slot = yield from pool.acquire()
        if wait_span is not None:
            wait_span.attrs["instance"] = instance.instance_id
            trace.end_span(wait_span)
        try:
            result = yield instance.submit(request)
        finally:
            pool.release(instance, slot)
            # The engine is done with the stream channel: neither the caller's
            # request nor the relay's task record keeps it alive.
            record.payload.pop(STREAM_CHANNEL_KEY, None)
            request.metadata.pop(STREAM_CHANNEL_KEY, None)
        return result

    def _run_embedding(self, record: TaskRecord, trace=None, span=None):
        # Embedding requests follow the same pool mechanics.
        return (yield from self._run_chat(record, trace=trace, span=span))

    def _run_batch(self, record: TaskRecord):
        """Run a batch job: a dedicated scheduler job + offline engine (§4.4)."""
        payload = record.payload
        requests = payload.get("requests", [])
        model_name = payload.get("model")
        if not requests or model_name is None:
            raise ConfigurationError("Batch payload requires 'model' and 'requests'")
        spec = self.catalog.get(model_name)
        hosting = self._pool(model_name).hosting

        job_request = JobRequest(
            name=f"batch-{spec.name.split('/')[-1]}",
            num_nodes=hosting.nodes_per_instance,
            gpus_per_node=self.scheduler.cluster.nodes[0].spec.gpus_per_node,
            walltime_s=hosting.walltime_s,
            metadata={"model": spec.name, "kind": "batch"},
        )
        handle = self.scheduler.submit(job_request)
        nodes = yield handle.started
        try:
            tp = hosting.tensor_parallel or spec.default_tp
            perf = PerformanceModel(
                model=spec,
                num_gpus=tp,
                gpu_spec=nodes[0].spec.gpu_spec,
                config=self.perf_config,
                node_spec=nodes[0].spec,
                num_nodes=len(nodes),
            )
            runner = OfflineBatchRunner(self.env, perf)
            run_result = yield from runner.run(list(requests))
        finally:
            self.scheduler.release(handle.job.job_id)
        return run_result

    def shutdown(self) -> None:
        self.autoscaler.stop()
        for pool in self.pools.values():
            pool.shutdown()
