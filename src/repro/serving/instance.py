"""A running model instance: GPUs + engine + API front-end + lifecycle.

Instances are what Globus-Compute-like endpoints create when they acquire
nodes for a model: the weights are loaded (cold start), the engine and its
OpenAI-compatible front-end come up, and the instance stays "hot" until the
endpoint releases it.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import List, Optional

from ..cluster.node import Node
from ..sim import Environment, Event
from .api_server import APIServer, APIServerConfig
from .backends import BackendSpec, get_backend
from .engine import ContinuousBatchingEngine, EngineConfig
from .models import ModelSpec
from .request import InferenceRequest
from .textgen import SyntheticTextGenerator
from .timing import PerfModelConfig, PerformanceModel

__all__ = ["InstanceState", "ServingInstance", "EmbeddingServingInstance"]


class InstanceState(str, enum.Enum):
    """Lifecycle of a model instance (matches the ``/jobs`` endpoint vocabulary)."""

    STARTING = "starting"
    RUNNING = "running"
    #: Finishing in-flight work before a scale-down retirement; accepts no
    #: new requests (``is_ready`` is False).
    DRAINING = "draining"
    STOPPED = "stopped"
    FAILED = "failed"


class _InstanceLifecycle:
    """The lifecycle both instance kinds share.

    STARTING → RUNNING → DRAINING, ending in STOPPED or FAILED; either end
    state is final, and leaving releases the instance's GPUs exactly once.
    Subclasses provide ``env``, ``nodes``, ``instance_id``, ``state``,
    ``ready`` and ``last_request_time``, and hook their engine through
    :meth:`_engine_drain` / :meth:`_engine_stop`.
    """

    def drain(self) -> bool:
        """Stop accepting new requests; in-flight work runs to completion.

        Returns whether the instance transitioned (only RUNNING instances
        drain).  The owner retires the instance once ``in_flight`` reaches 0.
        """
        if self.state != InstanceState.RUNNING:
            return False
        self.state = InstanceState.DRAINING
        self._engine_drain()
        return True

    def stop(self) -> None:
        """Release GPUs and stop the engine."""
        self._end(InstanceState.STOPPED, "stopped while loading")

    def fail(self, reason: str = "inference server crashed") -> None:
        """Simulate an inference-server crash (fault tolerance, walltime end).

        The endpoint's process-management monitor detects FAILED instances
        and restarts them (paper §3.2.2, "Fault Tolerance").
        """
        self._end(InstanceState.FAILED, f"failed: {reason}")

    def _end(self, state: InstanceState, why: str) -> None:
        if self.state in (InstanceState.STOPPED, InstanceState.FAILED):
            return
        previous = self.state
        self.state = state
        self._engine_stop()
        for node in self.nodes:
            node.release_gpus(self.instance_id)
        if previous == InstanceState.STARTING and not self.ready.triggered:
            self.ready.fail(RuntimeError(f"instance {self.instance_id} {why}"))
            self.ready.defuse()

    def _engine_drain(self) -> None:
        """Tell the engine a drain began (no-op by default)."""

    def _engine_stop(self) -> None:
        """Stop the engine on a final state (no-op by default)."""

    @property
    def is_ready(self) -> bool:
        return self.state == InstanceState.RUNNING

    @property
    def idle_for_s(self) -> float:
        """Seconds since the last request was submitted (for hot-idle release)."""
        return self.env.now - self.last_request_time


class ServingInstance(_InstanceLifecycle):
    """One model served on a specific set of GPUs."""

    _counter = itertools.count()

    def __init__(
        self,
        env: Environment,
        model: ModelSpec,
        nodes: List[Node],
        tensor_parallel: Optional[int] = None,
        backend: str = "vllm",
        perf_config: Optional[PerfModelConfig] = None,
        engine_config: Optional[EngineConfig] = None,
        api_config: Optional[APIServerConfig] = None,
        instance_id: Optional[str] = None,
        cluster: str = "",
        text_generator: Optional[SyntheticTextGenerator] = None,
        via_api_server: bool = True,
    ):
        if not nodes:
            raise ValueError("An instance needs at least one node")
        self.env = env
        self.model = model
        self.nodes = list(nodes)
        self.tp = tensor_parallel or model.default_tp
        self.backend: BackendSpec = get_backend(backend)
        if not self.backend.supports_generation and not model.is_embedding:
            raise ValueError(
                f"Backend {self.backend.name} does not support generation models"
            )
        self.instance_id = instance_id or f"{model.name.split('/')[-1]}-{next(self._counter)}"
        self.cluster = cluster or (nodes[0].name.rsplit("-", 1)[0])
        self.via_api_server = via_api_server

        perf_config = perf_config or PerfModelConfig()
        perf_config = dataclasses.replace(
            perf_config, backend_factor=perf_config.backend_factor * self.backend.throughput_factor
        )
        self._reserve_gpus()
        self.perf = PerformanceModel(
            model=model,
            num_gpus=self.tp,
            gpu_spec=self.nodes[0].spec.gpu_spec,
            config=perf_config,
            node_spec=self.nodes[0].spec,
            num_nodes=len(self.nodes),
        )
        self.engine_config = engine_config or EngineConfig()
        self.api_config = api_config or APIServerConfig()
        self.text_generator = text_generator

        self.state = InstanceState.STARTING
        self.ready: Event = env.event()
        self.engine: Optional[ContinuousBatchingEngine] = None
        self.api_server: Optional[APIServer] = None
        self.started_at: Optional[float] = None
        self.load_time_s: Optional[float] = None
        self.last_request_time: float = env.now
        env.process(self._startup())

    # -- lifecycle -----------------------------------------------------------
    def _reserve_gpus(self) -> None:
        """Reserve ``tp`` GPUs spread across the instance's nodes."""
        remaining = self.tp
        vram_per_gpu = self.model.vram_per_gpu_gb(self.tp)
        self._reserved_nodes: List[Node] = []
        for node in self.nodes:
            if remaining <= 0:
                break
            take = min(remaining, len(node.free_gpus))
            if take > 0:
                node.reserve_gpus(take, vram_per_gpu, owner=self.instance_id)
                self._reserved_nodes.append(node)
                remaining -= take
        if remaining > 0:
            # Roll back partial reservations before failing.
            for node in self._reserved_nodes:
                node.release_gpus(self.instance_id)
            raise RuntimeError(
                f"Not enough free GPUs for {self.model.name} (TP={self.tp}) on "
                f"{[n.name for n in self.nodes]}"
            )

    def _startup(self):
        """Cold start: load weights, then bring up the engine and front-end."""
        fabric_overhead = 0.0
        if len(self.nodes) > 1:
            # Multi-node loads coordinate across the fabric.
            fabric_overhead = 5.0 * (len(self.nodes) - 1)
        self.load_time_s = self.perf.load_time_s(coordination_overhead_s=fabric_overhead)
        yield self.env.timeout(self.load_time_s)
        if self.state != InstanceState.STARTING:
            return  # released while loading
        self.engine = ContinuousBatchingEngine(
            self.env,
            self.perf,
            self.engine_config,
            instance_id=self.instance_id,
            cluster=self.cluster,
            text_generator=self.text_generator,
        )
        self.api_server = APIServer(self.env, self.engine, self.api_config)
        self.state = InstanceState.RUNNING
        self.started_at = self.env.now
        if not self.ready.triggered:
            self.ready.succeed(self)

    def _engine_drain(self) -> None:
        if self.engine is not None:
            self.engine.drain()

    def _engine_stop(self) -> None:
        if self.engine is not None:
            self.engine.stop()

    # -- request path -----------------------------------------------------------
    @property
    def in_flight(self) -> int:
        if self.engine is None:
            return 0
        return self.engine.in_flight

    def submit(self, request: InferenceRequest) -> Event:
        """Submit a request to this instance (via the API front-end by default)."""
        if not self.is_ready:
            raise RuntimeError(f"Instance {self.instance_id} is not running")
        self.last_request_time = self.env.now
        if self.via_api_server:
            return self.api_server.submit(request)
        return self.engine.submit(request)

    def __repr__(self) -> str:
        return (
            f"<ServingInstance {self.instance_id} model={self.model.name} "
            f"state={self.state.value} nodes={[n.name for n in self.nodes]}>"
        )


class EmbeddingServingInstance(_InstanceLifecycle):
    """An embedding-model instance with the same lifecycle protocol as
    :class:`ServingInstance` (used by endpoints for the Infinity-like backend)."""

    _counter = itertools.count()

    def __init__(
        self,
        env: Environment,
        model: ModelSpec,
        nodes: List[Node],
        tensor_parallel: Optional[int] = None,
        backend: str = "infinity",
        instance_id: Optional[str] = None,
        cluster: str = "",
        load_time_s: float = 20.0,
    ):
        from .embedding import EmbeddingEngine  # local import to avoid cycle

        if not nodes:
            raise ValueError("An instance needs at least one node")
        self.env = env
        self.model = model
        self.nodes = list(nodes)
        self.tp = tensor_parallel or model.default_tp
        self.backend = get_backend(backend)
        if not self.backend.supports_embeddings:
            raise ValueError(f"Backend {self.backend.name} does not support embeddings")
        self.instance_id = instance_id or f"{model.name.split('/')[-1]}-emb-{next(self._counter)}"
        self.cluster = cluster or (nodes[0].name.rsplit("-", 1)[0])
        vram = model.vram_per_gpu_gb(self.tp)
        nodes[0].reserve_gpus(self.tp, vram, owner=self.instance_id)
        self.state = InstanceState.STARTING
        self.ready: Event = env.event()
        self.engine: Optional["EmbeddingEngine"] = None
        self.load_time_s = load_time_s
        self.last_request_time: float = env.now
        self.started_at: Optional[float] = None
        env.process(self._startup())

    def _startup(self):
        from .embedding import EmbeddingEngine

        yield self.env.timeout(self.load_time_s)
        if self.state != InstanceState.STARTING:
            return
        self.engine = EmbeddingEngine(
            self.env, self.model, num_gpus=self.tp, instance_id=self.instance_id
        )
        self.state = InstanceState.RUNNING
        self.started_at = self.env.now
        if not self.ready.triggered:
            self.ready.succeed(self)

    @property
    def in_flight(self) -> int:
        if self.engine is None:
            return 0
        return len(self.engine._queue)

    def submit(self, request: InferenceRequest) -> Event:
        if not self.is_ready:
            raise RuntimeError(f"Instance {self.instance_id} is not running")
        self.last_request_time = self.env.now
        return self.engine.submit(request)
