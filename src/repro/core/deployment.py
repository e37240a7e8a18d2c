"""Deployment assembly: wire every substrate into a running FIRST service.

:class:`FIRSTDeployment` is the top-level object users and benchmarks work
with.  Given a :class:`DeploymentConfig` it builds, inside one simulation
environment:

* the Globus-Auth-like service with identity providers, users, groups and
  policies;
* one cluster + batch scheduler + compute endpoint per configured facility;
* the cloud relay with the admin confidential client and the pre-registered
  inference functions;
* the federation: a placement :class:`~repro.placement.TopologyView` and its
  router;
* the Inference Gateway.

Convenience constructors cover the paper's scenarios (quickstart on a small
local cluster; a Sophia-like benchmark deployment; the Sophia+Polaris
federation).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..autoscale import AutoscaleConfig
from ..auth import AccessPolicy, AuthServiceConfig, GlobusAuthLikeService, IdentityProvider
from ..cluster import (
    Cluster,
    FacilityStatusProvider,
    SchedulerConfig,
    make_scheduler,
    polaris_like,
    small_test_cluster,
    sophia_like,
)
from ..common import ConfigurationError, IdGenerator
from ..faas import (
    HANDLER_BATCH,
    HANDLER_CHAT,
    HANDLER_EMBEDDING,
    ComputeClient,
    ComputeEndpoint,
    EndpointConfig,
    ModelHostingConfig,
    RelayService,
)
from ..gateway import GatewayConfig, GatewayDatabase, InferenceGatewayAPI
from ..obs.middleware import ObservabilityConfig, observability_middleware_factories
from ..placement import PlacementPolicy, PriorityRouter, TopologyView
from ..serving import ModelCatalog, default_catalog
from ..sim import Environment
from . import calibration
from .client import FIRSTClient

__all__ = [
    "AutoscaleConfig",
    "ObservabilityConfig",
    "ModelDeploymentSpec",
    "ClusterDeploymentSpec",
    "DeploymentConfig",
    "FIRSTDeployment",
    "quickstart_config",
    "sophia_benchmark_config",
    "federated_config",
]


@dataclass
class ModelDeploymentSpec:
    """One model hosted on one cluster."""

    model: str
    backend: str = "vllm"
    tensor_parallel: Optional[int] = None
    nodes_per_instance: int = 1
    max_instances: int = 1
    max_parallel_tasks: int = calibration.DEFAULT_MAX_PARALLEL_TASKS
    hot_idle_timeout_s: float = 2 * 3600.0
    #: Waiting tasks per ready instance that trigger reactive scale-up.
    scale_up_queue_per_instance: int = 8
    #: Autoscaling control plane for this model (``None`` = legacy reactive
    #: queue-depth scale-up only; see :class:`repro.autoscale.AutoscaleConfig`).
    autoscale: Optional[AutoscaleConfig] = None

    def to_hosting(self) -> ModelHostingConfig:
        return ModelHostingConfig(
            model=self.model,
            backend=self.backend,
            tensor_parallel=self.tensor_parallel,
            nodes_per_instance=self.nodes_per_instance,
            max_instances=self.max_instances,
            max_parallel_tasks=self.max_parallel_tasks,
            hot_idle_timeout_s=self.hot_idle_timeout_s,
            scale_up_queue_per_instance=self.scale_up_queue_per_instance,
            autoscale=self.autoscale,
        )


@dataclass
class ClusterDeploymentSpec:
    """One facility participating in the deployment."""

    name: str
    #: "sophia" | "polaris" | "small" — which cluster factory to use.
    kind: str = "small"
    num_nodes: int = 2
    scheduler: str = "pbs"
    scheduler_cycle_s: float = 2.0
    scheduler_prologue_s: float = 5.0
    models: List[ModelDeploymentSpec] = field(default_factory=list)
    endpoint_poll_interval_s: float = 1.0
    endpoint_monitor_interval_s: float = 30.0


@dataclass
class DeploymentConfig:
    """Full deployment description."""

    clusters: List[ClusterDeploymentSpec] = field(default_factory=list)
    gateway: GatewayConfig = field(default_factory=calibration.default_gateway_config)
    users: List[str] = field(default_factory=lambda: ["researcher@anl.gov"])
    identity_domains: List[str] = field(default_factory=lambda: ["anl.gov", "university.edu"])
    generate_text: bool = False
    seed: int = 0
    #: Distributed tracing + metrics registry (see :mod:`repro.obs`).  When
    #: set and ``gateway.middleware_factories`` is None, the gateway pipeline
    #: gains an observability stage; tracing is observe-only, so simulation
    #: results are bit-identical with or without it.
    observability: Optional["ObservabilityConfig"] = None


def quickstart_config(generate_text: bool = True) -> DeploymentConfig:
    """Config of :meth:`FIRSTDeployment.quickstart` — a laptop-scale deployment.

    The shipped configs are module-level builders (rather than inline in the
    classmethods) so sweep cells can embed them and pickle-round-trip them to
    worker processes.
    """
    return DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="devcluster",
                kind="small",
                num_nodes=2,
                scheduler="local",
                models=[
                    ModelDeploymentSpec("Qwen/Qwen2.5-7B-Instruct", max_parallel_tasks=32),
                    ModelDeploymentSpec("meta-llama/Llama-3.1-8B-Instruct",
                                        max_parallel_tasks=32),
                    ModelDeploymentSpec("nvidia/NV-Embed-v2", backend="infinity"),
                ],
            )
        ],
        users=["researcher@anl.gov", "student@university.edu"],
        generate_text=generate_text,
    )


def sophia_benchmark_config(
    model: str = "meta-llama/Llama-3.3-70B-Instruct",
    max_instances: int = 1,
    num_nodes: int = 8,
    max_parallel_tasks: int = calibration.DEFAULT_MAX_PARALLEL_TASKS,
    gateway_config: Optional[GatewayConfig] = None,
) -> DeploymentConfig:
    """Config of :meth:`FIRSTDeployment.sophia_benchmark` (the §5 deployment)."""
    return DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia",
                kind="sophia",
                num_nodes=num_nodes,
                scheduler="pbs",
                models=[
                    ModelDeploymentSpec(
                        model,
                        max_instances=max_instances,
                        max_parallel_tasks=max_parallel_tasks,
                    )
                ],
            )
        ],
        gateway=gateway_config or calibration.default_gateway_config(),
        users=["benchmark@anl.gov"],
        generate_text=False,
    )


def federated_config(
    model: str = "meta-llama/Llama-3.1-8B-Instruct",
    sophia_nodes: int = 4,
    polaris_nodes: int = 4,
) -> DeploymentConfig:
    """Config of :meth:`FIRSTDeployment.federated` (the §4.5 two-facility PoC)."""
    return DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia", kind="sophia", num_nodes=sophia_nodes, scheduler="pbs",
                models=[ModelDeploymentSpec(model, max_instances=2)],
            ),
            ClusterDeploymentSpec(
                name="polaris", kind="polaris", num_nodes=polaris_nodes, scheduler="pbs",
                models=[ModelDeploymentSpec(model, max_instances=2)],
            ),
        ],
        users=["benchmark@anl.gov"],
        generate_text=False,
    )


class FIRSTDeployment:
    """A fully wired FIRST service inside one simulation environment."""

    CLIENT_ID = "first-gateway-client"
    CLIENT_SECRET = "first-gateway-secret"

    def __init__(self, config: Optional[DeploymentConfig] = None,
                 env: Optional[Environment] = None,
                 catalog: Optional[ModelCatalog] = None):
        self.config = config or DeploymentConfig()
        if not self.config.clusters:
            raise ConfigurationError("DeploymentConfig needs at least one cluster")
        self.env = env or Environment()
        self.catalog = catalog or default_catalog()
        self.ids = IdGenerator()

        self._build_auth()
        self._build_relay()
        self._build_clusters()
        self._build_gateway()

    # ------------------------------------------------------------------ assembly
    def _build_auth(self) -> None:
        self.auth = GlobusAuthLikeService(self.env, AuthServiceConfig())
        for domain in self.config.identity_domains:
            self.auth.register_provider(
                IdentityProvider(name=domain.split(".")[0].upper(), domain=domain)
            )
        for user in self.config.users:
            self.auth.register_user(user)
        self.auth.register_confidential_client(
            self.CLIENT_ID, self.CLIENT_SECRET, owner="first-admins",
            description="Gateway confidential client (shared with endpoints)",
        )
        # Service-wide policy: only registered identity domains may use the service.
        self.auth.policies.add_policy(
            AccessPolicy("registered-domains", resource="service",
                         allowed_domains=list(self.config.identity_domains))
        )

    def _build_relay(self) -> None:
        self.relay = RelayService(
            self.env, calibration.default_relay_config(), ids=self.ids,
            authorized_client_ids=[self.CLIENT_ID],
        )
        self.function_ids = {
            HANDLER_CHAT: "fn-inference-chat",
            HANDLER_EMBEDDING: "fn-inference-embedding",
            HANDLER_BATCH: "fn-inference-batch",
        }
        for handler, function_id in self.function_ids.items():
            self.relay.functions.register(
                function_id, name=handler, handler=handler, owner="first-admins"
            )

    def _make_cluster(self, spec: ClusterDeploymentSpec) -> Cluster:
        if spec.kind == "sophia":
            return sophia_like(num_nodes=spec.num_nodes)
        if spec.kind == "polaris":
            return polaris_like(num_nodes=spec.num_nodes)
        if spec.kind == "small":
            return small_test_cluster(name=spec.name, num_nodes=spec.num_nodes)
        raise ConfigurationError(f"Unknown cluster kind {spec.kind!r}")

    def _build_clusters(self) -> None:
        # The placement plane's shared fleet view: the federation's ordered
        # membership plus one event-refreshed aggregate of pool/cluster/
        # latency signals that the router, the federation-aware scaling
        # policies and the reservation stage share.
        self.topology = TopologyView(self.env)
        self.clusters: Dict[str, Cluster] = {}
        self.schedulers: Dict[str, object] = {}
        self.endpoints: Dict[str, ComputeEndpoint] = {}

        perf_config = calibration.default_perf_config()
        engine_config = calibration.default_engine_config(self.config.generate_text)
        api_config = calibration.default_api_server_config()

        for spec in self.config.clusters:
            cluster = self._make_cluster(spec)
            # The spec name wins over the factory name so federation entries
            # are unambiguous even with two "small" clusters.
            cluster.name = spec.name
            scheduler = make_scheduler(
                spec.scheduler,
                self.env,
                cluster,
                SchedulerConfig(
                    cycle_latency_s=spec.scheduler_cycle_s,
                    prologue_s=spec.scheduler_prologue_s,
                ) if spec.scheduler in ("pbs", "slurm") else None,
                ids=self.ids,
            )
            endpoint = ComputeEndpoint(
                self.env,
                scheduler,
                self.catalog,
                EndpointConfig(
                    endpoint_id=f"ep-{spec.name}",
                    cluster=spec.name,
                    models=[m.to_hosting() for m in spec.models],
                    poll_interval_s=spec.endpoint_poll_interval_s,
                    monitor_interval_s=spec.endpoint_monitor_interval_s,
                    required_client_id=self.CLIENT_ID,
                ),
                perf_config=perf_config,
                engine_config=engine_config,
                api_config=api_config,
                ids=self.ids,
            )
            self.relay.register_endpoint(endpoint)
            provider = FacilityStatusProvider(self.env, scheduler)
            self.topology.register(endpoint, provider)
            self.clusters[spec.name] = cluster
            self.schedulers[spec.name] = scheduler
            self.endpoints[endpoint.endpoint_id] = endpoint

    def _build_gateway(self) -> None:
        self.router: PlacementPolicy = PriorityRouter(self.topology)
        self.compute_client = ComputeClient(
            self.env,
            self.relay,
            self.CLIENT_ID,
            self.CLIENT_SECRET,
            auth=self.auth,
            config=calibration.default_compute_client_config(),
        )
        self.database = GatewayDatabase()
        gateway_config = self.config.gateway
        if (self.config.observability is not None
                and gateway_config.middleware_factories is None):
            # Prepend the observability stage to the stock chain; an explicit
            # middleware_factories list wins (callers compose their own).
            gateway_config = replace(
                gateway_config,
                middleware_factories=observability_middleware_factories(
                    self.config.observability),
            )
        self.gateway = InferenceGatewayAPI(
            self.env,
            self.auth,
            self.compute_client,
            self.router,
            self.catalog,
            function_ids=self.function_ids,
            config=gateway_config,
            database=self.database,
            ids=self.ids,
        )
        # The gateway's per-endpoint latency/TTFT medians become the
        # placement plane's pool signals (the SLO router judges on them).
        self.topology.gateway_metrics = self.gateway.metrics

    # ------------------------------------------------------------------ operations
    def client(self, user: str, scopes: Optional[List[str]] = None,
               raise_on_error: bool = True) -> FIRSTClient:
        """Authenticate ``user`` and return an OpenAI-style client bound to the gateway.

        ``raise_on_error=False`` makes the client return the gateway's typed
        error envelopes (``{"error": {...}}``) instead of re-raising them as
        :mod:`repro.common.errors` exceptions.
        """
        if user not in self.auth.registered_users:
            self.auth.register_user(user)
        bundle = self.auth.issue_token(user, scopes)
        return FIRSTClient(self, bundle, raise_on_error=raise_on_error)

    def add_user(self, user: str) -> None:
        self.auth.register_user(user)

    def prewarm(self, model: str, instances: int = 1,
                endpoint_id: Optional[str] = None) -> List:
        """Launch ``instances`` hot instances of ``model`` ahead of traffic."""
        if endpoint_id is not None:
            endpoints = [self.endpoints[endpoint_id]]
        else:
            endpoints = self.topology.endpoints_for_model(model)[:1]
        if not endpoints:
            raise ConfigurationError(f"No endpoint hosts model {model}")
        events = []
        for endpoint in endpoints:
            events.extend(endpoint.prewarm(model, instances))
        return events

    def warm_up(self, model: str, instances: int = 1,
                endpoint_id: Optional[str] = None, timeout_s: float = 3600.0) -> None:
        """Prewarm and advance the simulation until the instances are ready."""
        events = self.prewarm(model, instances, endpoint_id)
        if events:
            self.env.run(until=self.env.all_of(events))
        # Give monitors a scheduling round.
        self.run_for(1.0)

    def run_for(self, seconds: float) -> None:
        """Advance the simulation clock by ``seconds``."""
        self.env.run(until=self.env.now + seconds)

    def run_until(self, event) -> object:
        return self.env.run(until=event)

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def observability(self):
        """The gateway's :class:`~repro.obs.ObservabilityLayer` (or ``None``)."""
        return self.gateway.observability

    # ------------------------------------------------------------------ ready-made deployments
    @classmethod
    def quickstart(cls, generate_text: bool = True) -> "FIRSTDeployment":
        """A laptop-scale deployment: one 2-node cluster hosting small chat models
        plus the embedding model, with a local (no-queue) scheduler."""
        return cls(quickstart_config(generate_text))

    @classmethod
    def sophia_benchmark(
        cls,
        model: str = "meta-llama/Llama-3.3-70B-Instruct",
        max_instances: int = 1,
        num_nodes: int = 8,
        max_parallel_tasks: int = calibration.DEFAULT_MAX_PARALLEL_TASKS,
        gateway_config: Optional[GatewayConfig] = None,
    ) -> "FIRSTDeployment":
        """The §5 benchmark deployment: a Sophia-like cluster hosting one model."""
        return cls(sophia_benchmark_config(
            model, max_instances=max_instances, num_nodes=num_nodes,
            max_parallel_tasks=max_parallel_tasks, gateway_config=gateway_config,
        ))

    @classmethod
    def federated(
        cls,
        model: str = "meta-llama/Llama-3.1-8B-Instruct",
        sophia_nodes: int = 4,
        polaris_nodes: int = 4,
    ) -> "FIRSTDeployment":
        """The §4.5 federation proof of concept: Sophia plus Polaris."""
        return cls(federated_config(model, sophia_nodes=sophia_nodes,
                                    polaris_nodes=polaris_nodes))
