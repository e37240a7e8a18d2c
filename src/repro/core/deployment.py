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

A deployment is data: a :class:`DeploymentConfig` lists the facilities,
each a :class:`ClusterDeploymentSpec` naming its cluster kind, scheduler and
the :class:`~repro.faas.ModelHostingConfig` records of the models its
endpoint hosts.  The paper's scenarios are module-level builders of that
data (:func:`quickstart_config` on a small local cluster,
:func:`sophia_benchmark_config` for the §5 deployment,
:func:`federated_config` for the Sophia+Polaris federation), so one is
built as ``FIRSTDeployment(quickstart_config())``.  :func:`build_cluster`
is the one place a facility's cluster, scheduler and endpoint are made;
the partitioned plane's cluster shards call it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..autoscale import AutoscaleConfig
from ..auth import AccessPolicy, AuthServiceConfig, GlobusAuthLikeService, IdentityProvider
from ..cluster import (
    Cluster,
    FacilityStatusProvider,
    SchedulerBase,
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
    "ModelHostingConfig",
    "ClusterDeploymentSpec",
    "DeploymentConfig",
    "FIRSTDeployment",
    "quickstart_config",
    "sophia_benchmark_config",
    "federated_config",
    "build_cluster",
]


@dataclass
class ClusterDeploymentSpec:
    """One facility participating in the deployment."""

    name: str
    #: "sophia" | "polaris" | "small" — which cluster factory to use.
    kind: str = "small"
    num_nodes: int = 2
    scheduler: str = "pbs"
    models: List[ModelHostingConfig] = field(default_factory=list)


@dataclass
class DeploymentConfig:
    """Full deployment description."""

    clusters: List[ClusterDeploymentSpec] = field(default_factory=list)
    gateway: GatewayConfig = field(default_factory=calibration.default_gateway_config)
    users: List[str] = field(default_factory=lambda: ["researcher@anl.gov"])
    identity_domains: List[str] = field(default_factory=lambda: ["anl.gov", "university.edu"])
    generate_text: bool = False
    #: Distributed tracing + metrics registry (see :mod:`repro.obs`).  When
    #: set and ``gateway.middleware_factories`` is None, the gateway pipeline
    #: gains an observability stage; tracing is observe-only, so simulation
    #: results are bit-identical with or without it.
    observability: Optional["ObservabilityConfig"] = None


def quickstart_config(generate_text: bool = True) -> DeploymentConfig:
    """A laptop-scale deployment: one 2-node cluster hosting small chat models
    plus the embedding model, with a local (no-queue) scheduler.

    The shipped configs are module-level builders so sweep cells can embed
    them and pickle-round-trip them to worker processes.
    """
    return DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="devcluster",
                kind="small",
                num_nodes=2,
                scheduler="local",
                models=[
                    ModelHostingConfig("Qwen/Qwen2.5-7B-Instruct", max_parallel_tasks=32),
                    ModelHostingConfig("meta-llama/Llama-3.1-8B-Instruct",
                                       max_parallel_tasks=32),
                    ModelHostingConfig("nvidia/NV-Embed-v2", backend="infinity"),
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
    """The §5 benchmark deployment: a Sophia-like cluster hosting one model."""
    return DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia",
                kind="sophia",
                num_nodes=num_nodes,
                scheduler="pbs",
                models=[
                    ModelHostingConfig(
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
    """The §4.5 federation proof of concept: Sophia plus Polaris."""
    return DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="sophia", kind="sophia", num_nodes=sophia_nodes, scheduler="pbs",
                models=[ModelHostingConfig(model, max_instances=2)],
            ),
            ClusterDeploymentSpec(
                name="polaris", kind="polaris", num_nodes=polaris_nodes, scheduler="pbs",
                models=[ModelHostingConfig(model, max_instances=2)],
            ),
        ],
        users=["benchmark@anl.gov"],
        generate_text=False,
    )


def build_cluster(env: Environment, spec: ClusterDeploymentSpec,
                  catalog: ModelCatalog, ids: IdGenerator, *,
                  generate_text: bool, required_client_id: Optional[str],
                  ) -> Tuple[Cluster, SchedulerBase, ComputeEndpoint]:
    """Build one facility's ``(cluster, scheduler, endpoint)`` from its spec.

    The endpoint hosts a copy of each of ``spec.models``, so editing a
    pool's ``hosting`` at runtime never reaches the caller's config.
    ``required_client_id`` is the confidential client the endpoint trusts
    (``None``: accept every task it is handed).
    """
    if spec.kind == "sophia":
        cluster = sophia_like(num_nodes=spec.num_nodes)
    elif spec.kind == "polaris":
        cluster = polaris_like(num_nodes=spec.num_nodes)
    elif spec.kind == "small":
        cluster = small_test_cluster(name=spec.name, num_nodes=spec.num_nodes)
    else:
        raise ConfigurationError(f"Unknown cluster kind {spec.kind!r}")
    # The spec name wins over the factory name so federation entries are
    # unambiguous even with two "small" clusters.
    cluster.name = spec.name
    scheduler = make_scheduler(
        spec.scheduler, env, cluster,
        calibration.default_scheduler_config()
        if spec.scheduler in ("pbs", "slurm") else None,
        ids=ids,
    )
    endpoint = ComputeEndpoint(
        env,
        scheduler,
        catalog,
        EndpointConfig(
            endpoint_id=f"ep-{spec.name}",
            cluster=spec.name,
            models=[replace(hosting) for hosting in spec.models],
            required_client_id=required_client_id,
        ),
        perf_config=calibration.default_perf_config(),
        engine_config=calibration.default_engine_config(generate_text),
        api_config=calibration.default_api_server_config(),
        ids=ids,
    )
    return cluster, scheduler, endpoint


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

    def _build_clusters(self) -> None:
        # The placement plane's shared fleet view: the federation's ordered
        # membership plus one event-refreshed aggregate of pool/cluster/
        # latency signals that the router, the federation-aware scaling
        # policies and the reservation stage share.
        self.topology = TopologyView(self.env)
        self.clusters: Dict[str, Cluster] = {}
        self.schedulers: Dict[str, SchedulerBase] = {}
        self.endpoints: Dict[str, ComputeEndpoint] = {}
        for spec in self.config.clusters:
            cluster, scheduler, endpoint = build_cluster(
                self.env, spec, self.catalog, self.ids,
                generate_text=self.config.generate_text,
                required_client_id=self.CLIENT_ID,
            )
            self.relay.register_endpoint(endpoint)
            self.topology.register(endpoint, FacilityStatusProvider(self.env, scheduler))
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
                endpoint_id: Optional[str] = None) -> None:
        """Prewarm and advance the simulation until the instances are ready."""
        events = self.prewarm(model, instances, endpoint_id)
        if events:
            self.env.run(until=self.env.all_of(events))
        # Give monitors a scheduling round.
        self.run_for(1.0)

    def run_for(self, seconds: float) -> None:
        """Advance the simulation clock by ``seconds``."""
        self.env.run(until=self.env.now + seconds)

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def observability(self):
        """The gateway's :class:`~repro.obs.ObservabilityLayer` (or ``None``)."""
        return self.gateway.observability
