"""The placement plane's shared fleet view.

Before Federation v2, every consumer of fleet state kept a private one:
the routers probed ``FacilityStatusProvider`` generators per request, the
autoscaler sampled the pools through a snapshot type of its own, the gateway
kept rolling latency windows, and the cluster scheduler accounted GPU-seconds
— four views of the same fleet that could not see one another.

:class:`TopologyView` is the federation's one membership record — the
ordered endpoint list the development API URL "queries ... to see which
clusters can host the inference" (§4.5) — and aggregates all of those
signals per (model, endpoint, cluster) into :class:`PoolSignal` /
:class:`ClusterSignal` snapshots that routing policies, the
federation-aware scaling policy and the reservation admission stage all
read.  The autoscaler reads the same :class:`PoolSignal`: every replica
pool's policy decides on a fresh ``signal()`` of its own pool.  Signals
held here are refreshed *incrementally on events*: every endpoint pool notifies the view when its state changes
(task arrival/completion, instance ready/retired, drain start/end), the
affected signal is marked dirty, and the next read recomputes just that one
snapshot (the pool's own ``signal()`` plus the gateway medians).  Reads
between events are plain dict lookups — nothing is rebuilt per request.

The view also owns the federation's *public* cluster-status query
(:meth:`query_cluster`), preserving the paper's §4.5 semantics — a simulated
web-service round-trip against a periodically refreshed status page — so the
verbatim priority rule keeps its ablation timing bit-identically.

Per-tenant capacity reservations live here too: the view tracks reserved
slots and admitted in-flight requests per (model, tenant), and
:meth:`try_admit` implements the admission arithmetic the gateway's
reservation middleware enforces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster import FacilityStatusProvider
from ..common import NotFoundError
from ..faas import ComputeEndpoint, PoolSignal
from ..sim import Environment

__all__ = ["PoolSignal", "ClusterSignal", "TopologyView"]


@dataclass
class ClusterSignal:
    """Scheduler-side snapshot of one cluster."""

    cluster: str
    total_nodes: int
    free_nodes: int
    queued_jobs: int
    running_jobs: int
    #: GPU-seconds consumed by every job this cluster's scheduler started —
    #: the cost axis federation benchmarks trade against latency.
    gpu_seconds: float
    computed_at: float = 0.0


#: Staleness bound (simulated seconds) for signals whose drift has no event:
#: the gateway medians move with every completed request.
REFRESH_INTERVAL_S = 5.0


class TopologyView:
    """The federation's membership and its event-refreshed signals.

    Endpoints :meth:`register` in configuration order, which is the paper's
    routing priority (§4.5: "the order in which endpoints are listed in the
    configuration registry").  Registering hooks every pool of the endpoint
    as an observer and binds any pool policy exposing ``bind_topology`` —
    e.g. :class:`repro.autoscale.FederationScalingPolicy` — so cross-cluster
    scaling and routing read the same state; :meth:`deregister` undoes all
    of it.
    """

    def __init__(self, env: Environment):
        self.env = env
        #: Set post-assembly by the deployment (the gateway is built after
        #: the view); signals work without it, just without latency medians.
        self.gateway_metrics = None

        #: Membership, in registration (= priority) order.
        self._endpoints: Dict[str, ComputeEndpoint] = {}
        self._pools: Dict[Tuple[str, str], object] = {}
        self._signals: Dict[Tuple[str, str], PoolSignal] = {}
        #: Signals for pools living in *other partitions* (see
        #: :meth:`apply_partition_snapshot`): refreshed at window barriers
        #: from serialized snapshots instead of in-process observer hooks.
        self._snapshot_signals: Dict[Tuple[str, str], PoolSignal] = {}
        self._dirty: set = set()
        self._cluster_cache: Dict[str, ClusterSignal] = {}
        self._providers: Dict[str, FacilityStatusProvider] = {}

        # -- reservations: model -> tenant -> slots / admitted in flight ----
        self._reservations: Dict[str, Dict[str, int]] = {}
        self._admitted: Dict[str, Counter] = {}
        self.admissions = 0
        self.rejections = 0

        #: Observability: how many snapshots were actually recomputed (tests
        #: assert reads between events do not rebuild).
        self.rebuilds = 0
        self.reads = 0

    # ------------------------------------------------------------- membership
    def register(self, endpoint: ComputeEndpoint,
                 status_provider: FacilityStatusProvider) -> None:
        """Federate ``endpoint`` behind every endpoint already registered."""
        endpoint_id = endpoint.endpoint_id
        if endpoint_id in self._endpoints:
            raise ValueError(f"Endpoint {endpoint_id} already registered")
        self._endpoints[endpoint_id] = endpoint
        self._providers[endpoint_id] = status_provider
        for pool in endpoint.pools.values():
            key = (endpoint_id, pool.model)
            self._pools[key] = pool
            self._dirty.add(key)
            pool.add_observer(self._on_pool_event)
            policy = getattr(pool.replicas, "policy", None)
            if policy is not None and hasattr(policy, "bind_topology"):
                policy.bind_topology(
                    self,
                    endpoint_id=endpoint_id,
                    cluster=endpoint.cluster_name,
                    model=pool.model,
                )

    def deregister(self, endpoint_id: str) -> None:
        """Remove an endpoint from the federation (a facility going dark).

        Its signals go with it; the gateway's routing cache finds the
        resulting :class:`NotFoundError` from :meth:`get` and re-routes.
        """
        self.get(endpoint_id)  # NotFoundError for an unknown id
        del self._endpoints[endpoint_id]
        del self._providers[endpoint_id]
        for key in [k for k in self._pools if k[0] == endpoint_id]:
            pool = self._pools.pop(key)
            pool.remove_observer(self._on_pool_event)
            self._signals.pop(key, None)
            self._dirty.discard(key)
            # Unbind federation-aware policies: a dark endpoint must not keep
            # pre-warming replicas for siblings it can no longer serve.
            policy = getattr(pool.replicas, "policy", None)
            if policy is not None and hasattr(policy, "unbind_topology"):
                policy.unbind_topology()

    def get(self, endpoint_id: str) -> ComputeEndpoint:
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise NotFoundError(f"Unknown federated endpoint: {endpoint_id}") from None

    @property
    def endpoints(self) -> List[ComputeEndpoint]:
        """Every federated endpoint, in priority order."""
        return list(self._endpoints.values())

    def endpoints_for_model(self, model: str) -> List[ComputeEndpoint]:
        """Endpoints configured to host ``model``, in priority order."""
        return [e for e in self._endpoints.values() if e.hosts_model(model)]

    def hosted_models(self) -> List[str]:
        models = []
        for endpoint in self._endpoints.values():
            for hosting in endpoint.config.models:
                if hosting.model not in models:
                    models.append(hosting.model)
        return models

    def _on_pool_event(self, pool) -> None:
        self._dirty.add((pool.endpoint.endpoint_id, pool.model))

    # ------------------------------------------------------------- pool signals
    def pool_signal(self, endpoint_id: str, model: str) -> Optional[PoolSignal]:
        """Current signal for one (endpoint, model) pool; ``None`` if the
        endpoint left the federation or never hosted the model."""
        key = (endpoint_id, model)
        pool = self._pools.get(key)
        if pool is None:
            return self._snapshot_signals.get(key)
        self.reads += 1
        cached = self._signals.get(key)
        if (
            cached is not None
            and key not in self._dirty
            and self.env.now - cached.computed_at < REFRESH_INTERVAL_S
        ):
            return cached
        signal = pool.signal()
        if self.gateway_metrics is not None:
            # Per-endpoint windows: each pool is judged on the latency of
            # the requests *it* served, not the fleet-wide blend.
            recent = self.gateway_metrics.recent_timings(model, endpoint_id)
            if recent is not None:
                signal.latency_p50_s = recent["latency_p50_s"]
                signal.ttft_p50_s = recent["ttft_p50_s"]
        self._signals[key] = signal
        self._dirty.discard(key)
        self.rebuilds += 1
        return signal

    # ------------------------------------------------------------- partition snapshots
    def apply_partition_snapshot(self, signal: PoolSignal) -> None:
        """Hold a remote pool's signal from a partition barrier snapshot.

        In a partitioned deployment (:mod:`repro.parallel`) the cluster's
        pools live in another process, so the usual in-process observer
        hooks cannot mark signals dirty.  Instead each cluster partition
        ships every pool's :meth:`~repro.faas.endpoint._ModelPool.signal`
        at each window barrier and the gateway partition lands them here.
        :meth:`pool_signal` serves them until the next barrier replaces
        them — window-granular staleness the serial fallback reproduces
        identically — and the gateway partition routes on them.
        """
        self._snapshot_signals[(signal.endpoint_id, signal.model)] = signal

    def candidates(self, model: str) -> List[Tuple[ComputeEndpoint, Optional[PoolSignal]]]:
        """(endpoint, signal) pairs for every endpoint hosting ``model``, in
        priority order."""
        return [
            (endpoint, self.pool_signal(endpoint.endpoint_id, model))
            for endpoint in self.endpoints_for_model(model)
        ]

    # ------------------------------------------------------------- cluster signals
    def cluster_signal(self, endpoint_id: str) -> Optional[ClusterSignal]:
        """Synchronous, event-fresh cluster snapshot (no query latency).

        Memoised per simulation timestamp: many routing decisions at the
        same instant share one free-node count.
        """
        provider = self._providers.get(endpoint_id)
        if provider is None:
            return None
        name = provider.cluster_name
        cached = self._cluster_cache.get(name)
        if cached is not None and cached.computed_at == self.env.now:
            return cached
        status = provider.snapshot()
        signal = ClusterSignal(
            cluster=name,
            total_nodes=status.total_nodes,
            free_nodes=status.free_nodes,
            queued_jobs=status.queued_jobs,
            running_jobs=status.running_jobs,
            gpu_seconds=provider.scheduler.gpu_seconds(),
            computed_at=self.env.now,
        )
        self._cluster_cache[name] = signal
        return signal

    def query_cluster(self, endpoint_id: str):
        """The federation's *public* status query, as a simulation process.

        Returns the endpoint's :meth:`FacilityStatusProvider.query`, keeping
        the paper's query latency and staleness window — the verbatim
        priority rule routes through here so its ablation numbers stay
        bit-identical.  The provider is resolved now, so a query taken
        before its endpoint leaves the federation still runs.
        """
        return self._providers[endpoint_id].query()

    # ------------------------------------------------------------- reservations
    def reserve(self, tenant: str, model: str, slots: int) -> None:
        """Reserve ``slots`` concurrent requests of ``model`` for ``tenant``."""
        if slots <= 0:
            raise ValueError("reserved slots must be > 0")
        self._reservations.setdefault(model, {})[tenant] = slots

    def release_reservation(self, tenant: str, model: str) -> None:
        self._reservations.get(model, {}).pop(tenant, None)

    def reservations_for(self, model: str) -> Dict[str, int]:
        return dict(self._reservations.get(model, {}))

    def admitted(self, model: str, tenant: str) -> int:
        return self._admitted.get(model, Counter())[tenant]

    def fleet_slot_capacity(self, model: str) -> int:
        """Slot capacity the federation can provision for ``model`` (sum of
        every hosting pool's instance ceiling x slots per instance)."""
        total = 0
        for endpoint in self.endpoints_for_model(model):
            signal = self.pool_signal(endpoint.endpoint_id, model)
            if signal is not None:
                total += signal.provisionable_slots
        return total

    def reserved_headroom(self, model: str) -> int:
        """Reserved-but-unused slots that best-effort traffic must not eat."""
        admitted = self._admitted.get(model, Counter())
        return sum(
            max(0, slots - admitted[tenant])
            for tenant, slots in self._reservations.get(model, {}).items()
        )

    def try_admit(self, model: str, tenant: str) -> bool:
        """Admit one request against the model's reserved capacity.

        A tenant is always admitted inside its own reservation.  Anything
        beyond that (unreserved tenants, or a reserved tenant's overflow) is
        best-effort: admitted only while total in-flight plus the
        reserved-but-unused headroom fits the fleet's provisionable slots.
        The caller must pair a ``True`` return with :meth:`release_admission`.
        """
        admitted = self._admitted.setdefault(model, Counter())
        reserved = self._reservations.get(model, {}).get(tenant, 0)
        if admitted[tenant] < reserved:
            admitted[tenant] += 1
            self.admissions += 1
            return True
        total = sum(admitted.values())
        if total + self.reserved_headroom(model) < self.fleet_slot_capacity(model):
            admitted[tenant] += 1
            self.admissions += 1
            return True
        self.rejections += 1
        return False

    def release_admission(self, model: str, tenant: str) -> None:
        admitted = self._admitted.get(model)
        if admitted is not None and admitted[tenant] > 0:
            admitted[tenant] -= 1

    # ------------------------------------------------------------- observability
    def snapshot(self) -> dict:
        """Summary for dashboards/tests."""
        return {
            "pools": len(self._pools),
            "rebuilds": self.rebuilds,
            "reads": self.reads,
            "reservations": {
                model: dict(res) for model, res in self._reservations.items()
            },
            "admissions": self.admissions,
            "rejections": self.rejections,
        }
