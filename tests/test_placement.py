"""Federation v2 placement-plane tests.

Covers the shared :class:`TopologyView` (signal correctness, event-driven
refresh), the view-backed routing policies under churn (deregistration
mid-flight and everything it detaches, a model left with zero endpoints
after a drain), the SLO
router's shed/recover hysteresis (no flapping), the cross-cluster
:class:`FederationScalingPolicy`, per-tenant capacity reservations and the
bounded routing-decision log.
"""

import pytest

from repro.autoscale import FederationScalingPolicy
from repro.common import NotFoundError
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.gateway import GatewayConfig, default_middleware_factories
from repro.placement import (
    FirstConfiguredRouter,
    LeastLoadedRouter,
    PoolSignal,
    PriorityRouter,
    ReservationMiddleware,
    SLORouter,
)
from repro.placement.policies import MAX_DECISIONS
from repro.serving import InferenceRequest

MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"


def two_cluster_deployment(slots=16, max_instances=2, gateway=None):
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="c1", kind="small", num_nodes=2, scheduler="local",
                models=[ModelHostingConfig(MODEL_8B, max_instances=max_instances,
                                           max_parallel_tasks=slots)],
            ),
            ClusterDeploymentSpec(
                name="c2", kind="small", num_nodes=2, scheduler="local",
                models=[ModelHostingConfig(MODEL_8B, max_instances=max_instances,
                                           max_parallel_tasks=slots)],
            ),
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
    )
    if gateway is not None:
        config.gateway = gateway
    return FIRSTDeployment(config)


def run_select(deployment, router, model=MODEL_8B, tenant=None):
    proc = deployment.env.process(router.select(model, tenant=tenant))
    return deployment.env.run(until=proc)


# -- TopologyView ----------------------------------------------------------------------

def test_view_refreshes_on_events_not_per_read():
    deployment = two_cluster_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    view = deployment.topology

    view.pool_signal("ep-c1", MODEL_8B)
    rebuilds = view.rebuilds
    # Reads without intervening events are cache hits, not rebuilds.
    for _ in range(10):
        view.pool_signal("ep-c1", MODEL_8B)
    assert view.rebuilds == rebuilds

    # A request flowing through the pool dirties the signal exactly there.
    client = deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_8B, [{"role": "user", "content": "x"}], max_tokens=8)
    view.pool_signal("ep-c1", MODEL_8B)
    assert view.rebuilds > rebuilds


def test_jobs_reads_fresh_signals_not_the_view_cache():
    """``/jobs`` must not refresh a cached signal: its ``computed_at`` decides
    when the gateway medians an SLO routing decision sees are re-read."""
    deployment = two_cluster_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    view = deployment.topology
    cached = view.pool_signal("ep-c1", MODEL_8B)
    rebuilds, reads = view.rebuilds, view.reads
    deployment.run_for(60.0)  # past the view's staleness bound

    rows = deployment.client("researcher@anl.gov").jobs()
    assert [(row["endpoint"], row["state"]) for row in rows] == [
        ("ep-c1", "running"), ("ep-c2", "cold")]
    assert (view.rebuilds, view.reads) == (rebuilds, reads)
    assert view._signals[("ep-c1", MODEL_8B)] is cached


def test_cluster_signal_tracks_free_nodes_and_gpu_seconds():
    deployment = two_cluster_deployment()
    view = deployment.topology
    before = view.cluster_signal("ep-c1")
    assert before.free_nodes == 2
    assert before.gpu_seconds == 0.0
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    after = view.cluster_signal("ep-c1")
    assert after.free_nodes == 1
    assert after.gpu_seconds > 0.0


# -- routing policies over the view ------------------------------------------------------

def test_priority_router_over_view_finds_hot_secondary():
    deployment = two_cluster_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c2")
    router = PriorityRouter(deployment.topology)
    endpoint = run_select(deployment, router)
    assert endpoint.endpoint_id == "ep-c2"
    assert router.decisions[-1].rule == "active-instance"


def test_least_loaded_router_spreads_away_from_backlog():
    deployment = two_cluster_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c2")
    pool = deployment.endpoints["ep-c1"].pools[MODEL_8B]
    pool.waiting_tasks += 40
    pool._touch()
    router = LeastLoadedRouter(deployment.topology)
    endpoint = run_select(deployment, router)
    assert endpoint.endpoint_id == "ep-c2"
    assert router.decisions[-1].rule == "least-loaded"
    pool.waiting_tasks -= 40
    pool._touch()


def test_least_loaded_router_cold_fleet_uses_cluster_signal():
    deployment = two_cluster_deployment()
    router = LeastLoadedRouter(deployment.topology)
    endpoint = run_select(deployment, router)
    assert endpoint.endpoint_id == "ep-c1"
    assert router.decisions[-1].rule == "free-nodes"


# -- churn -----------------------------------------------------------------------------

def test_deregistration_mid_flight_reroutes_and_completes():
    deployment = two_cluster_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    client = deployment.client("researcher@anl.gov")

    # A long request is in flight against c1 when c1 leaves the federation.
    in_flight = client.submit(InferenceRequest(
        "churn-0", MODEL_8B, prompt_tokens=128, max_output_tokens=256))
    deployment.run_for(5.0)
    deployment.topology.deregister("ep-c1")

    # The view detached the endpoint's pools...
    assert deployment.topology.pool_signal("ep-c1", MODEL_8B) is None
    # ...new traffic routes to the survivor...
    response = client.chat_completion(
        MODEL_8B, [{"role": "user", "content": "after churn"}], max_tokens=8)
    assert response["usage"]["completion_tokens"] == 8
    # ...and the in-flight request still completes on the departed endpoint.
    result = deployment.env.run(until=in_flight)
    assert result.success
    assert result.cluster == "c1"


def test_model_on_zero_endpoints_after_drain_is_typed_not_found():
    deployment = two_cluster_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")

    # Drain both pools to zero and take both endpoints out of the federation.
    for name in ("ep-c1", "ep-c2"):
        pool = deployment.endpoints[name].pools[MODEL_8B]
        pool.replicas.scale_to(0, reason="maintenance")
    deployment.run_for(30.0)
    deployment.topology.deregister("ep-c1")
    deployment.topology.deregister("ep-c2")

    # select() raises synchronously, before its first yield.
    router = deployment.gateway.router
    with pytest.raises(NotFoundError):
        next(router.select(MODEL_8B))

    envelope_client = deployment.client("researcher@anl.gov", raise_on_error=False)
    response = envelope_client.chat_completion(
        MODEL_8B, [{"role": "user", "content": "anyone home?"}], max_tokens=8)
    assert response["error"]["type"] == "not_found_error"


def test_deregistration_detaches_everything_through_the_view():
    """One ``view.deregister`` is the whole departure: the gateway's cached
    route to the endpoint is evicted on its next use, the pool and cluster
    signals are gone, the pool no longer notifies the view and the
    federation-aware scaling policy is unbound."""
    from repro.autoscale import AutoscaleConfig

    federated = ModelHostingConfig(
        MODEL_8B, max_instances=2, max_parallel_tasks=16,
        autoscale=AutoscaleConfig(policy="federated", min_instances=0))
    deployment = FIRSTDeployment(DeploymentConfig(
        clusters=[ClusterDeploymentSpec(name=name, kind="small", num_nodes=2,
                                        scheduler="local", models=[federated])
                  for name in ("c1", "c2")],
        users=["researcher@anl.gov"], generate_text=False))
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c2")
    client = deployment.client("researcher@anl.gov")
    cache = deployment.gateway._routing_cache
    key = (MODEL_8B, "researcher@anl.gov")
    client.chat_completion(MODEL_8B, [{"role": "user", "content": "x"}], max_tokens=8)
    assert cache[key].endpoint_id == "ep-c1"
    pool = deployment.endpoints["ep-c1"].pools[MODEL_8B]
    policy = pool.replicas.policy
    view = deployment.topology
    assert policy.view is view and view._on_pool_event in pool._observers

    view.deregister("ep-c1")
    assert view.pool_signal("ep-c1", MODEL_8B) is None
    assert view.cluster_signal("ep-c1") is None
    assert view._on_pool_event not in pool._observers
    assert policy.view is None and policy.endpoint_id is None
    # The cached route is still fresh, yet the next request re-routes.
    client.chat_completion(MODEL_8B, [{"role": "user", "content": "y"}], max_tokens=8)
    assert cache[key].endpoint_id == "ep-c2"
    assert deployment.gateway.router.decisions_total == 2


# -- SLO routing -----------------------------------------------------------------------

def push_latencies(deployment, value, n=64, endpoint="ep-c1"):
    for _ in range(n):
        deployment.gateway.metrics.request_completed(MODEL_8B, 8, value,
                                                     endpoint=endpoint)


def test_slo_router_sheds_and_recovers_with_hysteresis():
    deployment = two_cluster_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c2")
    router = SLORouter(
        deployment.topology, default_slo_s=10.0,
        breach_hold_s=30.0, recover_ratio=0.6, recover_hold_s=60.0,
    )
    tenant = "researcher@anl.gov"

    # Healthy primary: stays on c1.
    push_latencies(deployment, 5.0)
    assert run_select(deployment, router, tenant=tenant).endpoint_id == "ep-c1"
    assert router.decisions[-1].rule == "slo-primary"

    # p50 breaches the SLO: not shed until the breach holds.
    push_latencies(deployment, 25.0, n=256)
    deployment.run_for(6.0)
    assert run_select(deployment, router, tenant=tenant).endpoint_id == "ep-c1"
    deployment.run_for(31.0)
    assert run_select(deployment, router, tenant=tenant).endpoint_id == "ep-c2"
    assert router.decisions[-1].rule == "slo-shed"

    # Partial improvement (above recover_ratio * slo): still shedding.
    push_latencies(deployment, 8.0, n=256)
    deployment.run_for(61.0)
    assert run_select(deployment, router, tenant=tenant).endpoint_id == "ep-c2"

    # Full recovery sustained past the hold: back to the primary.
    push_latencies(deployment, 3.0, n=256)
    deployment.run_for(6.0)
    run_select(deployment, router, tenant=tenant)  # starts the recover hold
    deployment.run_for(61.0)
    assert run_select(deployment, router, tenant=tenant).endpoint_id == "ep-c1"
    assert router.decisions[-1].rule == "slo-primary"

    # Exactly one shed and one recover: the holds prevented flapping.
    transitions = router.shed_transitions(MODEL_8B, tenant)
    assert [shedding for _t, shedding in transitions] == [True, False]


def test_slo_router_per_tenant_slos():
    deployment = two_cluster_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    router = SLORouter(deployment.topology, default_slo_s=10.0,
                       tenant_slos={"vip@anl.gov": 2.0})
    assert router.slo_for("vip@anl.gov") == 2.0
    assert router.slo_for("other@anl.gov") == 10.0
    assert router.slo_for(None) == 10.0


# -- cross-cluster scaling --------------------------------------------------------------

class _Endpoint:
    def __init__(self, endpoint_id):
        self.endpoint_id = endpoint_id


class _StubView:
    """Minimal TopologyView stand-in for policy unit tests."""

    def __init__(self, signals):
        self.signals = signals

    def candidates(self, model):
        return [(_Endpoint(sig.endpoint_id), sig) for sig in self.signals]


def pool_signal(endpoint_id, time=0.0, ready=1, waiting=0, in_flight=0, slots=8):
    """A pool with ``ready`` ready instances and nothing loading."""
    return PoolSignal(
        model=MODEL_8B, endpoint_id=endpoint_id, cluster=endpoint_id,
        ready_instances=ready, starting_instances=0, draining_instances=0,
        queued_jobs=0, waiting_tasks=waiting, in_flight_tasks=in_flight,
        slots_per_instance=slots, max_instances=2, cold_start_estimate_s=60.0,
        created_instances=ready, open_launches=0, computed_at=time,
    )


def test_federation_policy_prewarms_on_sustained_sibling_overload():
    """Recipient path: a drowning sibling makes this cluster boot a replica
    before any traffic is shed here (the cold start hides behind the
    sibling's backlog)."""
    policy = FederationScalingPolicy(queue_per_instance=8, imbalance_ratio=2.0,
                                     imbalance_hold_s=45.0)
    policy.bind_topology(_StubView([pool_signal("other", ready=1, waiting=40)]),
                         endpoint_id="me", cluster="here", model=MODEL_8B)

    # Fully booked here (no spare ready slots for the overflow).
    def booked(t):
        return pool_signal("me", t, ready=1, waiting=0, in_flight=8)

    assert policy.decide(booked(0.0)).target == 1
    assert policy.decide(booked(30.0)).target == 1
    decision = policy.decide(booked(50.0))
    assert decision.target == 2
    assert "shifting" in decision.reason
    assert policy.shifts_in == 1


def test_federation_policy_gives_back_when_fleet_calms():
    """Donor path: a fully idle cluster returns shifted capacity once no
    sibling is hot enough to shed this way (spill clusters drain to zero)."""
    policy = FederationScalingPolicy(queue_per_instance=8, imbalance_ratio=2.0,
                                     scale_down_hold_s=60.0)
    policy.bind_topology(_StubView([pool_signal("other", ready=1, waiting=0)]),
                         endpoint_id="me", cluster="here", model=MODEL_8B)

    def idle(t):
        return pool_signal("me", t, ready=1, waiting=0, in_flight=0)

    assert policy.decide(idle(0.0)).target == 1
    decision = policy.decide(idle(61.0))
    assert decision.target == 0
    assert "returning" in decision.reason
    assert policy.shifts_out == 1


def test_federation_policy_keeps_capacity_while_sibling_still_hot():
    """An idle spill cluster does not give back while the sibling it covers
    is still above the give-back pressure threshold."""
    policy = FederationScalingPolicy(queue_per_instance=8, imbalance_ratio=2.0,
                                     scale_down_hold_s=60.0)
    policy.bind_topology(_StubView([pool_signal("other", ready=1, waiting=20)]),
                         endpoint_id="me", cluster="here", model=MODEL_8B)

    def idle(t):
        return pool_signal("me", t, ready=1, waiting=0, in_flight=0)

    assert policy.decide(idle(0.0)).target == 1
    assert policy.decide(idle(61.0)).target == 1
    assert policy.decide(idle(300.0)).target == 1
    assert policy.shifts_out == 0


def test_federation_policy_saturation_wins_and_unbound_degrades():
    policy = FederationScalingPolicy(queue_per_instance=8)
    # Local saturation scales up exactly like the queue-depth heuristic.
    hot = pool_signal("me", 0.0, ready=1, waiting=9)
    assert policy.decide(hot).target == 2
    # Unbound (single-cluster) policy still drains a quiet pool after the hold.
    def quiet(t):
        return pool_signal("me", t, ready=2, waiting=0, in_flight=0)

    policy2 = FederationScalingPolicy(queue_per_instance=8, scale_down_hold_s=60.0)
    assert policy2.decide(quiet(0.0)).target == 2
    assert policy2.decide(quiet(61.0)).target == 1


def test_federated_policy_registered_in_autoscale_registry():
    from repro.autoscale import AutoscaleConfig, make_policy

    policy = make_policy(AutoscaleConfig(policy="federated", imbalance_ratio=3.0,
                                         imbalance_hold_s=20.0))
    assert isinstance(policy, FederationScalingPolicy)
    assert policy.imbalance_ratio == 3.0
    assert policy.imbalance_hold_s == 20.0


def test_deployment_binds_federated_policy_to_topology():
    from repro.autoscale import AutoscaleConfig

    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="c1", kind="small", num_nodes=2, scheduler="local",
                models=[ModelHostingConfig(
                    MODEL_8B, max_instances=2, max_parallel_tasks=16,
                    autoscale=AutoscaleConfig(policy="federated", min_instances=0),
                )],
            ),
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
    )
    deployment = FIRSTDeployment(config)
    policy = deployment.endpoints["ep-c1"].pools[MODEL_8B].replicas.policy
    assert isinstance(policy, FederationScalingPolicy)
    assert policy.view is deployment.topology
    assert policy.endpoint_id == "ep-c1"
    # Leaving the federation unbinds the policy: a dark endpoint must not
    # keep pre-warming replicas for siblings it can no longer serve.
    deployment.topology.deregister("ep-c1")
    assert policy.view is None


# -- per-tenant capacity reservations -----------------------------------------------------

def test_view_reservation_admission_arithmetic():
    deployment = two_cluster_deployment(slots=2, max_instances=1)
    view = deployment.topology
    # Fleet capacity: 2 endpoints x 1 instance x 2 slots = 4.
    assert view.fleet_slot_capacity(MODEL_8B) == 4
    view.reserve("vip", MODEL_8B, 3)

    # vip always fits inside its reservation.
    assert all(view.try_admit(MODEL_8B, "vip") for _ in range(3))
    # Reserved-but-unused headroom is now 0, one slot is best-effort.
    assert view.try_admit(MODEL_8B, "vip")          # overflow, best effort
    assert not view.try_admit(MODEL_8B, "besteffort")
    for _ in range(4):
        view.release_admission(MODEL_8B, "vip")

    # With vip idle, best-effort traffic may only use the unreserved slot.
    assert view.try_admit(MODEL_8B, "besteffort")
    assert not view.try_admit(MODEL_8B, "besteffort")
    assert view.rejections == 2


def reservation_gateway_config():
    """The stock pipeline with the reservation stage after auth."""
    factories = default_middleware_factories()
    factories.insert(2, ReservationMiddleware)
    return GatewayConfig(middleware_factories=factories)


def test_reservation_middleware_rejects_best_effort_with_typed_envelope():
    deployment = two_cluster_deployment(slots=4, max_instances=1,
                                        gateway=reservation_gateway_config())
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    # Reserve the whole fleet for the VIP tenant.
    deployment.topology.reserve("vip@anl.gov", MODEL_8B,
                                deployment.topology.fleet_slot_capacity(MODEL_8B))

    vip = deployment.client("vip@anl.gov")
    response = vip.chat_completion(
        MODEL_8B, [{"role": "user", "content": "priority lane"}], max_tokens=8)
    assert response["usage"]["completion_tokens"] == 8

    besteffort = deployment.client("researcher@anl.gov", raise_on_error=False)
    rejected = besteffort.chat_completion(
        MODEL_8B, [{"role": "user", "content": "standby"}], max_tokens=8)
    assert rejected["error"]["type"] == "overloaded_error"
    assert rejected["error"]["code"] == "no_capacity"
    assert "reservation" in deployment.gateway.pipeline.stage_names()
    # Admissions were released on completion: nothing leaks.
    assert deployment.topology.admitted(MODEL_8B, "vip@anl.gov") == 0


def test_unreserved_model_is_untouched_by_reservation_stage():
    deployment = two_cluster_deployment(slots=4, max_instances=1,
                                        gateway=reservation_gateway_config())
    client = deployment.client("researcher@anl.gov")
    response = client.chat_completion(
        MODEL_8B, [{"role": "user", "content": "no reservations here"}], max_tokens=8)
    assert response["usage"]["completion_tokens"] == 8
    assert deployment.topology.admissions == 0


# -- bounded decision log -----------------------------------------------------------------

def test_decision_log_is_bounded_but_counters_cumulative():
    deployment = two_cluster_deployment()
    router = FirstConfiguredRouter(deployment.topology)
    total = MAX_DECISIONS + 7
    for _ in range(total):
        run_select(deployment, router)
    assert len(router.decisions) == MAX_DECISIONS == 512
    summary = router.summary()
    assert summary["total"] == total
    assert summary["recent"] == MAX_DECISIONS
    assert summary["by_endpoint"] == {"ep-c1": total}
    assert summary["by_rule"] == {"first-configured": total}


def test_dashboard_surfaces_routing_summary():
    deployment = two_cluster_deployment()
    deployment.warm_up(MODEL_8B, endpoint_id="ep-c1")
    client = deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_8B, [{"role": "user", "content": "x"}], max_tokens=8)
    routing = client.dashboard()["routing"]
    assert routing["policy"] == "priority"
    assert routing["total"] >= 1
    assert sum(routing["by_endpoint"].values()) == routing["total"]
