"""Autoscaling control plane: policies, metrics feed, replica pools and the
full scale-up/scale-down integration (drain-before-terminate, clean job
release, no stale routes)."""

import math

import pytest

from repro.autoscale import (
    AutoscaleConfig,
    PredictivePolicy,
    QueueDepthPolicy,
    ScheduledPolicy,
    TargetUtilizationPolicy,
    make_policy,
)
from repro.cluster import JobState, PBSScheduler, SchedulerConfig, small_test_cluster
from repro.common import ConfigurationError
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.faas import (
    HANDLER_CHAT,
    ComputeEndpoint,
    EndpointConfig,
    ModelHostingConfig,
    PoolSignal,
    RelayService,
)
from repro.serving import InferenceRequest, InstanceState, default_catalog
from repro.sim import Environment

CATALOG = default_catalog()
MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"


def pool_signal(**overrides) -> PoolSignal:
    """Handcrafted control-loop observation; every ready, loading and
    draining instance has an instance object unless ``created_instances``
    says otherwise."""
    values = dict(
        model=MODEL_8B,
        endpoint_id="ep-as",
        cluster="as",
        ready_instances=1,
        starting_instances=0,
        draining_instances=0,
        queued_jobs=0,
        waiting_tasks=0,
        in_flight_tasks=0,
        slots_per_instance=8,
        max_instances=8,
        cold_start_estimate_s=60.0,
        open_launches=0,
        arrival_rate_rps=0.0,
        completion_rate_rps=0.0,
        computed_at=0.0,
    )
    values.update(overrides)
    values.setdefault("created_instances", values["ready_instances"]
                      + values["starting_instances"] + values["draining_instances"])
    return PoolSignal(**values)


# ---------------------------------------------------------------- policies
def test_queue_depth_reactive_matches_legacy_semantics():
    policy = QueueDepthPolicy(queue_per_instance=8)
    # Cold pool with demand boots exactly one instance.
    assert policy.reactive(pool_signal(ready_instances=0, waiting_tasks=3)) == 1
    # First instance's job still queued: don't pile on.
    assert policy.reactive(
        pool_signal(ready_instances=0, queued_jobs=1, open_launches=1, waiting_tasks=50)
    ) == 1
    # Below threshold: hold.
    assert policy.reactive(pool_signal(ready_instances=2, waiting_tasks=16)) == 2
    # Above threshold: one more.
    assert policy.reactive(pool_signal(ready_instances=2, waiting_tasks=17)) == 3


def test_queue_depth_scale_down_requires_hold_window():
    policy = QueueDepthPolicy(queue_per_instance=8, scale_down=True,
                              scale_down_hold_s=60.0)
    quiet = dict(ready_instances=3, waiting_tasks=0, in_flight_tasks=2)
    assert policy.decide(pool_signal(computed_at=0.0, **quiet)).target == 3
    assert policy.decide(pool_signal(computed_at=30.0, **quiet)).target == 3
    # Held quiet for the full window: drain one.
    assert policy.decide(pool_signal(computed_at=61.0, **quiet)).target == 2
    # A burst resets the quiet clock.
    assert policy.decide(pool_signal(computed_at=70.0, ready_instances=3,
                                waiting_tasks=40)).target == 4
    assert policy.decide(pool_signal(computed_at=75.0, **quiet)).target == 3


def test_target_utilization_scales_up_and_respects_cooldowns():
    policy = TargetUtilizationPolicy(target=0.5, deadband=0.1,
                                     cooldown_up_s=30.0, cooldown_down_s=60.0)
    hot = pool_signal(computed_at=0.0, ready_instances=2, in_flight_tasks=14,
                 waiting_tasks=4, slots_per_instance=8)  # busy = 18/16
    decision = policy.decide(hot)
    assert decision.target > 2
    # Cooldown: an immediate second evaluation holds even though still hot.
    assert policy.decide(pool_signal(computed_at=5.0, ready_instances=2, in_flight_tasks=14,
                                waiting_tasks=4)).target == 2
    # Quiet pool scales down only after the down-cooldown elapses.
    assert policy.decide(pool_signal(computed_at=40.0, ready_instances=4,
                                in_flight_tasks=1)).target == 4
    late = policy.decide(pool_signal(computed_at=120.0, ready_instances=4, in_flight_tasks=1))
    assert late.target < 4


def test_scheduled_policy_follows_plan_with_wraparound():
    policy = ScheduledPolicy(schedule=[(100.0, 3), (200.0, 1)], period_s=300.0)
    # Before the first entry the plan wraps from the last entry.
    assert policy.planned_at(0.0) == 1
    assert policy.planned_at(150.0) == 3
    assert policy.planned_at(250.0) == 1
    assert policy.planned_at(300.0 + 120.0) == 3
    assert policy.decide(pool_signal(computed_at=150.0, ready_instances=1)).target == 3


def test_predictive_policy_prewarms_ahead_of_rising_trend():
    rising = PredictivePolicy(alpha=0.5, beta=0.5, lead_s=120.0,
                              instance_rps=2.0, headroom=0.1)
    flat = PredictivePolicy(alpha=0.5, beta=0.5, lead_s=120.0,
                            instance_rps=2.0, headroom=0.1)
    rates = [0.5, 1.5, 2.5, 3.5]
    last_rising = last_flat = None
    for i, rate in enumerate(rates):
        t = 60.0 * i
        last_rising = rising.decide(pool_signal(computed_at=t, arrival_rate_rps=rate,
                                           ready_instances=2, in_flight_tasks=4))
        last_flat = flat.decide(pool_signal(computed_at=t, arrival_rate_rps=rates[-1],
                                       ready_instances=2, in_flight_tasks=4))
    # The instantaneous need at 3.5 req/s is ceil(3.5*1.1/2) = 2 instances;
    # the trend-following forecast must ask for strictly more, ahead of time.
    assert last_flat.target == 2
    assert last_rising.target > last_flat.target


def test_predictive_policy_scales_down_only_after_hold():
    policy = PredictivePolicy(alpha=1.0, beta=0.0, lead_s=0.0,
                              instance_rps=2.0, headroom=0.0,
                              scale_down_hold_s=100.0)
    busy = pool_signal(computed_at=0.0, arrival_rate_rps=6.0, ready_instances=3,
                  in_flight_tasks=6)
    assert policy.decide(busy).target == 3
    quiet = dict(arrival_rate_rps=1.0, ready_instances=3, in_flight_tasks=1)
    assert policy.decide(pool_signal(computed_at=50.0, **quiet)).target == 3   # hold
    assert policy.decide(pool_signal(computed_at=120.0, **quiet)).target == 3  # still holding
    assert policy.decide(pool_signal(computed_at=151.0, **quiet)).target == 1  # held long enough


def test_predictive_forecast_is_plain_holt():
    """Holt's linear method on the sampled rate, exactly: level
    2 -> 3 -> 5.75, trend 0 -> 0.5 -> 1.625 per 60 s sample."""
    policy = PredictivePolicy(alpha=0.5, beta=0.5)
    assert policy.forecast_rate(600.0, 60.0) == 0.0  # nothing observed yet
    dts = [policy._observe(pool_signal(computed_at=60.0 * i, arrival_rate_rps=rate))
           for i, rate in enumerate([2.0, 4.0, 8.0])]
    assert dts == [0.0, 60.0, 60.0]
    assert policy.forecast_rate(0.0, 60.0) == 5.75
    assert policy.forecast_rate(120.0, 60.0) == 5.75 + 2 * 1.625
    # Three idle samples turn the trend negative; the forecast floors at zero.
    for i in range(3, 6):
        policy._observe(pool_signal(computed_at=60.0 * i))
    assert policy.forecast_rate(3600.0, 60.0) == 0.0


def test_make_policy_rejects_unknown_name():
    with pytest.raises(ConfigurationError):
        make_policy(AutoscaleConfig(policy="nope"))


# ---------------------------------------------------------------- endpoint stack
def build_stack(models, num_nodes=3, monitor_interval=10.0):
    env = Environment()
    cluster = small_test_cluster(num_nodes=num_nodes)
    scheduler = PBSScheduler(
        env, cluster, SchedulerConfig(cycle_latency_s=1.0, prologue_s=2.0)
    )
    config = EndpointConfig(
        endpoint_id="ep-as",
        cluster=cluster.name,
        models=models,
        poll_interval_s=0.5,
        monitor_interval_s=monitor_interval,
    )
    endpoint = ComputeEndpoint(env, scheduler, CATALOG, config)
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    relay.register_endpoint(endpoint)
    return env, cluster, scheduler, endpoint, relay


def chat_payload(i, output=60):
    return {"request": InferenceRequest(f"req-{i:05d}", MODEL_8B,
                                        prompt_tokens=200, max_output_tokens=output)}


def test_tick_signal_carries_pool_state_and_rates():
    env, cluster, scheduler, endpoint, relay = build_stack(
        models=[ModelHostingConfig(model=MODEL_8B, max_instances=2)]
    )
    pool = endpoint.pools[MODEL_8B]
    policy = pool.replicas.policy
    seen = []
    decide = policy.decide
    policy.decide = lambda signal: seen.append(signal) or decide(signal)
    futures = [relay.submit("fn-chat", "ep-as", chat_payload(i)) for i in range(10)]
    env.run(until=env.all_of([f.done for f in futures]))
    env.run(until=env.now + 1.0)
    # Reactive checks ran on every arrival; they neither carry rates nor
    # advance the window.
    assert not seen and pool.signal().arrival_rate_rps is None
    pool.replicas.tick()
    observed = seen[-1]
    assert observed.model == MODEL_8B
    assert observed.ready_instances == 1
    assert observed.waiting_tasks == 0
    assert observed.arrival_rate_rps == pytest.approx(10.0 / observed.computed_at)
    assert observed.completion_rate_rps == pytest.approx(10.0 / observed.computed_at)
    # Cold start was measured, not defaulted.
    assert 0.0 < observed.cold_start_estimate_s < 120.0
    # Rate window advanced: the next tick sees no new arrivals.
    env.run(until=env.now + 5.0)
    pool.replicas.tick()
    assert seen[-1].arrival_rate_rps == 0.0


def test_min_instances_floor_is_prewarmed_by_controller():
    env, cluster, scheduler, endpoint, relay = build_stack(
        models=[ModelHostingConfig(
            model=MODEL_8B, max_instances=3,
            autoscale=AutoscaleConfig(policy="queue_depth", min_instances=1,
                                      interval_s=5.0),
        )]
    )
    env.run(until=60.0)  # no traffic at all
    assert endpoint.ready_instance_count() == 1


def test_drained_instance_finishes_in_flight_requests_then_releases_job():
    env, cluster, scheduler, endpoint, relay = build_stack(
        models=[ModelHostingConfig(model=MODEL_8B, max_instances=2,
                                   max_parallel_tasks=4)]
    )
    pool = endpoint.pools[MODEL_8B]
    pool.prewarm(2)
    env.run(until=60.0)
    assert endpoint.ready_instance_count() == 2

    futures = [relay.submit("fn-chat", "ep-as", chat_payload(i, output=200))
               for i in range(8)]
    # Requests are in flight on both instances 1.2 s after the relay hands
    # them to the endpoint.
    relay_hops = relay.config.submit_latency_s + relay.config.dispatch_latency_s
    env.run(until=env.now + relay_hops + 1.2)
    assert pool.signal().in_flight_tasks > 0

    assert pool.start_drain_one()
    assert len(pool.draining) == 1
    assert pool.signal().draining_instances == 1
    # The drained instance refuses new work but keeps serving.
    draining = [i for i in pool.instances
                if i.state == InstanceState.DRAINING]
    assert len(draining) == 1 and draining[0].in_flight > 0
    with pytest.raises(RuntimeError):
        draining[0].submit(InferenceRequest("late", MODEL_8B, 10, 10))

    env.run(until=env.all_of([f.done for f in futures]))
    assert all(f.record.result.success for f in futures)  # nothing was killed
    env.run(until=env.now + 5.0)  # drain monitor retires the idle instance

    assert endpoint.ready_instance_count() == 1
    assert pool.drained == 1 and not pool.draining
    assert scheduler.jobs_drained == 1
    drained_jobs = [j for j in scheduler.all_jobs
                    if j.exit_reason == "drained (scale-down)"]
    assert len(drained_jobs) == 1
    assert drained_jobs[0].state == JobState.COMPLETED
    # Exactly one job still holds nodes; nothing leaked.
    assert len(scheduler.running_jobs) == 1
    assert len(cluster.free_nodes) == cluster.total_nodes - 1


def test_scale_up_scale_down_cycle_returns_to_floor_without_leaks():
    env, cluster, scheduler, endpoint, relay = build_stack(
        models=[ModelHostingConfig(
            model=MODEL_8B, max_instances=3, max_parallel_tasks=4,
            scale_up_queue_per_instance=2,
            autoscale=AutoscaleConfig(policy="queue_depth", min_instances=1,
                                      max_instances=3, interval_s=5.0,
                                      queue_per_instance=2, scale_down=True,
                                      scale_down_hold_s=20.0),
        )],
        monitor_interval=5.0,
    )
    pool = endpoint.pools[MODEL_8B]
    futures = [relay.submit("fn-chat", "ep-as", chat_payload(i, output=150))
               for i in range(90)]
    env.run(until=env.all_of([f.done for f in futures]))
    assert all(f.record.result.success for f in futures)
    peak = max(a["to"] for a in pool.replicas.actions)
    assert peak >= 2  # the burst scaled the pool up

    env.run(until=env.now + 600.0)  # quiet: controller drains back down
    assert endpoint.ready_instance_count() == 1  # back at the floor
    assert not pool.draining and pool.launching == 0

    # Zero leaked jobs: every started job beyond the floor terminated cleanly.
    active = [j for j in scheduler.all_jobs if not j.state.terminal]
    assert len(active) == 1
    assert scheduler.jobs_drained == pool.drained >= 1
    assert len(cluster.free_nodes) == cluster.total_nodes - 1
    # GPU-hour accounting covers every job that held nodes.
    assert scheduler.gpu_seconds() > 0


def test_scaled_down_endpoint_deregisters_cleanly_and_routes_move_on():
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="alpha", kind="small", num_nodes=2, scheduler="local",
                models=[ModelHostingConfig(MODEL_8B, max_instances=1,
                                           max_parallel_tasks=8)],
            ),
            ClusterDeploymentSpec(
                name="beta", kind="small", num_nodes=2, scheduler="local",
                models=[ModelHostingConfig(MODEL_8B, max_instances=1,
                                           max_parallel_tasks=8)],
            ),
        ],
        users=["ops@anl.gov"],
        generate_text=False,
    )
    deployment = FIRSTDeployment(config)
    client = deployment.client("ops@anl.gov")

    first = client.chat_completion(
        MODEL_8B, [{"role": "user", "content": "warm alpha"}], max_tokens=16
    )
    assert "error" not in first
    alpha = deployment.endpoints["ep-alpha"]
    assert alpha.ready_instance_count() == 1

    # Controller scales alpha's pool to zero: drain-before-terminate.
    pool = alpha.pools[MODEL_8B]
    pool.replicas.scale_to(0, reason="facility maintenance")
    deployment.run_for(30.0)
    assert alpha.ready_instance_count() == 0
    assert not pool.draining
    scheduler = deployment.schedulers["alpha"]
    assert not [j for j in scheduler.all_jobs if not j.state.terminal]

    # The drained endpoint deregisters from the federation; the gateway's
    # cached route must not point at it afterwards.
    deployment.topology.deregister("ep-alpha")
    second = client.chat_completion(
        MODEL_8B, [{"role": "user", "content": "hello beta"}], max_tokens=16
    )
    assert "error" not in second
    routed = deployment.gateway._routing_cache[(MODEL_8B, "ops@anl.gov")].endpoint_id
    assert routed == "ep-beta"
    states = {j["endpoint"]: j["state"] for j in client.jobs()}
    assert "ep-alpha" not in states
    assert states["ep-beta"] == "running"


def test_predictive_autoscaling_prewarms_for_ramp_at_endpoint_level():
    env, cluster, scheduler, endpoint, relay = build_stack(
        models=[ModelHostingConfig(
            model=MODEL_8B, max_instances=3, max_parallel_tasks=4,
            autoscale=AutoscaleConfig(policy="predictive", min_instances=1,
                                      max_instances=3, interval_s=10.0,
                                      instance_rps=0.5, prewarm_lead_s=60.0,
                                      trend_beta=0.4, headroom=0.1),
        )],
        num_nodes=4,
    )
    pool = endpoint.pools[MODEL_8B]
    env.run(until=40.0)  # floor instance comes up

    def driver(env):
        # Linearly accelerating arrivals: ~0.2 -> ~2 req/s over 5 minutes.
        i = 0
        for step in range(30):
            rate = 0.2 + (2.0 - 0.2) * step / 29
            for _ in range(max(1, round(rate * 10.0))):
                relay.submit("fn-chat", "ep-as", chat_payload(i, output=80))
                i += 1
            yield env.timeout(10.0)

    env.process(driver(env))
    env.run(until=400.0)
    # The forecast scaled the pool beyond the floor before the peak hit.
    assert max(a["to"] for a in pool.replicas.actions) >= 2
    first_up = min(a["time"] for a in pool.replicas.actions if a["to"] >= 2)
    assert first_up < 300.0


def test_math_ceil_guard_never_targets_negative():
    policy = PredictivePolicy(alpha=1.0, beta=0.0, lead_s=0.0, instance_rps=1.0)
    decision = policy.decide(pool_signal(computed_at=10.0, arrival_rate_rps=0.0,
                                    ready_instances=0, waiting_tasks=0))
    assert decision.target >= 0
    assert math.ceil(-0.1) == 0  # the clamp math the policies rely on
