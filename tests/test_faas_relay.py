"""Tests for the FaaS function registry, task records and cloud relay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AuthorizationError, NotFoundError
from repro.faas import (
    HANDLER_CHAT,
    FunctionRegistry,
    RelayBoundaryProxy,
    RelayConfig,
    RelayService,
    TaskRecord,
    TaskStatus,
)
from repro.parallel import FederatedScenario
from repro.parallel.partition import build_partition
from repro.placement import PoolSignal
from repro.sim import Environment


class FakeEndpoint:
    """Minimal endpoint double: executes every task after a fixed delay."""

    def __init__(self, env, endpoint_id="ep-fake", delay=1.0, succeed=True, instances=1):
        self.env = env
        self.endpoint_id = endpoint_id
        self.delay = delay
        self.succeed_tasks = succeed
        self.instances = instances
        self.executed = 0

    def ready_instance_count(self):
        return self.instances

    def enqueue(self, record, function):
        outcome = self.env.event()

        def run(env):
            yield env.timeout(self.delay)
            self.executed += 1
            if self.succeed_tasks:
                outcome.succeed({"success": True, "result": {"echo": record.payload.get("x")}})
            else:
                outcome.succeed({"success": False, "error": "boom"})

        self.env.process(run(self.env))
        return outcome


def make_relay(env, **endpoint_kwargs):
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat inference", HANDLER_CHAT, owner="admins")
    endpoint = FakeEndpoint(env, **endpoint_kwargs)
    relay.register_endpoint(endpoint)
    return relay, endpoint


# -- function registry ---------------------------------------------------------

def test_function_registry_registration_and_lookup():
    reg = FunctionRegistry()
    fn = reg.register("fn-1", "inference", HANDLER_CHAT, owner="admins")
    assert reg.is_registered("fn-1")
    assert reg.get("fn-1") is fn
    assert reg.function_ids == ["fn-1"]
    with pytest.raises(ValueError):
        reg.register("fn-1", "dup", HANDLER_CHAT, owner="admins")
    with pytest.raises(NotFoundError):
        reg.get("fn-2")


def test_unregistered_function_rejected():
    reg = FunctionRegistry()
    with pytest.raises(AuthorizationError):
        reg.require_registered("fn-evil")


# -- relay submission ------------------------------------------------------------

def test_relay_executes_task_and_resolves_future():
    env = Environment()
    relay, endpoint = make_relay(env)
    future = relay.submit("fn-chat", "ep-fake", {"x": 42})

    def run(env):
        result = yield future.done
        return (env.now, result)

    p = env.process(run(env))
    env.run(until=p)
    t, result = p.value
    assert result == {"echo": 42}
    assert future.record.status == TaskStatus.COMPLETED
    assert endpoint.executed == 1
    # Total time = submit + dispatch + execution + routing + result latencies.
    cfg = relay.config
    expected_min = cfg.submit_latency_s + cfg.dispatch_latency_s + 1.0 + cfg.result_latency_s
    assert t >= expected_min
    assert relay.stats.completed == 1


def test_relay_rejects_unregistered_function():
    env = Environment()
    relay, _ = make_relay(env)
    with pytest.raises(AuthorizationError):
        relay.submit("fn-unknown", "ep-fake", {})
    assert relay.stats.submitted == 0


def test_relay_rejects_unknown_endpoint():
    env = Environment()
    relay, _ = make_relay(env)
    with pytest.raises(NotFoundError):
        relay.submit("fn-chat", "ep-missing", {})


def test_relay_requires_authorized_client_when_configured():
    env = Environment()
    relay, _ = make_relay(env)
    relay.authorize_client("trusted-client")
    with pytest.raises(AuthorizationError):
        relay.submit("fn-chat", "ep-fake", {}, client_id="rogue")
    future = relay.submit("fn-chat", "ep-fake", {}, client_id="trusted-client")
    assert future.record.status == TaskStatus.PENDING


def test_relay_duplicate_endpoint_registration_rejected():
    env = Environment()
    relay, endpoint = make_relay(env)
    with pytest.raises(ValueError):
        relay.register_endpoint(endpoint)


def test_relay_failed_task_marks_failed_status():
    env = Environment()
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    relay.register_endpoint(FakeEndpoint(env, succeed=False))
    future = relay.submit("fn-chat", "ep-fake", {})
    env.run(until=future.done)
    assert future.record.status == TaskStatus.FAILED
    assert relay.stats.failed == 1
    with pytest.raises(RuntimeError):
        relay.get_result(future.task_id)


def test_relay_status_and_result_lookup():
    env = Environment()
    relay, _ = make_relay(env)
    future = relay.submit("fn-chat", "ep-fake", {"x": 1})
    assert relay.get_status(future.task_id) == TaskStatus.PENDING
    with pytest.raises(RuntimeError):
        relay.get_result(future.task_id)
    env.run(until=future.done)
    assert relay.get_status(future.task_id) == TaskStatus.COMPLETED
    assert relay.get_result(future.task_id) == {"echo": 1}
    with pytest.raises(NotFoundError):
        relay.get_status("task-999999")


def test_relay_queue_depth_supports_thousands_of_tasks():
    """Optimization 3: >8000 tasks can sit queued at the relay."""
    env = Environment()
    relay, endpoint = make_relay(env, delay=500.0)
    futures = [relay.submit("fn-chat", "ep-fake", {"x": i}) for i in range(8500)]
    env.run(until=10.0)
    assert relay.queued_tasks >= 8000
    assert relay.stats.peak_queued >= 8000


def test_relay_rejects_when_task_queue_is_full():
    """``max_queued_tasks`` bounds the tasks in flight, not the tasks ever seen."""
    env = Environment()
    relay = RelayService(env, RelayConfig(max_queued_tasks=3))
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    relay.register_endpoint(FakeEndpoint(env))
    futures = [relay.submit("fn-chat", "ep-fake", {"x": i}) for i in range(3)]
    with pytest.raises(RuntimeError, match="Relay task queue is full"):
        relay.submit("fn-chat", "ep-fake", {"x": 3})
    assert relay.stats.rejected == 1
    assert relay.stats.submitted == 3
    assert relay.queued_tasks == 3
    assert len(relay._tasks) == 3  # the refused task left no record behind

    env.run(until=futures[0].done)
    assert relay.queued_tasks == 2
    accepted = relay.submit("fn-chat", "ep-fake", {"x": 4})
    assert accepted.record.status == TaskStatus.PENDING
    assert relay.stats.submitted == 4
    assert relay.stats.peak_queued == 3


def test_unauthorised_client_leaves_queue_accounting_untouched():
    env = Environment()
    relay, _ = make_relay(env)
    relay.authorize_client("trusted-client")
    relay.submit("fn-chat", "ep-fake", {}, client_id="trusted-client")
    with pytest.raises(AuthorizationError):
        relay.submit("fn-chat", "ep-fake", {}, client_id="rogue")
    assert relay.queued_tasks == 1
    assert relay.stats.submitted == 1
    assert relay.stats.peak_queued == 1
    assert relay.stats.rejected == 1


def recount_queued(relay):
    """The pre-ledger ``queued_tasks``: scan every task the relay ever saw."""
    return sum(1 for t in relay._tasks.values() if not t.status.terminal)


@settings(max_examples=40, deadline=None)
@given(
    tasks=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=30.0),       # submit gap
                  st.sampled_from(["ep-ok", "ep-bad", "ep-remote"])),
        min_size=1, max_size=40),
    remote_delay=st.floats(min_value=0.0, max_value=20.0),
    stops=st.lists(st.floats(min_value=0.01, max_value=400.0), max_size=6),
)
def test_queued_tasks_ledger_matches_a_recount(tasks, remote_delay, stops):
    """``queued_tasks`` and ``peak_queued`` equal a full recount of the task
    table at every submit and at arbitrary stopping times, across succeeding,
    failing and partition-boundary tasks."""
    env = Environment()
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    relay.register_endpoint(FakeEndpoint(env, endpoint_id="ep-ok", delay=3.0))
    relay.register_endpoint(FakeEndpoint(env, endpoint_id="ep-bad", delay=5.0,
                                         succeed=False))
    proxy = RelayBoundaryProxy(env, "ep-remote", "remote", ["m"])
    relay.register_endpoint(proxy)
    peak = 0

    def check():
        nonlocal peak
        peak = max(peak, recount_queued(relay))
        assert relay.queued_tasks == recount_queued(relay)
        assert relay.stats.peak_queued == peak

    def submitter(env):
        for index, (gap, endpoint_id) in enumerate(tasks):
            yield env.timeout(gap)
            relay.submit("fn-chat", endpoint_id, {"x": index})
            check()

    def remote_partition(env):
        """Answers boundary tasks the way a cluster partition would."""
        while True:
            yield env.timeout(1.0)
            for message in proxy.drain_outbox():
                yield env.timeout(remote_delay)
                proxy.complete(message["task_id"],
                               {"success": message["seq"] % 3 != 0,
                                "result": None, "error": "remote boom"})

    done = env.process(submitter(env))
    env.process(remote_partition(env))
    for stop in sorted(set(stops)):
        if stop > env.now:
            env.run(until=stop)
            check()
    env.run(until=done)
    env.run(until=env.now + 40.0 * (remote_delay + 1.0) + 60.0)
    check()
    assert relay.queued_tasks == 0
    assert relay.stats.submitted == len(tasks)
    assert relay.stats.submitted == relay.stats.completed + relay.stats.failed


def test_submit_cost_is_independent_of_relay_history(monkeypatch):
    """After 20,000 completed tasks one more submit inspects no task's
    status — a count, not a clock, so a rescan cannot return silently."""
    env = Environment()
    relay, _ = make_relay(env, delay=0.0)
    for start in range(0, 20_000, 2_000):
        futures = [relay.submit("fn-chat", "ep-fake", {"x": i})
                   for i in range(start, start + 2_000)]
        env.run(until=futures[-1].done)
    assert relay.stats.completed == 20_000
    assert relay.queued_tasks == 0

    terminal_reads = 0
    plain_terminal = TaskStatus.terminal.fget

    def counting_terminal(status):
        nonlocal terminal_reads
        terminal_reads += 1
        return plain_terminal(status)

    monkeypatch.setattr(TaskStatus, "terminal", property(counting_terminal))
    relay.submit("fn-chat", "ep-fake", {"x": "one more"})
    assert relay.queued_tasks == 1
    assert relay.stats.peak_queued == 2_000
    assert terminal_reads == 0
    assert recount_queued(relay) == 1 and terminal_reads == 20_001  # the patch counts


def test_relay_routing_scalability_curve():
    """The per-result routing rate follows R(N) = R_max * N / (N + half)."""
    env = Environment()
    relay = RelayService(env, RelayConfig(routing_rate_max=66.0, routing_half_instances=7.0))
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    rates = {}
    for n in (1, 2, 3, 4):
        relay.register_endpoint(FakeEndpoint(env, endpoint_id=f"ep-{n}", instances=0))
        relay._endpoints[f"ep-{n}"].instances = 0
    # Directly exercise the service-time computation for various instance counts.
    for n in (1, 2, 3, 4):
        for ep in relay._endpoints.values():
            ep.instances = 0
        relay._endpoints["ep-1"].instances = n
        rates[n] = 1.0 / relay.result_service_time_s()
    assert rates[1] == pytest.approx(66.0 * 1 / 8, rel=1e-6)
    assert rates[4] == pytest.approx(66.0 * 4 / 11, rel=1e-6)
    # Matches the paper's Fig. 4 throughputs within ~10%.
    assert rates[1] == pytest.approx(8.3, rel=0.10)
    assert rates[2] == pytest.approx(14.6, rel=0.10)
    assert rates[3] == pytest.approx(20.9, rel=0.10)
    assert rates[4] == pytest.approx(23.9, rel=0.10)


# -- queue-depth-aware dispatch over candidate proxies ---------------------------
# The gateway partition picks among its cluster proxies; the relay forwards the
# task to the one endpoint id it is given.

def make_gateway(clusters):
    """A gateway partition over ``clusters`` proxies, plus a helper that feeds
    it one cluster's barrier snapshot."""
    scenario = FederatedScenario.demo(clusters=clusters)
    gateway = build_partition(scenario.partition_specs()[0])

    def snapshot(cluster, ready, waiting, in_flight, computed_at=0.0):
        gateway.apply_snapshots([PoolSignal(
            model=scenario.model, endpoint_id=f"ep-{cluster}", cluster=cluster,
            ready_instances=ready, starting_instances=0, draining_instances=0,
            queued_jobs=0, waiting_tasks=waiting, in_flight_tasks=in_flight,
            slots_per_instance=8, max_instances=4, cold_start_estimate_s=30.0,
            created_instances=ready, open_launches=0, computed_at=computed_at)])

    return gateway, snapshot


def route(gateway):
    return gateway._route().cluster_name


def test_candidate_list_bypasses_busy_endpoint():
    """The regression the dispatcher exists for: with two ready clusters,
    the one with the deeper backlog (waiting + in flight) is bypassed, and
    the relay forwards the workload's tasks to the other one."""
    gateway, snapshot = make_gateway(clusters=2)
    snapshot("cluster0", 1, 40, 30)
    snapshot("cluster1", 1, 0, 0)
    gateway.env.run(until=gateway._offsets[0] + gateway.spec.lookahead_s)
    destinations = [message.dst for message in gateway.collect_outbox()]
    assert destinations and set(destinations) == {2}  # cluster1's pid
    assert gateway.relay.stats.submitted == len(destinations)


def test_candidate_list_prefers_ready_instances_over_backlog():
    """A cluster with no ready instance loses to a ready one even when the
    ready one is more backlogged (a cold cluster means a scheduler wait)."""
    gateway, snapshot = make_gateway(clusters=3)
    snapshot("cluster0", 0, 0, 0)
    snapshot("cluster1", 1, 1, 3)
    snapshot("cluster2", 1, 2, 3)
    # cluster0 is cold with no backlog and loses to both ready clusters;
    # between those, cluster1's backlog of 4 beats cluster2's 5.
    assert route(gateway) == "cluster1"


def test_candidate_list_tie_breaks_in_candidate_order():
    gateway, snapshot = make_gateway(clusters=3)
    snapshot("cluster0", 1, 3, 0)
    snapshot("cluster1", 1, 0, 3)
    snapshot("cluster2", 1, 1, 2)
    assert route(gateway) == "cluster0"
    # The task just sent counts at once; the two untouched clusters tie at 3
    # and go in cluster order.
    assert route(gateway) == "cluster1"
    assert route(gateway) == "cluster2"
    assert route(gateway) == "cluster0"  # 4 against 4 against 4


def test_candidate_dispatch_tracks_live_backlog():
    """Each dispatch sees the backlog the previous ones created, so a burst
    spreads across equivalent clusters instead of piling onto the first —
    and sent tasks keep counting until a snapshot that includes them."""
    gateway, snapshot = make_gateway(clusters=2)
    snapshot("cluster0", 1, 0, 0)
    snapshot("cluster1", 1, 0, 0)
    picks = [route(gateway) for _ in range(6)]
    assert (picks.count("cluster0"), picks.count("cluster1")) == (3, 3)

    # The six tasks reach their clusters at the relay's stamp; a snapshot
    # taken earlier cannot include them, so cluster0's three still count
    # (3 + 3 against cluster1's 0 + 3).
    config = gateway.relay.config
    stamp = gateway.env.now + config.submit_latency_s + config.dispatch_latency_s
    snapshot("cluster0", 1, 3, 0, stamp / 2)
    assert route(gateway) == "cluster1"
    # A snapshot taken at their arrival speaks for them itself: 2 + 1 in
    # flight against cluster1's 0 + 4 unseen.
    snapshot("cluster0", 1, 2, 1, stamp)
    assert route(gateway) == "cluster0"


def test_task_record_timing_properties():
    record = TaskRecord(task_id="t", function_id="f", endpoint_id="e", payload={},
                        submit_time=1.0)
    assert record.queue_time_s is None
    assert record.total_time_s is None
    record.dispatch_time = 3.0
    record.completion_time = 10.0
    assert record.queue_time_s == 2.0
    assert record.total_time_s == 9.0
    assert record.to_dict()["status"] == "pending"
