"""Kernel window primitives and the conservative window planner.

Numpy-free on purpose: these tests cover the `run_until_horizon` kernel
hook, boundary-message ordering, window planning (including the
zero-lookahead micro-window guarantee) and the ping-ring null-message
exercise — all of which must hold on the pure-Python fallback CI job too.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    BoundaryMessage,
    Window,
    plan_window,
    run_ping_ring,
    sort_key,
    validate_arrival,
)
from repro.sim import Environment

INF = float("inf")


def _record_timeouts(env, delays, fired):
    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))


# ------------------------------------------------------------- run_until_horizon
@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=30),
    horizon=st.floats(min_value=0.0, max_value=100.0),
)
def test_property_exclusive_horizon_never_commits_at_or_past(delays, horizon):
    env = Environment()
    fired = []
    _record_timeouts(env, delays, fired)
    bound = env.run_until_horizon(horizon)
    assert all(t < horizon for t in fired)
    assert bound >= horizon
    # Exactly the sub-horizon delays committed, in nondecreasing time order.
    assert sorted(fired) == sorted(d for d in delays if d < horizon)
    assert fired == sorted(fired)


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=50.0),
                    min_size=1, max_size=30),
    horizon=st.floats(min_value=0.0, max_value=50.0),
)
def test_property_inclusive_horizon_commits_boundary_events(delays, horizon):
    env = Environment()
    fired = []
    _record_timeouts(env, delays, fired)
    bound = env.run_until_horizon(horizon, inclusive=True)
    assert all(t <= horizon for t in fired)
    assert bound > horizon
    assert sorted(fired) == sorted(d for d in delays if d <= horizon)


def test_horizon_resume_is_equivalent_to_one_run():
    delays = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    reference_env = Environment()
    reference = []
    _record_timeouts(reference_env, delays, reference)
    reference_env.run()

    env = Environment()
    fired = []
    _record_timeouts(env, delays, fired)
    for horizon in (1.0, 2.5, 2.5, 6.0, 100.0):
        env.run_until_horizon(horizon)
    assert fired == reference
    assert env.peek() == INF


# ------------------------------------------------------------- boundary messages
def _message(arrival, src=1, seq=0, kind="dispatch"):
    return BoundaryMessage(kind=kind, src=src, dst=0, seq=seq,
                           arrival_time=arrival, body={})


def test_sort_key_orders_by_arrival_then_source_then_seq():
    messages = [_message(2.0, src=1, seq=0), _message(1.0, src=2, seq=1),
                _message(1.0, src=1, seq=3), _message(1.0, src=1, seq=2)]
    ordered = sorted(messages, key=sort_key)
    assert [(m.arrival_time, m.src, m.seq) for m in ordered] == [
        (1.0, 1, 2), (1.0, 1, 3), (1.0, 2, 1), (2.0, 1, 0)]


def test_validate_arrival_rejects_past_deliveries():
    validate_arrival(_message(5.0), now=5.0)
    validate_arrival(_message(5.0), now=4.0)
    with pytest.raises(RuntimeError, match="causality"):
        validate_arrival(_message(3.0), now=4.0)


# ------------------------------------------------------------- window planning
def test_plan_window_exclusive_at_min_bound_plus_lookahead():
    window = plan_window({0: 10.0, 1: 4.0}, {0: 2.0, 1: 3.0})
    assert window == Window(time=7.0, inclusive=False)


def test_plan_window_zero_lookahead_degenerates_to_micro_window():
    window = plan_window({0: 4.0, 1: 6.0}, {0: 0.0, 1: 0.0})
    assert window == Window(time=4.0, inclusive=True)


def test_plan_window_micro_window_when_horizon_not_past_t_min():
    # The *other* partition's lookahead is what bounds this partition's
    # safety; a horizon landing exactly on t_min still needs inclusivity.
    window = plan_window({0: 5.0, 1: 5.0}, {0: 0.0, 1: 10.0})
    assert window.inclusive and window.time == 5.0


def test_plan_window_exhausted_returns_none():
    assert plan_window({0: INF, 1: INF}, {0: 1.0, 1: 1.0}) is None


def test_plan_window_single_idle_partition_ignores_infinite_bound():
    window = plan_window({0: 3.0, 1: INF}, {0: 1.0, 1: 1.0})
    assert window == Window(time=4.0, inclusive=False)
    assert not math.isinf(window.time)


# ------------------------------------------------------------- ping ring (null messages)
def _hops_seen(logs):
    return sorted(hop for log in logs.values() for _, hop in log)


def test_ping_ring_zero_lookahead_makes_progress():
    logs = run_ping_ring(partitions=3, hops=12, latency_s=0.0)
    assert _hops_seen(logs) == list(range(13))
    # Zero latency: the whole relay happens at simulated t=0.
    assert all(t == 0.0 for log in logs.values() for t, _ in log)


def test_ping_ring_latency_spaces_hops():
    logs = run_ping_ring(partitions=4, hops=8, latency_s=0.25)
    times = sorted(t for log in logs.values() for t, _ in log)
    assert times == [0.25 * i for i in range(9)]

