"""Property-based tests for the simulation kernel.

These exercise the invariants every higher-level substrate relies on:
deterministic ordering, monotonic time and resource conservation under
arbitrary programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50))
def test_property_events_processed_in_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay, idx):
        yield env.timeout(delay)
        fired.append((env.now, idx))

    for i, delay in enumerate(delays):
        env.process(waiter(env, delay, i))
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    assert env.now == pytest.approx(max(delays))


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=30))
def test_property_same_seed_same_schedule_is_deterministic(delays):
    def run_once():
        env = Environment()
        order = []

        def proc(env, d, i):
            yield env.timeout(d)
            order.append(i)

        for i, d in enumerate(delays):
            env.process(proc(env, d, i))
        env.run()
        return order

    assert run_once() == run_once()


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=40),
)
def test_property_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    max_observed = {"users": 0}

    def user(env, resource, hold):
        with resource.request() as req:
            yield req
            max_observed["users"] = max(max_observed["users"], resource.count)
            assert resource.count <= capacity
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(env, resource, hold))
    env.run()
    assert max_observed["users"] <= capacity
    assert resource.count == 0
    assert resource.queued == 0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=30), hold=st.floats(min_value=0.5, max_value=5.0))
def test_property_fifo_resource_grants_in_arrival_order(n, hold):
    env = Environment()
    resource = Resource(env, capacity=1)
    grant_order = []

    def user(env, resource, idx):
        yield env.timeout(idx * 0.001)  # strictly increasing arrival order
        with resource.request() as req:
            yield req
            grant_order.append(idx)
            yield env.timeout(hold)

    for i in range(n):
        env.process(user(env, resource, i))
    env.run()
    assert grant_order == list(range(n))
