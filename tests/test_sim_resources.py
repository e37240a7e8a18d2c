"""Unit tests for Resource."""

import pytest

from repro.sim import Environment, Resource


def test_resource_capacity_enforced():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(env, res, name, hold):
        with res.request() as req:
            yield req
            log.append((name, "start", env.now))
            yield env.timeout(hold)
        log.append((name, "end", env.now))

    for i in range(4):
        env.process(user(env, res, f"u{i}", 10.0))
    env.run()

    starts = {name: t for name, kind, t in log if kind == "start"}
    assert starts["u0"] == 0.0
    assert starts["u1"] == 0.0
    assert starts["u2"] == 10.0
    assert starts["u3"] == 10.0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_counts_and_queue():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(5.0)

    def observer(env, res, snapshots):
        yield env.timeout(1.0)
        snapshots.append((res.count, res.queued))

    snapshots = []
    env.process(holder(env, res))
    env.process(holder(env, res))
    env.process(observer(env, res, snapshots))
    env.run()
    assert snapshots == [(1, 1)]


def test_resource_release_of_queued_request_withdraws_it():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def first(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(10.0)
            order.append(("first-done", env.now))

    def second_gives_up(env, res):
        req = res.request()
        yield env.timeout(2.0)
        res.release(req)  # withdraw while still queued
        order.append(("second-gave-up", env.now))

    def third(env, res):
        yield env.timeout(3.0)
        with res.request() as req:
            yield req
            order.append(("third-start", env.now))

    env.process(first(env, res))
    env.process(second_gives_up(env, res))
    env.process(third(env, res))
    env.run()
    assert ("second-gave-up", 2.0) in order
    assert ("third-start", 10.0) in order
