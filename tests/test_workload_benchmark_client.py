"""Tests for the benchmark client's single arrival driver."""

from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import InferenceRequest
from repro.sim import Environment
from repro.workload import BenchmarkClient, TraceReplayArrival, UniformArrival


def _requests(n):
    return [InferenceRequest(f"r{i}", "m", prompt_tokens=10, max_output_tokens=5)
            for i in range(n)]


class _EchoTarget:
    """Resolves every request ``service_s`` after its submission."""

    name = "echo"

    def __init__(self, env, service_s=0.5):
        self.env = env
        self.service_s = service_s
        self.sent = []

    def submit(self, request):
        self.sent.append((request.request_id, self.env.now))
        result = SimpleNamespace(success=True, output_tokens=5, metadata={})
        return self.env.timeout(self.service_s, value=result)


class _RaisingTarget:
    name = "raising"

    def submit(self, request):
        raise ValueError("queue full")


class _FailingTarget:
    """Fails every request's event one simulated second after submission."""

    name = "failing"

    def __init__(self, env):
        self.env = env

    def submit(self, request):
        event = self.env.event()
        self.env.timeout(1.0).callbacks.append(
            lambda _: event.fail(RuntimeError("endpoint lost")))
        return event


def _run(env, target, requests, arrival):
    bench = BenchmarkClient(env, target)
    summary = env.run(until=env.process(bench.run(requests, arrival=arrival)))
    return bench, summary


@settings(max_examples=60, deadline=None)
@given(
    start=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)),
                  min_size=1, max_size=30),
)
def test_each_request_is_sent_at_the_instant_a_relative_timeout_fired(start, gaps):
    offsets = list(accumulate(gaps))  # non-decreasing, with zeros and ties
    env = Environment(initial_time=start)
    target = _EchoTarget(env)
    requests = _requests(len(offsets))
    bench, summary = _run(env, target, requests, TraceReplayArrival(offsets))

    # Where a per-request ``timeout(send_at - start)`` taken at the start fired.
    expected = [start + ((start + offset) - start) if start + offset > start else start
                for offset in offsets]
    # Bit for bit, and equal times in request order.
    assert target.sent == [(r.request_id, t) for r, t in zip(requests, expected)]
    assert {r.request_id: r.send_time for r in bench.collector.records} == {
        r.request_id: t for r, t in zip(requests, expected)}
    assert summary.num_requests == summary.num_successful == len(requests)


def test_a_submit_that_raises_gives_one_terminal_record_per_request():
    env = Environment()
    bench, summary = _run(env, _RaisingTarget(), _requests(5), UniformArrival(2.0))
    records = bench.collector.records
    assert [r.request_id for r in records] == [f"r{i}" for i in range(5)]
    assert all(not r.success and r.error == "ValueError: queue full" for r in records)
    assert all(r.completion_time == r.send_time for r in records)
    assert summary.num_successful == 0


def test_a_failed_target_event_gives_one_terminal_record_per_request():
    env = Environment()
    bench, summary = _run(env, _FailingTarget(env), _requests(5), UniformArrival(2.0))
    records = bench.collector.records
    assert sorted(r.request_id for r in records) == [f"r{i}" for i in range(5)]
    assert all(not r.success and r.error == "RuntimeError: endpoint lost" for r in records)
    assert all(r.completion_time == r.send_time + 1.0 for r in records)
    assert summary.num_requests == 5 and summary.num_successful == 0


def test_decreasing_offsets_are_rejected():
    class Backwards(UniformArrival):
        def offsets(self, n):
            return [1.0, 0.5][:n]

    env = Environment()
    bench = BenchmarkClient(env, _EchoTarget(env))
    with pytest.raises(ValueError, match="non-decreasing"):
        env.run(until=env.process(bench.run(_requests(2), arrival=Backwards(1.0))))


class _DepthProbe:
    """Kernel profiler that keeps the largest pending-event count it saw."""

    peak = 0

    def on_event(self, now, event, depth):
        self.peak = max(self.peak, depth)


@pytest.mark.parametrize("n", [20, 400])
def test_pending_events_are_bounded_by_requests_in_flight_not_by_n(n):
    env = Environment()
    probe = _DepthProbe()
    env.attach_profiler(probe)
    # One request per second, each served in half a second: at most one is
    # in flight, beside the driver's own wait.
    bench, summary = _run(env, _EchoTarget(env, service_s=0.5), _requests(n),
                          UniformArrival(1.0))
    assert summary.num_successful == n
    assert probe.peak <= 2
