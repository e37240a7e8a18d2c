"""Tests for the tracing layer itself: span recording, retention policy,
sampling determinism and the kernel profiler's no-op guarantee."""

import pytest

from repro.obs import KernelProfiler, ObservabilityConfig, Tracer, span_tree
from repro.sim import Environment


# -- span recording -------------------------------------------------------------

def test_span_recording_and_tree():
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.begin("t1")
    root = ctx.start_span("root", layer="gateway")
    child = ctx.start_span("child", parent=root, layer="relay")
    ctx.event(child, "hop", t=1.5, endpoint="ep")
    ctx.end_span(child, t=2.0)
    ctx.end_span(root, t=3.0)
    tracer.finish(ctx)

    data = ctx.to_dict()
    assert data["trace_id"] == "t1"
    assert data["finished_at"] == 0.0  # env never advanced
    roots = span_tree(data["spans"])
    assert len(roots) == 1
    assert roots[0]["name"] == "root"
    assert [c["name"] for c in roots[0]["children"]] == ["child"]
    assert roots[0]["children"][0]["events"] == [
        {"time": 1.5, "name": "hop", "attrs": {"endpoint": "ep"}}]
    assert ctx.find_spans("child")[0].duration_s == 2.0


def test_span_cap_counts_dropped_spans():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(max_spans_per_trace=2))
    ctx = tracer.begin("t1")
    spans = [ctx.start_span(f"s{i}") for i in range(5)]
    # Overflow spans still behave like spans (no caller branching needed).
    ctx.end_span(spans[-1])
    assert len(ctx.spans) == 2
    assert ctx.dropped_spans == 3


# -- retention ------------------------------------------------------------------

def _run_traces(tracer, durations):
    env = tracer.env
    for i, duration in enumerate(durations):
        ctx = tracer.begin(f"t{i}")
        env.run(until=env.now + duration)
        tracer.finish(ctx)


def test_head_ring_evicts_fifo():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(sample_rate=1.0, slowest_k=0, max_traces=3))
    _run_traces(tracer, [1.0] * 5)
    assert tracer.trace_ids() == ["t2", "t3", "t4"]
    assert tracer.get("t0") is None
    assert tracer.stats()["kept_head"] == 5  # decisions, not survivors


def test_slowest_reservoir_survives_zero_sampling():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(sample_rate=0.0, slowest_k=2))
    _run_traces(tracer, [1.0, 5.0, 0.5, 3.0, 2.0])
    # Only the two slowest are retained, regardless of head sampling.
    assert tracer.trace_ids() == ["t1", "t3"]
    assert [tid for _, tid in tracer.slowest()] == ["t1", "t3"]
    assert not tracer.get("t1").sampled


def test_slow_reservoir_protects_traces_from_head_eviction():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(sample_rate=1.0, slowest_k=1, max_traces=2))
    _run_traces(tracer, [9.0, 1.0, 1.0, 1.0])
    # t0 fell out of the head ring but is pinned by the slowest-K reservoir.
    assert tracer.get("t0") is not None
    assert tracer.trace_ids() == ["t0", "t2", "t3"]


# -- sampling determinism -------------------------------------------------------

def test_hash_sampling_is_deterministic_and_order_independent():
    env = Environment()
    ids = [f"req-{i}" for i in range(400)]
    a = Tracer(env, ObservabilityConfig(sample_rate=0.3, seed=7))
    b = Tracer(env, ObservabilityConfig(sample_rate=0.3, seed=7))
    decisions_a = [a._head_decision(tid) for tid in ids]
    decisions_b = [b._head_decision(tid) for tid in reversed(ids)]
    assert decisions_a == list(reversed(decisions_b))
    assert 0.15 < sum(decisions_a) / len(ids) < 0.45
    # A different seed flips some decisions.
    c = Tracer(env, ObservabilityConfig(sample_rate=0.3, seed=8))
    assert [c._head_decision(tid) for tid in ids] != decisions_a


def test_sampling_extremes_skip_the_draw():
    env = Environment()
    always = Tracer(env, ObservabilityConfig(sample_rate=1.0))
    never = Tracer(env, ObservabilityConfig(sample_rate=0.0))
    assert always._head_decision("x") is True
    assert never._head_decision("x") is False


# -- kernel profiler ------------------------------------------------------------

def _tick(env, n):
    def proc():
        for _ in range(n):
            yield env.timeout(1.0)
    env.process(proc())
    env.run()


def test_profiler_attach_detach_restores_plain_step():
    env = Environment()
    assert "step" not in env.__dict__  # unprofiled: plain class method
    profiler = KernelProfiler()
    env.attach_profiler(profiler)
    assert env.profiler is profiler
    _tick(env, 10)
    env.detach_profiler()
    assert env.profiler is None
    assert "step" not in env.__dict__
    assert profiler.events_total > 0
    assert profiler.sim_s == pytest.approx(10.0)
    snap = profiler.snapshot()
    assert snap["events_total"] == profiler.events_total
    assert "Timeout" in snap["events_by_type"]
    # Further simulation is no longer observed.
    before = profiler.events_total
    _tick(env, 5)
    assert profiler.events_total == before


def test_profiler_is_observe_only():
    def signature(profiled):
        env = Environment()
        if profiled:
            env.attach_profiler(KernelProfiler(sample_every=1))
        times = []

        def proc(delay):
            yield env.timeout(delay)
            times.append(env.now)
            yield env.timeout(delay * 0.5)
            times.append(env.now)

        for d in (0.3, 1.7, 0.9):
            env.process(proc(d))
        env.run()
        return times

    assert signature(False) == signature(True)


def test_profiler_decimates_queue_depth_samples():
    profiler = KernelProfiler(sample_every=1, max_samples=8)
    for i in range(100):
        profiler.on_event(float(i), object(), queue_depth=i)
    assert len(profiler.queue_depth_samples) < 8
    profiler.on_window(4, 2.0)
    profiler.on_window(2, 6.0)
    snap = profiler.snapshot()
    assert snap["windows"] == 2
    assert snap["window_iterations"] == 6
    assert snap["max_window_width_s"] == 6.0
    assert snap["mean_window_width_s"] == pytest.approx(4.0)
