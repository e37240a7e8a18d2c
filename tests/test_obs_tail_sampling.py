"""Tail-based trace sampling: shape predicates, retention ring, stats."""

from repro.obs import ObservabilityConfig, Tracer, TraceShape
from repro.sim import Environment


def _finish_trace(tracer, trace_id, *, error=False, clusters=("local",),
                  spans=1, duration=0.0):
    ctx = tracer.begin(trace_id)
    parent = None
    for index in range(spans):
        span = ctx.start_span(
            f"op{index}", parent=parent, layer="gateway" if index == 0 else "relay",
            attrs={"cluster": clusters[index % len(clusters)]})
        parent = parent or span
    if error:
        span.status = "error"
    if duration:  # let simulated time pass inside the trace

        def wait(env):
            yield env.timeout(duration)

        tracer.env.process(wait(tracer.env))
        tracer.env.run()
    for span in ctx.spans:
        ctx.end_span(span)
    return ctx, tracer.finish(ctx)


def test_shape_summarises_spans_errors_layers_and_hops():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(sample_rate=1.0))
    ctx, _ = _finish_trace(tracer, "t0", error=True,
                           clusters=("sophia", "polaris"), spans=4)
    shape = TraceShape.from_context(ctx)
    assert shape.trace_id == "t0"
    assert shape.span_count == 4
    assert shape.error_spans == 1
    assert shape.layers == ("gateway", "relay")
    assert shape.clusters == ("polaris", "sophia")
    assert shape.cross_cluster_hops == 1


def test_tail_predicate_keeps_errors_despite_zero_head_rate():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(
        sample_rate=0.0, slowest_k=0,
        tail_predicate=lambda shape: shape.error_spans > 0))
    kept = []
    for index in range(8):
        ctx, retained = _finish_trace(tracer, f"t{index}", error=index % 3 == 0)
        assert ctx.recording  # tail tier forces span recording
        if retained:
            kept.append(ctx.trace_id)
    assert kept == ["t0", "t3", "t6"]
    assert tracer.tail_ids() == kept
    assert tracer.stats()["kept_tail"] == 3
    assert sorted(tracer.trace_ids()) == kept


def test_tail_predicate_sees_cross_cluster_hops():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(
        sample_rate=0.0, slowest_k=0,
        tail_predicate=lambda shape: shape.cross_cluster_hops >= 1))
    _, single = _finish_trace(tracer, "local", clusters=("sophia",), spans=2)
    _, multi = _finish_trace(tracer, "federated",
                             clusters=("sophia", "polaris"), spans=2)
    assert not single and multi
    assert tracer.tail_ids() == ["federated"]


def test_tail_ring_evicts_fifo_at_capacity():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(
        sample_rate=0.0, slowest_k=0, max_tail_traces=2,
        tail_predicate=lambda shape: True))
    for index in range(5):
        _finish_trace(tracer, f"t{index}")
    assert tracer.tail_ids() == ["t3", "t4"]
    assert tracer.get("t0") is None
    assert tracer.get("t4") is not None
    assert tracer.stats()["kept_tail"] == 5
    assert tracer.stats()["retained"] == 2


def test_tail_and_slowest_tiers_protect_each_others_traces():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(
        sample_rate=0.0, slowest_k=1, max_tail_traces=1,
        tail_predicate=lambda shape: shape.error_spans > 0))
    _finish_trace(tracer, "slow", duration=10.0)
    _finish_trace(tracer, "bad", error=True)
    # "bad" (duration 0) is not among the slowest-1 but the tail ring holds
    # it; "slow" stays via the reservoir.
    assert tracer.get("slow") is not None
    assert tracer.get("bad") is not None
    _finish_trace(tracer, "bad2", error=True)
    # tail ring capacity 1: "bad" evicted from the ring and dropped (it is
    # in no other tier), "slow" untouched.
    assert tracer.tail_ids() == ["bad2"]
    assert tracer.get("bad") is None
    assert tracer.get("slow") is not None


def test_no_tail_predicate_keeps_recording_decision_unchanged():
    env = Environment()
    tracer = Tracer(env, ObservabilityConfig(sample_rate=0.0, slowest_k=0))
    ctx = tracer.begin("t0")
    assert not ctx.recording
    stats = tracer.stats()
    assert stats["kept_tail"] == 0
