"""Golden-trace and property tests for engine macro-stepping.

The macro-stepped engine must reproduce the per-token reference loop
(`EngineConfig(macro_stepping=False)`) *exactly* in simulated time: same
per-request timings, same stats, same KV accounting, same preemptions.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import A100_40GB, dgx_a100_spec
from repro.obs.trace import TRACE_KEY, TraceContext
from repro.serving import (
    ContinuousBatchingEngine,
    EngineConfig,
    InferenceRequest,
    PerformanceModel,
    default_catalog,
)
from repro.serving.stream import STREAM_CHANNEL_KEY, StreamChannel
from repro.sim import Environment
from repro.workload import PoissonArrival, ShareGPTWorkload

CATALOG = default_catalog()
SPEC_70B = CATALOG.get("Llama-3.3-70B")
SPEC_8B = CATALOG.get("Llama-3.1-8B")

RESULT_FIELDS = (
    "request_id",
    "success",
    "error",
    "prompt_tokens",
    "output_tokens",
    "engine_enqueue_time",
    "prefill_start_time",
    "first_token_time",
    "completion_time",
)


def result_trace(result):
    return tuple(getattr(result, f) for f in RESULT_FIELDS)


def make_engine(env, macro, spec=SPEC_70B, tp=8, kv_capacity=None, max_num_seqs=256,
                generate_text=False, block_size=16):
    perf = PerformanceModel(spec, tp, A100_40GB, node_spec=dgx_a100_spec())
    if kv_capacity is not None:
        class TinyKV(PerformanceModel):
            def kv_capacity_tokens(self, vram_utilization=0.9):
                return kv_capacity
        perf = TinyKV(spec, tp, A100_40GB, node_spec=dgx_a100_spec())
    config = EngineConfig(generate_text=generate_text, macro_stepping=macro,
                          max_num_seqs=max_num_seqs, kv_block_size=block_size)
    return ContinuousBatchingEngine(env, perf, config)


def run_trace(macro, requests, offsets, kv_capacity=None, stream_indices=(),
              stop_at=None, drain_at=None, max_num_seqs=256,
              read_live=True, generate_text=False, block_size=16):
    """Drive one engine over a timed workload; returns the full golden trace.

    Streams are read token by token while the engine runs, or — with
    ``read_live=False`` — left alone and read off their channels afterwards
    (``unread`` then holds what each channel held: item kinds, as published).
    """
    env = Environment()
    engine = make_engine(env, macro, kv_capacity=kv_capacity,
                         max_num_seqs=max_num_seqs, generate_text=generate_text,
                         block_size=block_size)
    stream_events = {}
    channels = {}
    events = []

    def consume(channel, sink):
        while True:
            item = yield channel.get()
            if item is None:
                return
            sink.append((item.kind, item.index, item.time, item.text))

    def driver(env):
        last = 0.0
        for i, (request, offset) in enumerate(zip(requests, offsets)):
            if offset > last:
                yield env.timeout(offset - last)
                last = offset
            if i in stream_indices:
                channel = StreamChannel(env)
                request.stream = True
                request.metadata[STREAM_CHANNEL_KEY] = channel
                stream_events[i] = []
                channels[i] = channel
                if read_live:
                    env.process(consume(channel, stream_events[i]))
            events.append(engine.submit(request))

    def stopper(env):
        yield env.timeout(stop_at)
        engine.stop()

    def drainer(env):
        yield env.timeout(drain_at)
        engine.drain()

    env.process(driver(env))
    if stop_at is not None:
        env.process(stopper(env))
    if drain_at is not None:
        env.process(drainer(env))
    env.run()
    trace = {
        "results": [result_trace(ev.value) for ev in events],
        "stats": engine.stats.snapshot(),
        "allocation_failures": engine.kv.allocation_failures,
        "preemptions": engine.kv.preemptions,
        "kv_used": engine.kv.used_blocks,
        "end_time": env.now,
        "streams": stream_events,
    }
    if not read_live:
        trace["unread"] = {i: [item.kind for item in channel._items]
                           for i, channel in channels.items()}
        for i, channel in channels.items():
            env.run(until=env.process(consume(channel, stream_events[i])))
    return trace


def fresh_requests(lengths, model=SPEC_70B.name):
    return [
        InferenceRequest(f"g-{i:04d}", model, prompt_tokens=p, max_output_tokens=o)
        for i, (p, o) in enumerate(lengths)
    ]


def test_golden_trace_poisson_workload_is_bit_identical():
    """Fixed seed, Poisson arrivals: every timing field matches exactly."""
    workload = ShareGPTWorkload()
    offsets = PoissonArrival(rate=4.0, seed=11).offsets(120)
    golden = run_trace(False, workload.generate(SPEC_70B.name, num_requests=120), offsets)
    macro = run_trace(True, workload.generate(SPEC_70B.name, num_requests=120), offsets)
    assert macro == golden


def test_golden_trace_with_streaming_request_mid_batch():
    """A streaming consumer in the middle of the batch sees identical
    per-token events, and the surrounding requests keep identical timings."""
    lengths = [(64, 40), (128, 60), (96, 25), (200, 80), (50, 35), (80, 50)]
    offsets = [0.0, 0.1, 0.25, 0.4, 0.9, 1.4]
    golden = run_trace(False, fresh_requests(lengths), offsets, stream_indices={2})
    macro = run_trace(True, fresh_requests(lengths), offsets, stream_indices={2})
    assert macro["streams"][2]  # the consumer actually saw tokens
    assert macro == golden


def test_golden_trace_all_at_once_burst():
    """Infinite-rate burst (everything at t=0) matches exactly."""
    workload = ShareGPTWorkload()
    offsets = [0.0] * 150
    golden = run_trace(False, workload.generate(SPEC_70B.name, num_requests=150), offsets)
    macro = run_trace(True, workload.generate(SPEC_70B.name, num_requests=150), offsets)
    assert macro == golden


def test_golden_trace_stop_mid_run():
    """stop() mid-run reports identical partial progress in both modes."""
    lengths = [(100, 300), (120, 280), (90, 260), (110, 240)]
    offsets = [0.0, 0.0, 0.5, 0.5]
    golden = run_trace(False, fresh_requests(lengths), offsets, stop_at=3.0)
    macro = run_trace(True, fresh_requests(lengths), offsets, stop_at=3.0)
    # The queue-drain time differs (the collapsed window timeout outlives the
    # stop), but every result, stat and KV counter must match exactly.
    golden.pop("end_time")
    macro.pop("end_time")
    assert macro == golden
    assert all(not trace[1] for trace in macro["results"])  # everything failed


def test_submit_then_stop_in_one_callback_does_not_double_count_busy_time():
    """A submit() immediately followed by stop() while a window is in flight
    queues a window-split interrupt that is delivered *after* the stop; the
    abandoned window must not be accounted twice."""

    def run(macro):
        env = Environment()
        engine = make_engine(env, macro)
        events = [engine.submit(InferenceRequest(
            "bt-0", SPEC_70B.name, prompt_tokens=80, max_output_tokens=200))]

        def submit_then_stop(env):
            yield env.timeout(2.0)  # mid-window for the macro engine
            events.append(engine.submit(InferenceRequest(
                "bt-1", SPEC_70B.name, prompt_tokens=80, max_output_tokens=200)))
            engine.stop()

        env.process(submit_then_stop(env))
        env.run()
        return engine.stats.snapshot(), [event.value.output_tokens for event in events]

    stats, progress = run(True)
    assert (stats, progress) == run(False)
    # The running sequence's token count is derived from the engine epoch and
    # written back by stop(): it must report the tokens of the boundaries passed.
    assert 0 < progress[0] < 200 and progress[1] == 0
    assert stats["output_tokens"] == progress[0]


@pytest.mark.parametrize("macro", [True, False])
def test_unservable_head_of_line_request_fails_instead_of_parking_the_queue(macro):
    """A prompt the whole KV pool cannot hold used to stay at the head of the
    queue forever, with everything behind it: it now fails as soon as the
    pool is empty and still too small, and the queue moves on."""
    lengths = [(60, 20), (1000, 10), (60, 30), (1000, 10)]
    trace = run_trace(macro, fresh_requests(lengths), [0.0, 0.0, 0.0, 0.1],
                      kv_capacity=256, stream_indices={1})
    assert [(ok, error) for _id, ok, error, *_ in trace["results"]] == [
        (True, None), (False, "KV cache exhausted"),
        (True, None), (False, "KV cache exhausted")]
    assert [r[4] for r in trace["results"]] == [20, 0, 30, 0]
    assert trace["stats"]["failed"] == 2 and trace["stats"]["completed"] == 2
    assert trace["streams"][1] == []  # closed without a token, consumer released
    assert trace["kv_used"] == 0
    # While a small request runs, the big one behind it is retried (and
    # counted) like any blocked admission; it fails once the pool is empty.
    assert trace["allocation_failures"] > 2
    assert trace == run_trace(not macro, fresh_requests(lengths), [0.0, 0.0, 0.0, 0.1],
                              kv_capacity=256, stream_indices={1})


def test_stop_counts_each_failed_sequence_exactly_once():
    env = Environment()
    engine = make_engine(env, macro=True)
    for i in range(5):
        engine.submit(InferenceRequest(f"s-{i}", SPEC_70B.name, prompt_tokens=50,
                                       max_output_tokens=100))

    def stopper(env):
        yield env.timeout(1.0)
        engine.stop()
        engine.stop()  # idempotent: second stop finds nothing outstanding

    env.process(stopper(env))
    env.run()
    assert engine.stats.failed == 5
    assert engine.stats.submitted == 5
    assert engine.is_idle
    assert engine.kv.used_blocks == 0


@settings(max_examples=20, deadline=None)
@given(
    lengths=st.lists(
        st.tuples(st.integers(min_value=50, max_value=500),
                  st.integers(min_value=5, max_value=150)),
        min_size=4,
        max_size=24,
    ),
    kv_capacity=st.integers(min_value=1200, max_value=4000),
)
def test_property_macro_stepping_never_skips_kv_preemption(lengths, kv_capacity):
    """Under KV pressure, macro-stepping falls back to per-token stepping and
    reproduces every preemption (and every other outcome) of the reference
    engine — it never glosses over a pressure event inside a window."""
    offsets = [0.0] * len(lengths)
    golden = run_trace(False, fresh_requests(lengths), offsets, kv_capacity=kv_capacity)
    macro = run_trace(True, fresh_requests(lengths), offsets, kv_capacity=kv_capacity)
    assert macro["preemptions"] == golden["preemptions"]
    assert macro["stats"]["preempted"] == golden["stats"]["preempted"]
    assert macro == golden


def test_interrupted_window_releases_unexecuted_kv_reservation():
    """A window abandoned by a mid-flight submission must leave the KV pool
    in the exact per-token state: the end-of-window growth probed at planning
    time must not stay reserved, or the newcomer's admission (and any
    resulting preemption) diverges from the reference engine."""
    lengths = [(100, 400), (100, 400), (100, 50)]
    offsets = [0.0, 0.0, 5.0]  # the third request interrupts a long window
    golden = run_trace(False, fresh_requests(lengths), offsets, kv_capacity=1100)
    macro = run_trace(True, fresh_requests(lengths), offsets, kv_capacity=1100)
    assert macro == golden


@settings(max_examples=15, deadline=None)
@given(
    lengths=st.lists(
        st.tuples(st.integers(min_value=50, max_value=400),
                  st.integers(min_value=5, max_value=150)),
        min_size=2,
        max_size=10,
    ),
    kv_capacity=st.integers(min_value=1500, max_value=3000),
    rate=st.floats(min_value=0.2, max_value=2.0),
)
def test_property_kv_pressure_with_staggered_arrivals(lengths, kv_capacity, rate):
    """KV pressure plus arrivals that interrupt in-flight windows: every
    admission, preemption and timing must still match the reference loop.

    The domain is bounded (modest outputs, KV that fits several sequences):
    deeper starvation regimes make the *reference* engine thrash through
    quadratic preemption restarts, which is a cost problem, not a divergence
    one — equivalence there is covered by the deterministic tests above."""
    offsets = PoissonArrival(rate=rate, seed=13).offsets(len(lengths))
    golden = run_trace(False, fresh_requests(lengths), offsets, kv_capacity=kv_capacity)
    macro = run_trace(True, fresh_requests(lengths), offsets, kv_capacity=kv_capacity)
    assert macro == golden


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    rate=st.floats(min_value=0.5, max_value=30.0),
    max_seqs=st.integers(min_value=1, max_value=8),
)
def test_property_macro_equivalence_under_bounded_concurrency(n, rate, max_seqs):
    workload = ShareGPTWorkload()
    offsets = PoissonArrival(rate=rate, seed=3).offsets(n)
    golden = run_trace(False, workload.generate(SPEC_8B.name, num_requests=n),
                       offsets, max_num_seqs=max_seqs)
    macro = run_trace(True, workload.generate(SPEC_8B.name, num_requests=n),
                      offsets, max_num_seqs=max_seqs)
    assert macro == golden


def test_golden_trace_controller_drain_mid_window():
    """An autoscale controller draining the engine mid-macro-window (a scale
    event) splits the window like an admission does; every request still
    completes with timings bit-identical to the per-token engine."""
    lengths = [(100, 300), (120, 280), (90, 260), (110, 240)]
    offsets = [0.0, 0.0, 0.5, 0.5]
    golden = run_trace(False, fresh_requests(lengths), offsets, drain_at=7.0)
    macro = run_trace(True, fresh_requests(lengths), offsets, drain_at=7.0)
    assert macro == golden
    assert all(trace[1] for trace in macro["results"])  # all succeeded


def test_golden_trace_drain_then_stop():
    """Scale-down drain followed by a hard terminate: partial progress at the
    stop must match the reference engine exactly."""
    lengths = [(100, 300), (120, 280), (90, 260), (110, 240)]
    offsets = [0.0, 0.0, 0.5, 0.5]
    golden = run_trace(False, fresh_requests(lengths), offsets,
                       drain_at=3.0, stop_at=9.0)
    macro = run_trace(True, fresh_requests(lengths), offsets,
                      drain_at=3.0, stop_at=9.0)
    # Same queue-drain caveat as test_golden_trace_stop_mid_run.
    golden.pop("end_time")
    macro.pop("end_time")
    assert macro == golden


@settings(max_examples=15, deadline=None)
@given(
    drain_at=st.floats(min_value=0.1, max_value=60.0),
    rate=st.floats(min_value=0.5, max_value=8.0),
    n=st.integers(min_value=2, max_value=20),
)
def test_property_drain_is_equivalence_preserving(drain_at, rate, n):
    """Wherever the controller's scale event lands — inside a window, at a
    boundary, before admission, after completion — splitting the window must
    not perturb any simulated timing."""
    workload = ShareGPTWorkload()
    offsets = PoissonArrival(rate=rate, seed=5).offsets(n)
    golden = run_trace(False, workload.generate(SPEC_70B.name, num_requests=n),
                       offsets, drain_at=drain_at)
    macro = run_trace(True, workload.generate(SPEC_70B.name, num_requests=n),
                      offsets, drain_at=drain_at)
    assert macro == golden


def test_macro_stepping_uses_fewer_kernel_events():
    """The point of the exercise: same simulated outcome, far fewer events."""

    def count_steps(macro):
        env = Environment()
        engine = make_engine(env, macro)
        steps = 0
        original = env.step

        def counting_step():
            nonlocal steps
            steps += 1
            original()

        env.step = counting_step
        events = [
            engine.submit(InferenceRequest(f"c-{i}", SPEC_70B.name, prompt_tokens=100,
                                           max_output_tokens=150))
            for i in range(4)
        ]
        env.run(until=env.all_of(events))
        return steps

    assert count_steps(True) * 5 < count_steps(False)


def _run_streaming_unconsumed(macro):
    """One streaming request nobody reads plus a plain neighbour; returns the
    per-token event trace a consumer attaching afterwards reads off the
    channel, and the kernel-event count of the generation itself."""
    env = Environment()
    engine = make_engine(env, macro)
    channel = StreamChannel(env)
    request = InferenceRequest("ns-0", SPEC_70B.name, prompt_tokens=80,
                               max_output_tokens=120)
    request.stream = True
    request.metadata[STREAM_CHANNEL_KEY] = channel
    steps = 0
    original = env.step

    def counting_step():
        nonlocal steps
        steps += 1
        original()

    env.step = counting_step
    done = engine.submit(request)
    other = engine.submit(InferenceRequest("ns-1", SPEC_70B.name, prompt_tokens=60,
                                           max_output_tokens=90))
    env.run(until=env.all_of([done, other]))
    generation_steps = steps
    # Nobody read during generation: the channel holds one batch and ``done``.
    assert [item.kind for item in channel._items] == ["tokens", "done"]
    trace = []
    while True:
        item = env.run(until=channel.get())
        if item is None:
            break
        trace.append((item.kind, item.index, item.time))
    return trace, generation_steps


def test_unconsumed_stream_macro_steps_with_identical_events():
    """A streaming channel nobody is reading must not force per-token
    stepping: the macro engine hands over the same event sequence (same
    kinds, indices and production times, once the batch is expanded) with
    far fewer kernel events."""
    macro_trace, macro_steps = _run_streaming_unconsumed(True)
    ref_trace, ref_steps = _run_streaming_unconsumed(False)
    assert macro_trace == ref_trace
    assert macro_trace[-1][0] == "done"
    assert len(macro_trace) == 121  # 120 tokens + done
    assert macro_steps * 5 < ref_steps


def check_stream_law(lengths, offsets, kv_capacity=None, stop_at=None,
                     generate_text=False):
    """Every request streamed, in all four modes (per-token / macro engine ×
    read live / left unread): one token sequence per request, each generated
    token in it exactly once, and nothing but one batch ahead of the terminal
    event on a channel nobody read.  Returns the reference run."""
    runs = {
        (macro, live): run_trace(
            macro, fresh_requests(lengths), offsets, kv_capacity=kv_capacity,
            stream_indices=range(len(lengths)), stop_at=stop_at, read_live=live,
            generate_text=generate_text)
        for macro in (False, True) for live in (True, False)
    }
    for (_macro, live), run in runs.items():
        run.pop("end_time")  # mode-dependent after a stop (see the module docstring)
        if not live:
            for i, kinds in run.pop("unread").items():
                success = run["results"][i][1]
                assert kinds in ([], ["tokens"], ["tokens", "done"]), kinds
                assert (kinds[-1:] == ["done"]) == success
    reference = runs[(False, True)]
    for mode, run in runs.items():
        assert run == reference, mode
    for i, events in reference["streams"].items():
        _id, success, _error, _prompt, output_tokens = reference["results"][i][:5]
        tokens = [event for event in events if event[0] == "token"]
        assert [event[1] for event in tokens] == list(range(len(tokens)))
        assert [event[2] for event in tokens] == sorted(event[2] for event in tokens)
        if success:
            assert len(tokens) == output_tokens
            assert events[len(tokens):] == [("done", output_tokens, events[-1][2], "")]
        else:
            # A failed sequence's tokens were flushed ahead of the close; it
            # may have been re-generating ones it had already streamed.
            assert events == tokens and len(tokens) >= output_tokens
    return reference


def test_stream_law_across_preemption_kv_exhaustion_and_stop():
    # A 1100-token pool.  The late third sequence is preempted after streaming
    # a few tokens and, once the pool has drained, recomputes them inside a
    # macro window: only tokens past its high-water mark may be emitted.
    preempted = check_stream_law([(100, 400), (100, 400), (100, 300)],
                                 [0.0, 0.0, 5.0], kv_capacity=1100)
    assert preempted["preemptions"] > 0
    assert all(trace[1] for trace in preempted["results"])
    # A lone 1200-token sequence outgrows the pool with nobody to preempt.
    lengths = [(100, 400), (100, 400), (100, 1200)]
    exhausted = check_stream_law(lengths, [0.0, 0.0, 5.0], kv_capacity=1100)
    assert "KV cache exhausted" in {trace[2] for trace in exhausted["results"]}
    # The engine stops mid-generation, with text this time.
    stopped = check_stream_law(lengths, [0.0, 0.0, 5.0], kv_capacity=1100,
                               stop_at=9.0, generate_text=True)
    assert "engine stopped" in {trace[2] for trace in stopped["results"]}
    assert all(stopped["streams"].values())


@settings(max_examples=20, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(st.integers(min_value=50, max_value=400),   # prompt tokens
                  st.integers(min_value=2, max_value=120),    # output tokens
                  st.floats(min_value=0.0, max_value=3.0)),   # gap to the previous
        min_size=1,
        max_size=8,
    ),
    kv_capacity=st.integers(min_value=1200, max_value=3000),
    stop_after=st.one_of(st.none(), st.floats(min_value=0.01, max_value=30.0)),
    generate_text=st.booleans(),
)
def test_property_stream_sequence_is_mode_independent(arrivals, kv_capacity,
                                                      stop_after, generate_text):
    lengths = [(prompt, output) for prompt, output, _gap in arrivals]
    offsets, at = [], 0.0
    for _prompt, _output, gap in arrivals:
        at += gap
        offsets.append(at)
    stop_at = None if stop_after is None else at + stop_after
    check_stream_law(lengths, offsets, kv_capacity=kv_capacity, stop_at=stop_at,
                     generate_text=generate_text)


#: One stream plus two shorter neighbours that end its windows at tokens 30 and 60.
LATE_READER_LENGTHS = [(80, 120), (60, 30), (60, 60)]


def run_late_reader(macro, attach_at):
    """The first of ``LATE_READER_LENGTHS`` streamed into a channel that gets
    its ``get()`` reader only at ``attach_at``; returns what the reader saw
    as ``(kind, index, time, text, arrival time)`` and when windows ended."""
    env = Environment()
    window_ends = []

    class Windows:
        def on_event(self, now, event, depth):
            pass

        def on_window(self, iterations, width_s):
            window_ends.append(env.now)

    env.attach_profiler(Windows())
    engine = make_engine(env, macro)
    channel = StreamChannel(env)
    request, *neighbours = fresh_requests(LATE_READER_LENGTHS)
    request.stream = True
    request.metadata[STREAM_CHANNEL_KEY] = channel
    done = engine.submit(request)
    for neighbour in neighbours:
        engine.submit(neighbour)
    arrivals = []

    def late_reader():
        yield env.timeout(attach_at)
        assert not channel.live
        while True:
            item = yield channel.get()
            if item is None:
                return
            arrivals.append((item.kind, item.index, item.time, item.text, env.now))

    env.run(until=env.process(late_reader()))
    assert done.value.success
    return arrivals, window_ends


@pytest.mark.parametrize("macro", [True, False])
def test_consumer_attaching_mid_generation_reads_the_same_sequence(macro):
    """A reader that shows up while the engine is generating an unread stream
    gets every token generated so far in one go, then the rest one by one at
    their production times; a macro-stepping engine steps per token from the
    window that was in flight onwards."""
    reference = run_trace(False, fresh_requests(LATE_READER_LENGTHS), [0.0] * 3,
                          stream_indices=[0])["streams"][0]
    attach_at = 0.6  # tokens 31..60 are being generated
    arrivals, window_ends = run_late_reader(macro, attach_at)
    assert [a[:4] for a in arrivals] == reference
    backlog = [a for a in arrivals if a[4] > a[2]]
    live = arrivals[len(backlog):]
    assert 30 < len(backlog) < 60
    assert all(arrived == produced for _k, _i, produced, _t, arrived in live)
    # The backlog came with the first token published after the reader attached.
    assert {a[4] for a in backlog} == {live[0][2]}
    if macro:
        # One window was in flight when the reader attached; none was planned after.
        assert len(window_ends) == 2 and window_ends[0] < attach_at < window_ends[1]
        assert live[0][2] == window_ends[1]
    else:
        assert window_ends == [] and live[0][1] == len(backlog)


@settings(max_examples=25, deadline=None)
@given(macro=st.booleans(), attach_at=st.floats(min_value=0.0, max_value=2.0))
def test_property_late_reader_sees_the_reference_sequence(macro, attach_at):
    """Whenever the reader attaches — before the first token, mid-window, on a
    boundary, after ``done`` — it reads the per-token engine's sequence."""
    reference = run_trace(False, fresh_requests(LATE_READER_LENGTHS), [0.0] * 3,
                          stream_indices=[0])["streams"][0]
    arrivals, _window_ends = run_late_reader(macro, attach_at)
    assert [a[:4] for a in arrivals] == reference


# -- the batch-level structures: epoch, completion heap, growth calendar ---------


def check_batch_invariants(engine):
    """What must hold of the engine's KV books and growth calendar at any
    kernel event (inside a window: as of the last boundary applied)."""
    kv = engine.kv
    block = engine.config.kv_block_size
    assert kv.used_blocks == sum(kv._allocated.values())
    assert set(kv._allocated) == {seq.seq_id for seq in engine.running}
    expected = {}
    for seq in engine.running:
        generated = engine._epoch - seq.join
        assert 0 <= generated < seq.target and seq.finish == seq.join + seq.target
        allocated = kv._allocated[seq.seq_id]
        if kv.preemptions == 0:
            # Nothing ever failed: the allocation is a function of the tokens.
            assert allocated == max(kv.blocks_for(seq.prompt + block),
                                    kv.blocks_for(seq.prompt + generated + 1))
        # The next iteration after which the per-token loop's
        # grow(prompt + generated + 1) needs a block (never the finishing one).
        for after in range(generated + 1, seq.target):
            if kv.blocks_for(seq.prompt + after + 1) > allocated:
                expected.setdefault(seq.join + after, set()).add(seq)
                break
    filed = {epoch: set(bucket) for epoch, bucket in engine._calendar.items()}
    assert filed == expected
    # ... and no sequence is filed twice in its bucket.
    assert sum(map(len, engine._calendar.values())) == sum(map(len, filed.values()))
    assert sorted(entry[0] for entry in engine._finishing) == sorted(
        seq.finish for seq in engine.running)
    # Only streams are walked per advance; traces ride the shared window log.
    assert all(seq in engine.running and seq.stream_channel is not None
               for seq in engine._hooked)
    assert set(engine._traced) == {seq for seq in engine.running
                                   if seq.trace is not None}


@settings(max_examples=25, deadline=None)
@given(
    macro=st.booleans(),
    lengths=st.lists(
        st.tuples(st.integers(min_value=0, max_value=200),
                  st.integers(min_value=1, max_value=200)),
        min_size=1,
        max_size=16,
    ),
    rate=st.floats(min_value=2.0, max_value=50.0),
    block_size=st.sampled_from([1, 3, 16, 64]),
    kv_capacity=st.one_of(st.none(), st.integers(min_value=600, max_value=2000)),
    period=st.floats(min_value=0.03, max_value=0.7),
)
def test_property_kv_books_and_growth_calendar_stay_exact(
        macro, lengths, rate, block_size, kv_capacity, period):
    env = Environment()
    engine = make_engine(env, macro, kv_capacity=kv_capacity, block_size=block_size)
    events = []

    def driver():
        last = 0.0
        offsets = PoissonArrival(rate=rate, seed=23).offsets(len(lengths))
        for i, (request, offset) in enumerate(zip(fresh_requests(lengths), offsets)):
            if offset > last:
                yield env.timeout(offset - last)
                last = offset
            if i % 3 == 1:
                request.stream = True
                request.metadata[STREAM_CHANNEL_KEY] = StreamChannel(env)
            events.append(engine.submit(request))

    def probe():  # lands inside windows, between them and on idle stretches
        while len(events) < len(lengths) or not engine.is_idle:
            yield env.timeout(period)
            check_batch_invariants(engine)

    env.process(driver())
    env.process(probe())
    env.run()
    check_batch_invariants(engine)
    assert all(event.triggered for event in events)
    assert engine.is_idle and engine.kv.used_blocks == 0
    assert not engine._calendar and not engine._finishing and not engine._hooked
    assert not engine._traced


@pytest.mark.parametrize("macro", [True, False])
def test_kv_grow_is_called_only_at_block_boundaries(macro):
    """O(changes), as an exact count: 64 equal sequences of 112 + 64 tokens
    each cross three block boundaries before their last token (at tokens 16,
    32, 48 of the output), and that is every ``kv.grow`` the per-token engine
    makes — the walk-the-batch loop it replaces made 64 * 63 = 4032.  The
    macro-stepped engine covers tokens 2..64 with one window whose sequences
    all finish at its end, and so never grows at all."""
    env = Environment()
    engine = make_engine(env, macro)
    calls = []
    grow = engine.kv.grow

    def counting_grow(seq_id, tokens):
        calls.append(seq_id)
        return grow(seq_id, tokens)

    engine.kv.grow = counting_grow
    events = [engine.submit(request) for request in fresh_requests([(112, 64)] * 64)]
    env.run(until=env.all_of(events))
    assert engine.stats.output_tokens == 64 * 64
    assert len(calls) == (0 if macro else 64 * 3)


def test_preempted_victim_was_due_to_finish_in_the_same_iteration():
    """Four KV blocks, two sequences of two blocks each.  At iteration 16 the
    first needs a third block and the only candidate victim is the second —
    which would itself have produced its last token in this iteration, later
    in the walk.  It is preempted, not completed, and restarts from scratch
    every time it is readmitted until the first finishes.  Literals recorded
    at the commit before the engine kept a completion heap."""
    lengths, offsets = [(16, 40), (16, 16)], [0.0, 0.0]
    golden = run_trace(False, fresh_requests(lengths), offsets, kv_capacity=64)
    macro = run_trace(True, fresh_requests(lengths), offsets, kv_capacity=64)
    assert macro == golden
    assert macro["stats"] == {
        "submitted": 2, "completed": 2, "failed": 0, "preempted": 24,
        "output_tokens": 71, "prompt_tokens": 32,
        "busy_time_s": 0.7779734567049205, "peak_batch_size": 2}
    assert (macro["allocation_failures"], macro["preemptions"]) == (24, 24)
    assert [trace[6:] for trace in macro["results"]] == [
        (0.0, 0.015227805926484903, 0.5746702885764563),
        (0.5600802965107666, 0.015227805926484903, 0.7779734567049205)]


def test_promptless_admission_inside_a_window_gets_its_first_token_at_the_boundary():
    """A request with no prompt adds no prefill, so the iteration that admits
    it may open a macro window: its first token time is that window's first
    boundary, as in the per-token engine."""

    def run(macro):
        env = Environment()
        engine = make_engine(env, macro)
        events = [engine.submit(request) for request in fresh_requests([(100, 300)])]

        def late(env):
            yield env.timeout(1.0)
            events.append(engine.submit(InferenceRequest(
                "g-late", SPEC_70B.name, prompt_tokens=0, max_output_tokens=40)))

        env.process(late(env))
        env.run()
        return [result_trace(event.value) for event in events], engine.stats.snapshot()

    results, stats = run(True)
    assert (results, stats) == run(False)
    _id, _ok, _err, _prompt, _out, enqueued, admitted, first_token, _end = results[1]
    step = PerformanceModel(SPEC_70B, 8, A100_40GB,
                            node_spec=dgx_a100_spec()).decode_step_time_s(2)
    assert enqueued == 1.0 < admitted and first_token == admitted + step


@pytest.mark.parametrize("block_size,kv_capacity", [(1, 600), (1, None), (512, 4096)])
def test_golden_trace_at_extreme_block_sizes(block_size, kv_capacity):
    """One-token blocks (every iteration grows every sequence; a sequence
    whose growth failed is two blocks short the next time) and blocks larger
    than any output (nothing ever grows), with and without KV pressure."""
    lengths = [(100, 200), (100, 150), (60, 120), (100, 100), (40, 60), (80, 90)]
    offsets = [0.0, 0.0, 0.5, 0.5, 2.0, 2.0]
    golden = run_trace(False, fresh_requests(lengths), offsets,
                       kv_capacity=kv_capacity, block_size=block_size, stream_indices={2})
    macro = run_trace(True, fresh_requests(lengths), offsets,
                      kv_capacity=kv_capacity, block_size=block_size, stream_indices={2})
    assert macro == golden
    assert macro["kv_used"] == 0
    assert (macro["preemptions"] > 0) == (kv_capacity == 600)
    assert all(trace[1] for trace in macro["results"])


# -- traced sequences: the shared window log and lazy span runs -------------------

def run_traced(macro, arrivals, untraced, kv_capacity, stop_at, period):
    """Drive ``(prompt, output, gap, stream)`` arrivals (``stream`` one of
    ``None``, ``"unread"``, ``"live"``), traced unless indexed by
    ``untraced``, through one engine with :func:`check_batch_invariants`
    probing every ``period``; returns the results, each traced request's
    ``to_dict()`` with its result, and the tokens the engine counted."""
    env = Environment()
    engine = make_engine(env, macro, kv_capacity=kv_capacity)
    events, traces = [], {}

    def read(channel):
        while (yield channel.get()) is not None:
            pass

    def driver():
        for i, (prompt, output, gap, stream) in enumerate(arrivals):
            if gap:
                yield env.timeout(gap)
            request = InferenceRequest(f"t-{i}", SPEC_70B.name, prompt_tokens=prompt,
                                       max_output_tokens=output)
            if stream is not None:
                request.stream = True
                channel = request.metadata[STREAM_CHANNEL_KEY] = StreamChannel(env)
                if stream == "live":
                    env.process(read(channel))
            if i not in untraced:
                # No cap: a much-preempted request recomputes many windows.
                traces[i] = request.metadata[TRACE_KEY] = TraceContext(
                    f"t-{i}", env, sampled=True, max_spans=1 << 30)
            events.append(engine.submit(request))
        if stop_at is not None:
            yield env.timeout(stop_at)
            engine.stop()

    def probe():
        while len(events) < len(arrivals) or not engine.is_idle:
            yield env.timeout(period)
            check_batch_invariants(engine)

    env.process(driver())
    env.process(probe())
    env.run()
    assert not engine._hooked and not engine._traced
    results = [result_trace(event.value) for event in events]
    return results, {i: (trace.to_dict(), events[i].value)
                     for i, trace in traces.items()}, engine.stats.output_tokens


def check_decode_windows(trace, result):
    """What holds of one engine-level trace in either stepping mode; returns
    its non-window spans and the extent of its windows."""
    spans = trace["spans"]
    assert [span["span_id"] for span in spans] == [f"s{i}" for i in range(len(spans))]
    root = spans[0]
    assert root["name"] == "engine.request" and trace["dropped_spans"] == 0
    windows = [span for span in spans if span["name"] == "engine.decode_window"]
    for window in windows:
        assert (window["parent_id"], window["layer"], window["status"]) == (
            "s0", "engine", "ok")
        assert window["attrs"]["iterations"] >= 1 and window["end"] > window["start"]
    gaps = [after["start"] - before["end"] for before, after in zip(windows, windows[1:])]
    assert all(gap > -1e-9 for gap in gaps)  # in order, never overlapping
    if not any(event["name"] == "engine.preempted" for event in root["events"]):
        # One unbroken run: the first token is the prefill's, every later one
        # is an iteration of exactly one window.
        assert all(gap < 1e-9 for gap in gaps)
        assert sum(window["attrs"]["iterations"] for window in windows) == max(
            0, result.output_tokens - 1)
    phases = [(span["name"], span["parent_id"], span["start"], span["end"],
               span["status"], span["attrs"], span["events"])
              for span in spans if span["name"] != "engine.decode_window"]
    extent = (sum(window["attrs"]["iterations"] for window in windows),
              windows[0]["start"] if windows else None,
              windows[-1]["end"] if windows else None)
    return phases, extent


@settings(max_examples=30, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(st.integers(min_value=1, max_value=200),    # prompt tokens
                  st.integers(min_value=1, max_value=150),    # output tokens
                  st.floats(min_value=0.0, max_value=1.5),    # gap to the previous
                  st.sampled_from([None, None, "unread", "live"])),
        min_size=1,
        max_size=10,
    ),
    untraced=st.sets(st.integers(min_value=0, max_value=9), max_size=3),
    kv_capacity=st.one_of(st.none(), st.integers(min_value=400, max_value=1500)),
    stop_after=st.one_of(st.none(), st.floats(min_value=0.01, max_value=8.0)),
    period=st.floats(min_value=0.03, max_value=0.7),
)
# The fingerprint ledger's starved pool, every request traced: 28 preemptions,
# victims ahead of and behind the walk, an unread and a live stream among them.
@example(arrivals=[(100, 400, 0.0, None), (100, 300, 0.0, "unread"),
                   (100, 250, 0.5, "live"), (60, 120, 0.0, None),
                   (100, 300, 4.5, None), (40, 60, 0.0, None), (80, 200, 4.0, None)],
         untraced=set(), kv_capacity=900, stop_after=None, period=0.5)
# Two sequences that thrash until the stop: 509 tokens hold either, not both.
@example(arrivals=[(190, 147, 1.4, None), (174, 143, 0.0, "unread"),
                   (40, 29, 0.0, "unread"), (80, 141, 0.9, None),
                   (13, 43, 0.0, "live"), (59, 45, 0.0, "unread"),
                   (123, 95, 1.2, "live")],
         untraced={6}, kv_capacity=509, stop_after=20.0, period=0.25)
def test_property_decode_window_runs_are_what_eager_spans_were(
        arrivals, untraced, kv_capacity, stop_after, period):
    """Decode windows come off a log shared by the batch, as lazily numbered
    runs: whatever is preempted, streamed, stopped or cut by an arrival, each
    trace's windows tile its decode time, a macro window is one span where
    the per-token engine records one per token, and every other span is the
    same span in both modes."""
    # Always stopped, if only long after a healthy run has gone idle: in a
    # small pool two growing sequences can evict each other for ever (each
    # restarts from scratch), on the parent engine as on this one.
    stop_after = 60.0 if stop_after is None else stop_after
    runs = [run_traced(macro, arrivals, untraced, kv_capacity, stop_after, period)
            for macro in (True, False)]
    assert runs[0][0] == runs[1][0]
    checked = [{i: check_decode_windows(trace, result)
                for i, (trace, result) in traces.items()}
               for _results, traces, _tokens in runs]
    assert checked[0] == checked[1]
    if len(checked[0]) == len(arrivals):
        # Every request traced: each token the engine counted is some
        # request's first (the prefill's output) or one iteration of one of
        # its windows — a preemption victim the iteration's walk had not
        # reached yet must not be given that iteration's window.
        for (results, _traces, tokens), windows in zip(runs, checked):
            first_tokens = sum(1 for result in results if result[7])
            assert tokens == first_tokens + sum(
                extent[0] for _phases, extent in windows.values())


def test_retained_trace_pins_only_the_log_segments_its_runs_index():
    """A short traced request beside a long one, stepped per token: the engine
    logs over a thousand windows, the short trace's rows hold two segments at
    most — a dropped trace holds none, a kept one not the whole run."""
    from repro.serving.engine import _LOG_SEGMENT

    env = Environment()
    engine = make_engine(env, macro=False)
    traces = []
    for request in fresh_requests([(100, 1200), (100, 150)]):
        traces.append(TraceContext(request.request_id, env, sampled=True,
                                   max_spans=1 << 30))
        request.metadata[TRACE_KEY] = traces[-1]
        engine.submit(request)
    env.run()
    for trace, windows in zip(traces, (1199, 149)):
        runs = [row for row in trace._rows if type(row) is tuple]
        segments = {id(row[2]): row[2] for row in runs}
        assert all(len(segment) <= _LOG_SEGMENT for segment in segments.values())
        assert len(segments) <= windows // _LOG_SEGMENT + 2
        assert sum(hi - lo for _parent, _number, _log, lo, hi in runs) == windows
        assert len(trace.find_spans("engine.decode_window")) == windows
        assert not any(type(row) is tuple for row in trace._rows)  # expanded once
