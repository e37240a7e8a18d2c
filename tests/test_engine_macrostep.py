"""Golden-trace and property tests for engine macro-stepping.

The macro-stepped engine must reproduce the per-token reference loop
(`EngineConfig(macro_stepping=False)`) *exactly* in simulated time: same
per-request timings, same stats, same KV accounting, same preemptions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import A100_40GB, dgx_a100_spec
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
                crossover=None, generate_text=False):
    perf = PerformanceModel(spec, tp, A100_40GB, node_spec=dgx_a100_spec())
    if kv_capacity is not None:
        class TinyKV(PerformanceModel):
            def kv_capacity_tokens(self, vram_utilization=0.9):
                return kv_capacity
        perf = TinyKV(spec, tp, A100_40GB, node_spec=dgx_a100_spec())
    config = EngineConfig(generate_text=generate_text, macro_stepping=macro,
                          max_num_seqs=max_num_seqs)
    if crossover is not None:
        config.vector_batch_crossover = crossover
    return ContinuousBatchingEngine(env, perf, config)


def run_trace(macro, requests, offsets, kv_capacity=None, stream_indices=(),
              stop_at=None, drain_at=None, max_num_seqs=256, crossover=None,
              read_live=True, generate_text=False):
    """Drive one engine over a timed workload; returns the full golden trace.

    Streams are read token by token while the engine runs, or — with
    ``read_live=False`` — left alone and read off their channels afterwards
    (``unread`` then holds what each channel held: item kinds, as published).
    """
    env = Environment()
    engine = make_engine(env, macro, kv_capacity=kv_capacity,
                         max_num_seqs=max_num_seqs, crossover=crossover,
                         generate_text=generate_text)
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
        engine.submit(InferenceRequest("bt-0", SPEC_70B.name, prompt_tokens=80,
                                       max_output_tokens=200))

        def submit_then_stop(env):
            yield env.timeout(2.0)  # mid-window for the macro engine
            engine.submit(InferenceRequest("bt-1", SPEC_70B.name, prompt_tokens=80,
                                           max_output_tokens=200))
            engine.stop()

        env.process(submit_then_stop(env))
        env.run()
        return engine.stats.snapshot()

    assert run(True) == run(False)


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


@pytest.mark.parametrize("crossover", [1, 10**9])
def test_vectorized_planning_is_bit_identical_across_crossover(crossover):
    """Forcing the numpy path on (crossover=1) or off (crossover=huge) must
    not perturb a single timing relative to the per-token reference — the
    scenario's batch widths span the default crossover from both sides."""
    workload = ShareGPTWorkload()
    offsets = PoissonArrival(rate=6.0, seed=17).offsets(80)
    golden = run_trace(False, workload.generate(SPEC_70B.name, num_requests=80),
                       offsets)
    vec = run_trace(True, workload.generate(SPEC_70B.name, num_requests=80),
                    offsets, crossover=crossover)
    assert vec == golden


def test_macro_stepping_without_numpy_is_bit_identical(monkeypatch):
    """The scalar fallback (numpy absent) replays the reference exactly."""
    import repro.serving.engine as engine_mod

    workload = ShareGPTWorkload()
    offsets = PoissonArrival(rate=6.0, seed=19).offsets(60)
    golden = run_trace(False, workload.generate(SPEC_70B.name, num_requests=60),
                       offsets)
    monkeypatch.setattr(engine_mod, "_np", None)
    macro = run_trace(True, workload.generate(SPEC_70B.name, num_requests=60),
                      offsets)
    assert macro == golden
