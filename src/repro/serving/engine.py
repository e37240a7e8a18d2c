"""Continuous-batching inference engine (the vLLM-like core).

The engine advances in *iterations*: each iteration generates one token for
every running sequence and (optionally) prefills newly admitted sequences.
Iteration duration comes from the :class:`~repro.serving.timing.PerformanceModel`,
so aggregate throughput saturates with batch size exactly as described in the
paper's evaluation.  Admission is bounded by ``max_num_seqs`` and by the
paged KV cache (:class:`~repro.serving.kvcache.KVCacheManager`).

Performance notes
-----------------

Naively the engine costs one kernel event plus O(batch) Python work per
decode iteration.  Both are avoided, and both by the same primitive —
:meth:`ContinuousBatchingEngine._advance_epoch`, "advance the batch by ``n``
iterations" — whose cost is the number of sequences that *change* in those
iterations, not the batch width.  The per-token loop is its ``n = 1`` case;
with ``EngineConfig.macro_stepping`` (the default) the loop computes how many
iterations can pass before the simulation state can change and spends one
kernel event on all of them.  Simulated-time results are reproduced exactly:
iteration boundary times are accumulated with the same sequence of float
additions the per-token loop performs, and absolute-time scheduling
(``Environment.timeout_at``) replays them bit-for-bit.

* **Epoch.**  ``_epoch`` counts executed iterations.  A running sequence
  stores the epoch it joined at, so its token count is ``_epoch - join`` and
  nothing is written per iteration; ``generated`` is materialised when the
  sequence leaves the batch (finish, preemption, KV failure, ``stop()``) or
  a hook reads it.
* **Completion heap.**  ``_finishing`` holds ``(finish epoch, admission rank,
  sequence)``: the next completion is a peek, and sequences finishing at one
  epoch pop in admission order — the order of ``running``, so result events
  and stream closes keep their order.
* **Growth calendar.**  ``_calendar`` maps an epoch to the sequences whose KV
  allocation must grow right after it (each running sequence sits in at most
  one bucket, never at its finishing epoch: the final iteration does not
  grow).  The blocks needed to reach an epoch are a sum over the buckets up
  to it, and only those sequences call :meth:`KVCacheManager.grow`.
* **Exact slow path.**  An iteration whose demand exceeds the free pool runs
  the per-sequence reference walk (:meth:`_advance_under_pressure`): same
  order, same ``grow`` calls, same preemption victim and failure accounting;
  heap and calendar are then rebuilt from the survivors.
* **Hooked subset.**  Only sequences with a stream channel are visited per
  iteration or window (``_hooked``); ``_fresh`` carries just-admitted
  sequences to their first token time.
* **Window log.**  A traced sequence is not visited either.  While any is
  running (``_traced``), each executed advance appends one ``(start, end,
  iterations)`` entry to ``_window_log``; a sequence opens a *run* on its
  :class:`~repro.obs.trace.TraceContext` at its first token or readmission
  ("my decode windows are the log's entries from here on") and closes it
  when it finishes, fails, is preempted or the engine stops.  The context
  turns the run into ``engine.decode_window`` spans only if the trace is
  read.  The log is cut into segments of ``_LOG_SEGMENT`` entries, open runs
  moving on to the new one, so a retained trace pins the segments it
  decoded through and a dropped one nothing.

A macro-step window ends at the earliest of:

* the earliest completion among running sequences (state changes there);
* any admission this iteration (prefill extends only the *first* iteration's
  duration, so admission iterations always step per-token);
* KV growth that cannot be guaranteed for the whole window (the calendar's
  demand up to the window end exceeds the free pool ⇒ per-token stepping,
  which reaches the slow path at the exact iteration the pool runs out);
* a running sequence with a *live* stream channel — one whose consumer
  reads tokens as they arrive (:attr:`StreamChannel.live`: a ``get()``
  consumer, or a sink attached with ``live=True``); the engine keeps
  emitting one kernel event and one ``token`` event per iteration for it.
  Every other streaming sequence macro-steps like a non-streaming one and
  costs no stream events while it runs: each token's exact
  iteration-boundary time (and text, when text is generated) goes into a
  per-sequence buffer that reaches the channel as **one**
  :class:`~repro.serving.stream.TokenBatch`, on the same hop as the ``done``
  event when the sequence finishes, ahead of the close when it fails
  (``stop()``, KV exhaustion), or at the first publish after the channel
  turns live — so a late consumer still reads the identical per-token
  sequence, and TTFT/ITL math is unchanged.

When a request is submitted mid-window, the window is split: the loop is
interrupted, catches up to the last boundary already passed, finishes the
in-flight iteration with an exact per-token step, and re-plans — so the
newcomer is admitted at the same iteration boundary the per-token engine
would have used.  ``stop()`` likewise syncs the window before failing
sequences so their token counts and the busy-time accounting match.

Two divergences from the per-token engine are tolerated, neither visible in
results or stats.  First, floating-point *tie-breaking*: if an external
event lands at exactly (bit-for-bit) an interior iteration boundary, the
relative order of that event and the engine's bookkeeping may differ;
continuous-valued workloads never hit this in practice.  Second, post-stop
*queue drain*: a window abandoned by ``stop()`` leaves its already-scheduled
end-of-window timeout in the event heap, so ``env.run()``-to-empty finishes
at the window's end rather than at the next per-token boundary — ``env.now``
after draining a stopped engine is therefore mode-dependent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.trace import TRACE_KEY
from ..sim import Environment, Event, Interrupt
from .kvcache import KVCacheConfig, KVCacheManager
from .request import InferenceRequest, InferenceResult, RequestKind
from .stream import STREAM_CHANNEL_KEY, StreamEvent, TokenBatch
from .textgen import SyntheticTextGenerator
from .timing import PerformanceModel

__all__ = ["EngineConfig", "EngineStats", "ContinuousBatchingEngine"]

#: Entries per window-log segment (see ``_log_window``).
_LOG_SEGMENT = 128


@dataclass
class EngineConfig:
    """Engine scheduling limits (vLLM-style)."""

    max_num_seqs: int = 256
    #: Cap on prompt tokens prefetched in a single iteration (chunked prefill).
    max_prefill_tokens_per_step: int = 16384
    kv_block_size: int = 16
    vram_utilization: float = 0.9
    #: Generate actual response text (slower, used by examples; benchmarks
    #: usually disable it).
    generate_text: bool = True
    #: Collapse state-preserving runs of decode iterations into a single
    #: kernel event (see the module docstring).  Disable to force the
    #: reference one-event-per-iteration loop; simulated-time results are
    #: identical either way.
    macro_stepping: bool = True


@dataclass
class EngineStats:
    """Cumulative engine counters."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    preempted: int = 0
    output_tokens: int = 0
    prompt_tokens: int = 0
    busy_time_s: float = 0.0
    peak_batch_size: int = 0

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "preempted": self.preempted,
            "output_tokens": self.output_tokens,
            "prompt_tokens": self.prompt_tokens,
            "busy_time_s": self.busy_time_s,
            "peak_batch_size": self.peak_batch_size,
        }


class _Sequence:
    """Internal per-request state."""

    __slots__ = (
        "request",
        "event",
        "seq_id",
        "prompt",
        "target",
        "generated",
        "join",
        "finish",
        "enqueue_time",
        "admit_time",
        "first_token_time",
        "stream_channel",
        "streamed",
        "stream_words",
        "stream_times",
        "stream_texts",
        "trace",
        "trace_root",
        "trace_phase",
    )

    def __init__(self, request: InferenceRequest, event: Event, enqueue_time: float):
        self.request = request
        self.event = event
        self.seq_id = request.request_id
        self.prompt = request.prompt_tokens
        #: Output tokens to generate.
        self.target = max(1, request.max_output_tokens)
        #: Tokens generated so far.  While the sequence runs this is *stale*:
        #: the live count is ``engine._epoch - join`` (see the module docstring).
        self.generated = 0
        #: Engine epoch at (re)admission, and the epoch whose iteration
        #: produces the last token (``join + target``).
        self.join = 0
        self.finish = 0
        self.enqueue_time = enqueue_time
        self.admit_time: Optional[float] = None
        self.first_token_time: Optional[float] = None
        #: Stream channel carried in the request metadata (``stream=True`` only).
        self.stream_channel = (
            request.metadata.get(STREAM_CHANNEL_KEY) if request.stream else None
        )
        #: Observability: TraceContext riding the request metadata (or None),
        #: this sequence's open ``engine.request`` span and, under it, the
        #: open queue-wait or prefill span (None while it decodes).
        self.trace = request.metadata.get(TRACE_KEY)
        self.trace_root = None
        self.trace_phase = None
        #: High-water mark of tokens already streamed, so a preempted sequence
        #: that recomputes from scratch does not re-emit chunks the consumer
        #: has already seen.
        self.streamed = 0
        self.stream_words = None
        #: Production times (and texts) of tokens generated for a non-live
        #: channel and not yet handed to it: counts ``streamed - len + 1 ..
        #: streamed``, contiguous across preemptions.
        self.stream_times: List[float] = []
        self.stream_texts: List[str] = []


class _Window:
    """An in-flight macro-step: ``len(boundaries)`` decode iterations
    collapsed into one kernel event.

    ``boundaries`` holds the absolute simulated time of every iteration
    boundary in the window; ``done`` counts how many have been applied (a
    window interrupted mid-flight is applied piecewise).
    """

    __slots__ = ("step", "boundaries", "kv_blocked", "done", "interrupted", "closed")

    def __init__(self, step: float, boundaries: List[float], kv_blocked: bool):
        self.step = step
        self.boundaries = boundaries
        self.kv_blocked = kv_blocked
        self.done = 0
        self.interrupted = False
        #: Set by stop(): the window's remaining accounting is settled and the
        #: loop must not touch it again (e.g. an Interrupt queued by a submit
        #: in the same callback as the stop is still in flight).
        self.closed = False


class ContinuousBatchingEngine:
    """A continuous-batching LLM engine bound to a fixed GPU allocation."""

    def __init__(
        self,
        env: Environment,
        perf: PerformanceModel,
        config: Optional[EngineConfig] = None,
        instance_id: str = "instance-0",
        cluster: str = "",
        text_generator: Optional[SyntheticTextGenerator] = None,
    ):
        self.env = env
        self.perf = perf
        self.config = config or EngineConfig()
        self.instance_id = instance_id
        self.cluster = cluster
        self.text_generator = text_generator or SyntheticTextGenerator()
        self.kv = KVCacheManager(
            KVCacheConfig(
                capacity_tokens=perf.kv_capacity_tokens(self.config.vram_utilization),
                block_size=self.config.kv_block_size,
            )
        )
        self.stats = EngineStats()
        self.waiting: Deque[_Sequence] = deque()
        #: The batch, in admission order (insertion-ordered, O(1) removal).
        self.running: Dict[_Sequence, None] = {}
        #: Iterations executed so far, and (re)admissions performed.
        self._epoch = 0
        self._admissions = 0
        #: ``(finish epoch, admission rank, sequence)`` of every running
        #: sequence; ranks are unique, so sequences are never compared.
        self._finishing: List[Tuple[int, int, _Sequence]] = []
        #: Epoch -> sequences whose KV allocation grows right after it.
        self._calendar: Dict[int, List[_Sequence]] = {}
        #: Running sequences with a stream channel, in admission order, and
        #: the just-admitted ones still waiting for a first token.
        self._hooked: Dict[_Sequence, None] = {}
        self._fresh: List[_Sequence] = []
        #: Running sequences with a trace, and the current segment of the
        #: window log their decode-window runs index into.
        self._traced: Dict[_Sequence, None] = {}
        self._window_log: List[Tuple[float, float, int]] = []
        self._idle: Optional[Event] = None
        self._window: Optional[_Window] = None
        self._stopped = False
        self._draining = False
        self._loop = env.process(self._run())

    # -- public API ----------------------------------------------------------
    def submit(self, request: InferenceRequest) -> Event:
        """Queue a request; the returned event succeeds with an :class:`InferenceResult`."""
        if self._stopped:
            raise RuntimeError("Engine has been stopped")
        event = self.env.event()
        seq = _Sequence(request, event, self.env.now)
        trace = seq.trace
        if trace is not None:
            # `current` is the caller's active span (the gateway's dispatch
            # stage, still suspended) — the whole engine subtree hangs off it.
            seq.trace_root = root = trace.start_span(
                "engine.request", parent=trace.current, layer="engine",
                attrs={"instance": self.instance_id})
            seq.trace_phase = trace.start_span("engine.queue_wait", parent=root,
                                               layer="engine")
        self.waiting.append(seq)
        self.stats.submitted += 1
        self.stats.prompt_tokens += request.prompt_tokens
        self._notify()
        return event

    def drain(self) -> None:
        """Scale-down notification: finish outstanding work, expect no more.

        The autoscale control plane calls this when it begins drain-before-
        terminate on the owning instance.  Queued and running sequences
        complete normally (``stop()`` is the hard variant); the only engine-
        level effect is that the scale event ends any *in-flight* macro-step
        window the same way an admission does, so token counts and stats are
        exact at the moment of the drain decision.  Later windows are
        planned normally — completions bound them, so ``in_flight`` is
        always exact at event boundaries, which is all the drain monitor
        reads.  Simulated-time results are unchanged either way: window
        splitting is equivalence-preserving.
        """
        if self._stopped or self._draining:
            return
        self._draining = True
        self._notify()

    @property
    def draining(self) -> bool:
        return self._draining

    def stop(self) -> None:
        """Stop accepting requests and fail anything still queued or running."""
        window = self._window
        if window is not None:
            # Bring token counts and timings up to the last iteration boundary
            # already passed so the failed results report the same progress the
            # per-token engine would have.
            self._window = None
            self._sync_window(window)
            if window.done < len(window.boundaries):
                # The iteration in flight at stop time still occupies the GPU
                # until its boundary (the per-token loop accounts it when its
                # pending timeout fires).
                self.stats.busy_time_s += window.step
            window.closed = True
        self._stopped = True
        for seq in self.running:
            seq.generated = self._epoch - seq.join
        failed = 0
        for group in (self.waiting, self.running):
            for seq in group:
                if not seq.event.triggered:
                    failed += 1
                    seq.event.succeed(self._make_result(seq, success=False,
                                                        error="engine stopped"))
                if seq.stream_channel is not None:
                    self._flush_stream(seq)
                    seq.stream_channel.close()
                self.kv.free(seq.seq_id)
        self.stats.failed += failed
        self.waiting.clear()
        for batch_state in (self.running, self._finishing, self._calendar,
                            self._hooked, self._fresh, self._traced):
            batch_state.clear()
        self._notify()

    @property
    def current_batch_size(self) -> int:
        return len(self.running)

    @property
    def queue_depth(self) -> int:
        return len(self.waiting)

    @property
    def in_flight(self) -> int:
        return len(self.waiting) + len(self.running)

    @property
    def is_idle(self) -> bool:
        return not self.waiting and not self.running

    # -- engine loop -----------------------------------------------------------
    def _notify(self) -> None:
        idle = self._idle
        if idle is not None and not idle.triggered:
            idle.succeed()
            return
        window = self._window
        if window is not None and not window.interrupted:
            # New work arrived mid-macro-step: split the window so the loop
            # can admit at the next per-token iteration boundary.
            window.interrupted = True
            self._loop.interrupt()

    def _run(self):
        env = self.env
        while True:
            if self._stopped and self.is_idle:
                # Park forever; a stopped engine never wakes up again.
                self._idle = env.event()
                yield self._idle
                continue
            if self.is_idle:
                self._idle = env.event()
                yield self._idle
                self._idle = None
                continue

            prefill_tokens, kv_blocked = self._admit()
            batch = len(self.running)
            if batch == 0:
                # Nothing admitted (every queued request was unservable and
                # has been failed, or the limits admit none): avoid a busy loop.
                self._idle = env.event()
                yield self._idle
                self._idle = None
                continue

            if batch > self.stats.peak_batch_size:
                self.stats.peak_batch_size = batch
            step = self.perf.decode_step_time_s(batch)
            if prefill_tokens:
                step += prefill_tokens / self.perf.prefill_tok_s

            # Prefill extends only this iteration's duration, so any iteration
            # that admitted work must step alone.
            iters = 1 if prefill_tokens else self._plan_window()
            if iters <= 1:
                yield env.timeout(step)
                self.stats.busy_time_s += step
                self._advance(step)
                continue

            # Macro-step: one kernel event covers ``iters`` iterations.  The
            # boundary times are accumulated with the same float additions the
            # per-token loop performs, so they replay bit-for-bit.
            boundaries = []
            t = env.now
            for _ in range(iters):
                t += step
                boundaries.append(t)
            window = _Window(step, boundaries, kv_blocked)
            self._window = window
            try:
                yield env.timeout_at(boundaries[-1])
            except Interrupt:
                # A submission arrived mid-window: catch up to the boundaries
                # already passed, then finish the in-flight iteration with an
                # exact per-token step so the newcomer is admitted where the
                # per-token engine would have admitted it.  A window stop()
                # already closed (submit-then-stop in one callback) is fully
                # accounted; touching it again would double-count busy time.
                self._window = None
                if not window.closed:
                    self._sync_window(window)
                    if window.done < len(window.boundaries):
                        yield env.timeout_at(window.boundaries[window.done])
                        self.stats.busy_time_s += window.step
                        self._advance(window.step)
                continue
            if self._window is None:
                continue  # stop() drained the window while we slept
            self._window = None
            self._apply_iterations(window, len(window.boundaries))

    def _admit(self) -> Tuple[int, bool]:
        """Move sequences from waiting to running.

        Returns the prefill tokens added and whether admission stalled on a
        failed KV allocation (as opposed to ``max_num_seqs`` or the per-step
        prefill budget).
        """
        prefill_tokens = 0
        kv_blocked = False
        waiting = self.waiting
        running = self.running
        cfg = self.config
        epoch = self._epoch
        while (
            waiting
            and len(running) < cfg.max_num_seqs
            and prefill_tokens < cfg.max_prefill_tokens_per_step
        ):
            seq = waiting[0]
            if not self.kv.allocate(seq.seq_id, seq.prompt + cfg.kv_block_size):
                if running:
                    kv_blocked = True
                    break
                # The pool is empty and still too small: waiting would park
                # this request and everything queued behind it forever.
                waiting.popleft()
                self._fail_sequence(seq)
                continue
            waiting.popleft()
            seq.admit_time = self.env.now
            if seq.trace is not None:
                self._trace_admit(seq)
            prefill_tokens += seq.prompt
            seq.join = epoch
            seq.finish = epoch + seq.target
            heappush(self._finishing, (seq.finish, self._admissions, seq))
            self._admissions += 1
            running[seq] = None
            if seq.stream_channel is not None:
                self._hooked[seq] = None
            if seq.first_token_time is None:
                # A readmitted victim keeps its first token time: its next
                # token is a decode window, not the end of a prefill.
                self._fresh.append(seq)
            self._file_growth(seq)
        return prefill_tokens, kv_blocked

    # -- epoch stepping -----------------------------------------------------------
    def _file_growth(self, seq: _Sequence) -> None:
        """File ``seq`` under the first epoch after now at which the per-token
        loop's ``grow(prompt + generated + 1)`` outgrows its allocation."""
        blocks = self.kv._allocated[seq.seq_id]
        due = seq.join + max(self._epoch - seq.join + 1,
                             blocks * self.config.kv_block_size - seq.prompt)
        if due < seq.finish:  # the finishing iteration never grows
            self._calendar.setdefault(due, []).append(seq)

    def _due_epochs(self, upto: int) -> Sequence[int]:
        """Calendar epochs up to ``upto`` (all of them lie after ``_epoch``)."""
        calendar = self._calendar
        if upto == self._epoch + 1:
            return (upto,) if upto in calendar else ()
        return [epoch for epoch in calendar if epoch <= upto]

    def _growth_demand(self, upto: int) -> int:
        """KV blocks the batch must add to run through epoch ``upto``.

        Block demand per sequence is monotone in tokens, so a demand within
        ``kv.free_blocks`` proves that growing the same sequences one token
        at a time cannot fail anywhere on the way.  Sequences that finish at
        ``upto`` stop growing one iteration earlier (the per-token loop checks
        completion before growing), hence no one-token lookahead for them.
        """
        demand = 0
        blocks_for = self.kv.blocks_for
        allocated = self.kv._allocated
        for epoch in self._due_epochs(upto):
            for seq in self._calendar[epoch]:
                tokens = seq.prompt + upto - seq.join + (seq.finish != upto)
                demand += blocks_for(tokens) - allocated[seq.seq_id]
        return demand

    def _plan_window(self) -> int:
        """Number of iterations until the next possible state change.

        A return value above 1 additionally guarantees that no KV-pressure
        preemption can occur inside the window.  The probe does not allocate:
        growth is applied only for iterations that actually execute, so a
        window that is interrupted and abandoned leaves the free-block pool
        in the exact per-token state.
        """
        if not self.config.macro_stepping:
            return 1
        for seq in self._hooked:
            channel = seq.stream_channel
            if channel is not None and channel.live:
                # A live consumer observes per-token timing; keep exact
                # events.  Any other channel's tokens are buffered at their
                # boundary times instead.
                return 1
        end = self._finishing[0][0]
        if end - self._epoch <= 1 or self._growth_demand(end) > self.kv.free_blocks:
            # KV pressure possible mid-window: the per-token path reproduces
            # the original preemption semantics exactly.
            return 1
        return end - self._epoch

    def _sync_window(self, window: _Window) -> None:
        """Apply every window iteration whose boundary time has passed."""
        now = self.env.now
        boundaries = window.boundaries
        upto = window.done
        total = len(boundaries)
        while upto < total and boundaries[upto] <= now:
            upto += 1
        self._apply_iterations(window, upto)

    def _apply_iterations(self, window: _Window, upto: int) -> None:
        """Bulk-apply window iterations ``window.done + 1 .. upto``.

        Completions are only possible at the final boundary (the window is
        sized to the earliest completion), so interior catch-ups are pure
        token/stat arithmetic.
        """
        done = window.done
        n = upto - done
        if n <= 0:
            return
        stats = self.stats
        step = window.step
        for _ in range(n):  # same addition order as the per-token loop
            stats.busy_time_s += step
        if window.kv_blocked:
            # The per-token loop re-attempts (and fails) the blocked head-of-
            # line admission at every interior boundary; mirror its failure
            # accounting.  The final boundary re-attempts in the next loop
            # iteration's _admit, so it is excluded here.
            last_interior = len(window.boundaries) - 1
            retries = min(upto, last_interior) - min(done, last_interior)
            if retries > 0:
                self.kv.allocation_failures += retries
        profiler = self.env.profiler
        if profiler is not None:
            profiler.on_window(n, step * n)
        self._advance_epoch(n, window.boundaries, done, step, windowed=True)
        window.done = upto

    def _advance(self, step: float) -> None:
        """One per-token iteration, ending now."""
        if self._growth_demand(self._epoch + 1) > self.kv.free_blocks:
            self._advance_under_pressure(step)
        else:
            self._advance_epoch(1, (self.env.now,), 0, step, windowed=False)

    def _advance_epoch(self, n: int, boundaries: Sequence[float], lo: int,
                       step: float, windowed: bool) -> None:
        """Advance the batch by ``n`` iterations ending at ``boundaries[lo:lo + n]``.

        The caller has established that every KV growth on the way fits
        (:meth:`_growth_demand`).  Only sequences that change are touched:
        streamed ones, fresh ones, those due in the growth calendar and those
        finishing at the new epoch (possible only at a window's last boundary).
        """
        first = boundaries[lo]
        if self._traced:
            self._log_window(first - step, boundaries[lo + n - 1], n)
        for seq in self._hooked:
            before = self._epoch - seq.join
            seq.generated = before + n
            if seq.generated > seq.streamed:
                if windowed:
                    self._publish_window_tokens(seq, before, boundaries, lo)
                else:
                    self._publish_token(seq, first)
        for seq in self._fresh:
            seq.first_token_time = first
            if seq.trace is not None:
                # Per-token, a first token is the prefill's output and opens
                # no decode window; a window is recorded whole.
                self._trace_first_token(seq, first, skip=not windowed)
        self._fresh.clear()
        due = self._due_epochs(self._epoch + n)
        self._epoch = epoch = self._epoch + n
        running = self.running
        self.stats.output_tokens += n * len(running)
        for key in due:
            for seq in self._calendar.pop(key):
                if seq.finish != epoch:  # a finishing sequence is freed below
                    self.kv.grow(seq.seq_id, seq.prompt + epoch - seq.join + 1)
                    self._file_growth(seq)
        finishing = self._finishing
        if finishing and finishing[0][0] == epoch:
            finished = []
            while finishing and finishing[0][0] == epoch:
                seq = heappop(finishing)[2]
                seq.generated = seq.target
                del running[seq]
                self._hooked.pop(seq, None)
                finished.append(seq)
            now = self.env.now
            for seq in finished:
                self._finish_sequence(seq, now)

    def _advance_under_pressure(self, step: float) -> None:
        """One iteration in which some KV growth fails: the reference walk.

        Every running sequence is visited in admission order with its token
        count materialised, exactly as a naive per-token engine would, so the
        preemption victim (possibly a later sequence that would itself have
        finished in this iteration), ``allocation_failures`` and a failed
        sequence staying one block behind are reproduced bit-for-bit.  The
        completion heap and growth calendar are rebuilt from the survivors.
        """
        now = self.env.now
        stats = self.stats
        kv = self.kv
        if self._traced:
            # Logged up front: a victim preempted before the walk reaches it
            # closes its run short of this entry (_handle_kv_pressure).
            self._log_window(now - step, now, 1)
        #: Sequences that left the batch during this iteration (preempted,
        #: failed, or finished).
        inactive: Set[_Sequence] = set()
        finished: List[_Sequence] = []
        for seq in self.running:
            if seq in inactive:
                # Preempted earlier in this same iteration by another
                # sequence's KV growth; it will be re-prefilled later.
                continue
            seq.generated = self._epoch - seq.join + 1
            stats.output_tokens += 1
            if seq.first_token_time is None:
                # The first token is the prefill's output, not a decode
                # window: close the prefill span, the run starts after it.
                seq.first_token_time = now
                if seq.trace is not None:
                    self._trace_first_token(seq, now, skip=True)
            if seq.stream_channel is not None and seq.generated > seq.streamed:
                self._publish_token(seq, now)
            if seq.generated >= seq.target:
                finished.append(seq)
                # Not a preemption candidate: its blocks are freed right below.
                inactive.add(seq)
                continue
            if not kv.grow(seq.seq_id, seq.prompt + seq.generated + 1):
                self._handle_kv_pressure(seq, inactive)
        self._epoch += 1
        self._fresh.clear()  # survivors got their first token; victims re-enter later
        self.running = {seq: None for seq in self.running if seq not in inactive}
        self._hooked = {seq: None for seq in self._hooked if seq not in inactive}
        self._finishing = [(seq.finish, rank, seq)
                           for rank, seq in enumerate(self.running)]
        heapify(self._finishing)
        self._admissions = len(self.running)
        self._calendar = {}
        for seq in self.running:
            self._file_growth(seq)
        for seq in finished:
            self._finish_sequence(seq, now)

    def _finish_sequence(self, seq: _Sequence, now: float) -> None:
        """Release and succeed one completed sequence (already off ``running``)."""
        self.kv.free(seq.seq_id)
        self.stats.completed += 1
        if seq.stream_channel is not None:
            self._flush_stream(
                seq, StreamEvent(kind="done", index=seq.generated, time=now,
                                 finish_reason="stop"))
            seq.stream_channel.close()
        seq.event.succeed(self._make_result(seq, success=True))

    # -- observability (observe-only: no sim-time spends, no RNG draws) -----------
    def _trace_admit(self, seq: _Sequence) -> None:
        """Close the queue-wait span and open the prefill span."""
        trace = seq.trace
        root = seq.trace_root
        trace.end_span(seq.trace_phase)
        trace.event(root, "engine.admitted")
        seq.trace_phase = trace.start_span("engine.prefill", parent=root,
                                           layer="engine")
        self._traced[seq] = None
        if seq.first_token_time is not None:
            # A readmitted victim decodes from its next iteration on.
            trace.open_run(root.span_id, self._window_log, len(self._window_log))

    def _trace_first_token(self, seq: _Sequence, t: float, skip: bool) -> None:
        """End the prefill span at ``t`` and open the sequence's run of decode
        windows: after the window just logged (``skip``), or with it."""
        seq.trace.end_span(seq.trace_phase, t=t)
        seq.trace_phase = None
        log = self._window_log
        seq.trace.open_run(seq.trace_root.span_id, log,
                           len(log) if skip else len(log) - 1)

    def _log_window(self, start: float, end: float, iterations: int) -> None:
        """Record one executed advance for every traced sequence at once.

        The log is cut into segments so that a retained trace pins the
        segments its runs index, not the whole run's windows: when one fills
        up, the open runs are closed on it and continue on a new one.
        """
        log = self._window_log
        if len(log) >= _LOG_SEGMENT:
            self._window_log = log = []
            for seq in self._traced:
                seq.trace.continue_run(log)
        log.append((start, end, iterations))

    # -- streaming ---------------------------------------------------------------
    def _publish_token(self, seq: _Sequence, now: float) -> None:
        """Emit one token at the engine's iteration timing: a stream event for
        a live channel, a buffered production time for any other."""
        words = self._stream_words(seq)
        text = next(words) if words is not None else ""
        if seq.stream_channel.live:
            # Behind any tokens buffered before the consumer attached.
            self._flush_stream(seq, StreamEvent(kind="token", index=seq.generated - 1,
                                                time=now, text=text))
        else:
            seq.stream_times.append(now)
            if words is not None:
                seq.stream_texts.append(text)
        seq.streamed = seq.generated

    def _publish_window_tokens(self, seq: _Sequence, before: int,
                               boundaries: Sequence[float], done: int) -> None:
        """Buffer one catch-up's tokens for a channel that was not live when
        the window was planned.

        Covers token counts ``before + 1 .. seq.generated`` (skipping any
        already streamed before a preemption), each at the window boundary
        the per-token loop would have published it at, and consumes
        ``stream_words`` in the same order — so a consumer attaching later
        sees an identical event sequence.
        """
        first = done + max(before, seq.streamed) - before
        last = done + seq.generated - before
        seq.stream_times += boundaries[first:last]
        words = self._stream_words(seq)
        if words is not None:
            seq.stream_texts += islice(words, last - first)
        seq.streamed = seq.generated
        if seq.stream_channel.live:
            self._flush_stream(seq)  # a consumer attached mid-window

    def _stream_words(self, seq: _Sequence):
        """The sequence's text pieces, one per token (``None``: no text)."""
        if (seq.stream_words is None and self.config.generate_text
                and seq.request.kind != RequestKind.EMBEDDING):
            seq.stream_words = self.text_generator.stream_pieces(seq.request)
        return seq.stream_words

    def _flush_stream(self, seq: _Sequence, *tail: StreamEvent) -> None:
        """Hand the buffered tokens (as one :class:`TokenBatch`) and ``tail``
        to the channel on a single hop."""
        times = seq.stream_times
        if times:
            tail = (TokenBatch(seq.streamed - len(times), times, seq.stream_texts),
                    *tail)
            seq.stream_times = []
            seq.stream_texts = []
        if tail:
            seq.stream_channel.publish_bulk(tail)

    def _handle_kv_pressure(self, needy: _Sequence, inactive: Set[_Sequence]) -> None:
        """Preempt the most recently admitted other sequence to free blocks."""
        victim = None
        #: Whether this iteration's walk has already passed the victim (it
        #: has once the reverse scan meets ``needy``, the walk's position).
        visited = False
        for seq in reversed(self.running):
            if seq is needy:
                visited = True
            elif seq not in inactive:
                victim = seq
                break
        if victim is None:
            # Nothing to preempt: fail the sequence (it cannot make progress).
            inactive.add(needy)
            self._fail_sequence(needy)
            return
        inactive.add(victim)
        self.kv.preempt(victim.seq_id)
        self.stats.preempted += 1
        # The victim restarts from scratch (recompute preemption).
        victim.generated = 0
        victim.admit_time = None
        if victim.trace is not None:
            trace = victim.trace
            del self._traced[victim]
            # This iteration's window (the log's last entry) is the victim's
            # only if the walk produced its token before preempting it.
            trace.close_run(None if visited else len(self._window_log) - 1)
            if victim.trace_phase is not None:  # still waiting for its first token
                trace.end_span(victim.trace_phase)
            root = victim.trace_root
            trace.event(root, "engine.preempted")
            victim.trace_phase = trace.start_span(
                "engine.queue_wait", parent=root, layer="engine")
        self.waiting.appendleft(victim)

    def _fail_sequence(self, seq: _Sequence) -> None:
        """Fail a sequence the KV pool cannot hold (already off ``running``)."""
        self.kv.free(seq.seq_id)
        self.stats.failed += 1
        if seq.stream_channel is not None:
            self._flush_stream(seq)
            seq.stream_channel.close()
        seq.event.succeed(self._make_result(seq, success=False,
                                            error="KV cache exhausted"))

    def _close_seq_spans(self, seq: _Sequence, error: Optional[str] = None) -> None:
        """End every still-open engine span for a terminating sequence."""
        root = seq.trace_root
        if root is None:
            return
        trace = seq.trace
        seq.trace_root = None
        self._traced.pop(seq, None)
        trace.close_run()
        if seq.trace_phase is not None:  # a queue wait or prefill cut short
            trace.end_span(seq.trace_phase)
        if error is not None:
            root.status = f"error:{error}"
        root.attrs["output_tokens"] = seq.generated
        trace.end_span(root)

    def _make_result(self, seq: _Sequence, success: bool, error: Optional[str] = None) -> InferenceResult:
        self._close_seq_spans(seq, error=None if success else error)
        request = seq.request
        text = ""
        if success and self.config.generate_text and request.kind != RequestKind.EMBEDDING:
            text = self.text_generator.generate(request, seq.generated)
        metadata = dict(request.metadata)
        # The stream channel is transport plumbing, not response metadata.
        metadata.pop(STREAM_CHANNEL_KEY, None)
        # So is the trace context (it is not picklable response payload).
        metadata.pop(TRACE_KEY, None)
        return InferenceResult(
            request_id=request.request_id,
            model=request.model,
            prompt_tokens=request.prompt_tokens,
            output_tokens=seq.generated,
            text=text,
            success=success,
            error=error,
            arrival_time=request.arrival_time,
            engine_enqueue_time=seq.enqueue_time,
            prefill_start_time=seq.admit_time if seq.admit_time is not None else seq.enqueue_time,
            first_token_time=seq.first_token_time or 0.0,
            completion_time=self.env.now,
            instance_id=self.instance_id,
            cluster=self.cluster,
            metadata=metadata,
        )
