"""Simulated-time distributed tracing (the flight recorder's span layer).

A :class:`TraceContext` is created per gateway request and carried *with*
the request through every layer (gateway pipeline → relay → endpoint →
engine) inside ``InferenceRequest.metadata`` under :data:`TRACE_KEY` — the
same transport pattern the streaming channel uses
(:data:`repro.serving.stream.STREAM_CHANNEL_KEY`).  Each layer records
:class:`Span`\\ s stamped with **simulated** time (``env.now``), so a trace
explains where one request's simulated latency went: stage costs, routing,
relay transfer, endpoint queue wait, admission, prefill, every decode
window, preemptions, stream delivery.

Everything here is observe-only by construction: recording a span performs
no simulated-time spends, schedules no events and draws no random numbers,
so simulation results are bit-identical with tracing on or off (pinned by
golden-trace tests).

Decode windows are the bulk of a trace and every sequence of a batch shares
them, so they are not recorded per trace.  The engine keeps one *window log*
(``(start, end, iterations)`` per executed advance) and a context only holds
a **run**: opened with :meth:`TraceContext.open_run` (parent span id, log,
index of the first window), closed with :meth:`TraceContext.close_run` into
one row ``(parent_id, first span number, log, lo, hi)`` that sits among the
:class:`Span` objects where its spans belong.  Any ``start_span`` on a
context with an open run first takes the windows logged so far, so span ids,
list order, the span cap and ``dropped_spans`` are exactly what recording a
span per window would have produced.  Rows become ``Span`` objects when
:attr:`TraceContext.spans` is read (``to_dict``, export, ``find_spans``) —
once, in place; :class:`TraceShape` and :meth:`Tracer.finish` work from the
rows, so a trace that is dropped is never expanded.  A row references the log
segment it indexes (the engine starts a new list every 128 windows):
retained traces keep the segments they decoded through alive, nothing else
does.

Retention is three-tier so interesting exemplars survive aggressive sampling:

* **head sampling** — the keep/drop decision is made at ``begin`` time
  (deterministically, from a hash of the seed and trace id), and head-kept
  traces live in a bounded FIFO ring;
* **top-K-slowest reservoir** — independent of the head decision, the K
  slowest finished traces are always retained, so the worst requests are
  inspectable even at ``sample_rate=0``;
* **tail sampling** — an optional shape predicate
  (:attr:`ObservabilityConfig.tail_predicate`) inspects the *finished* trace's
  :class:`TraceShape` — span count, error spans, layers crossed,
  cross-cluster hops, duration — and keeps matches in their own bounded
  FIFO ring.  Head sampling can only gamble at begin time; the tail tier
  keeps every error or every multi-cluster request deterministically.

:class:`ObservabilityConfig` is the one description of that policy: a
deployment sets it as ``DeploymentConfig.observability``, and a
:class:`Tracer` keeps a private copy of it.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..common import stable_seed

__all__ = [
    "TRACE_KEY",
    "Span",
    "TraceContext",
    "TraceShape",
    "Tracer",
    "ObservabilityConfig",
    "span_tree",
]

#: Metadata key under which the :class:`TraceContext` travels with a request
#: (popped from result metadata by the engine, like the stream channel).
TRACE_KEY = "obs.trace"


class Span:
    """One timed operation inside a trace, stamped with simulated time."""

    __slots__ = ("name", "span_id", "parent_id", "layer", "start", "end",
                 "status", "attrs", "events")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str],
                 layer: str, start: float):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        #: Which layer recorded the span ("gateway" | "relay" | "endpoint" |
        #: "engine" | ...); drives the Perfetto process grouping.
        self.layer = layer
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs: Dict[str, Any] = {}
        #: Point-in-time events on this span: ``(time, name, attrs)``.
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []

    @property
    def duration_s(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": dict(self.attrs),
            "events": [
                {"time": t, "name": name, "attrs": dict(attrs)}
                for t, name, attrs in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
                f"[{self.start:.3f}, {self.end}], status={self.status})")


class TraceContext:
    """Span recorder for one request, shared by every layer it traverses.

    ``current`` is the *pipeline-managed* active span: only the gateway
    pipeline (which runs strictly sequentially per request) mutates it.
    Downstream layers (relay/endpoint/engine) run concurrently with the
    suspended dispatch stage, so they never write ``current`` — they read it
    once as their parent anchor and build their own subtrees with explicit
    parents.  That keeps parent/child nesting deterministic without any
    cross-process span stack.
    """

    __slots__ = ("trace_id", "env", "sampled", "recording", "started_at",
                 "finished_at", "current", "max_spans", "dropped_spans",
                 "_next_id", "_rows", "_stored", "_run")

    def __init__(self, trace_id: str, env, sampled: bool, max_spans: int = 512,
                 recording: bool = True):
        self.trace_id = trace_id
        self.env = env
        #: Head-sampling decision, fixed at begin time (retention also keeps
        #: unsampled traces that land in the slowest-K reservoir).
        self.sampled = sampled
        #: False when the trace can never be retained (not head-sampled and
        #: no slowest-K reservoir): the gateway then skips span recording
        #: and never propagates the context downstream, which is what keeps
        #: the sampling-off overhead within the BENCH_obs gate.
        self.recording = recording
        self.started_at = env.now
        self.finished_at: Optional[float] = None
        #: Recorded spans in order: :class:`Span` objects and, until someone
        #: reads :attr:`spans`, closed decode-window runs as ``(parent_id,
        #: first span number, window log, lo, hi)`` rows (module docstring).
        self._rows: List[Any] = []
        #: Spans the rows stand for (a run counts ``hi - lo``).
        self._stored = 0
        #: The open run ``(parent_id, window log, index of its next window)``.
        self._run: Optional[Tuple[Optional[str], list, int]] = None
        #: Active gateway-pipeline span (see class docstring).
        self.current: Optional[Span] = None
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._next_id = 0

    # -- span recording ----------------------------------------------------
    def start_span(self, name: str, parent: Optional[Span] = None,
                   layer: str = "", attrs: Optional[dict] = None,
                   t: Optional[float] = None) -> Span:
        """Open a span at simulated time ``t`` (default: now).

        Beyond ``max_spans`` the span object still works (callers never need
        to branch) but is not recorded; ``dropped_spans`` counts the loss.
        """
        if self._run is not None:
            # The windows decoded so far precede this span: number them now.
            self._take_windows()
        span_id = f"s{self._next_id}"
        self._next_id += 1
        span = Span(name, span_id, parent.span_id if parent is not None else None,
                    layer, self.env.now if t is None else t)
        if attrs:
            span.attrs.update(attrs)
        if self._stored < self.max_spans:
            self._rows.append(span)
            self._stored += 1
        else:
            self.dropped_spans += 1
        return span

    def end_span(self, span: Span, t: Optional[float] = None) -> None:
        span.end = self.env.now if t is None else t

    def event(self, span: Span, name: str, t: Optional[float] = None,
              **attrs: Any) -> None:
        """Record a point-in-time event on ``span``."""
        span.events.append((self.env.now if t is None else t, name, attrs))

    # -- decode-window runs ------------------------------------------------
    def open_run(self, parent_id: Optional[str], log: list, index: int) -> None:
        """From ``log[index]`` on, every window the engine logs is one
        ``engine.decode_window`` span of this trace under ``parent_id`` —
        until :meth:`close_run`."""
        self._run = (parent_id, log, index)

    def close_run(self, upto: Optional[int] = None) -> None:
        """End the open run (if any) before ``log[upto]`` (default: the
        log's current end)."""
        self._take_windows(upto)
        self._run = None

    def continue_run(self, log: list) -> None:
        """Close the open run (if any) on its log and carry it on at the
        start of ``log``, the engine's next log segment."""
        if self._run is not None:
            parent_id = self._run[0]
            self._take_windows()
            self._run = (parent_id, log, 0)

    def _take_windows(self, upto: Optional[int] = None) -> None:
        """Turn the open run's windows up to ``upto`` into one row, with the
        span numbers, cap accounting and list position eager recording of
        each window would have produced; the run continues after them."""
        if self._run is None:
            return
        parent_id, log, lo = self._run
        hi = len(log) if upto is None else upto
        count = hi - lo
        if count <= 0:
            return
        self._run = (parent_id, log, hi)
        keep = min(count, self.max_spans - self._stored)
        if keep > 0:
            self._rows.append((parent_id, self._next_id, log, lo, lo + keep))
            self._stored += keep
        self.dropped_spans += count - keep
        self._next_id += count

    # -- queries -----------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Every recorded span, in recording order.  Reading expands run
        rows into :class:`Span` objects, once, in place."""
        self._take_windows()
        if any(type(row) is tuple for row in self._rows):
            rows: List[Any] = []
            for row in self._rows:
                if type(row) is tuple:
                    parent_id, number, log, lo, hi = row
                    for start, end, iterations in log[lo:hi]:
                        span = Span("engine.decode_window", f"s{number}",
                                    parent_id, "engine", start)
                        span.end = end
                        span.attrs["iterations"] = iterations
                        rows.append(span)
                        number += 1
                else:
                    rows.append(row)
            self._rows = rows
        return self._rows

    @property
    def duration_s(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.env.now
        return end - self.started_at

    def find_spans(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "sampled": self.sampled,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
            "dropped_spans": self.dropped_spans,
            "spans": [s.to_dict() for s in self.spans],
        }


def span_tree(spans: List[dict]) -> List[dict]:
    """Nest a flat ``to_dict()['spans']`` list into parent/child trees.

    Returns the list of roots; each node gains a ``"children"`` list.
    Orphans (parent dropped by the span cap) surface as roots.
    """
    nodes = {s["span_id"]: dict(s, children=[]) for s in spans}
    roots: List[dict] = []
    for span in spans:
        node = nodes[span["span_id"]]
        parent = nodes.get(span["parent_id"]) if span["parent_id"] else None
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots


@dataclass
class TraceShape:
    """Cheap structural summary of a finished trace, fed to tail predicates.

    Built once per :meth:`Tracer.finish` (only when a
    :attr:`~ObservabilityConfig.tail_predicate` is installed) from the recorded
    spans — no span objects escape, so predicates cannot mutate the trace.
    """

    trace_id: str = ""
    duration_s: float = 0.0
    span_count: int = 0
    #: Spans recorded but not stored (past the per-trace cap).
    dropped_spans: int = 0
    #: Spans whose status is anything but ``"ok"``.
    error_spans: int = 0
    #: Distinct recording layers, sorted ("engine", "gateway", "relay", ...).
    layers: Tuple[str, ...] = ()
    #: Distinct cluster/endpoint identities seen in span attrs, sorted.
    clusters: Tuple[str, ...] = ()
    #: Boundary crossings implied by ``clusters`` (0 for single-cluster).
    cross_cluster_hops: int = 0

    @classmethod
    def from_context(cls, ctx: "TraceContext") -> "TraceShape":
        ctx._take_windows()
        errors = 0
        layers: Set[str] = set()
        clusters: Set[str] = set()
        for span in ctx._rows:
            if type(span) is tuple:
                # A packed run: ``ok`` engine-layer windows, no cluster attrs.
                layers.add("engine")
                continue
            if span.status != "ok":
                errors += 1
            if span.layer:
                layers.add(span.layer)
            where = span.attrs.get("cluster") or span.attrs.get("endpoint")
            if where:
                clusters.add(str(where))
        return cls(
            trace_id=ctx.trace_id,
            duration_s=ctx.duration_s,
            span_count=ctx._stored,
            dropped_spans=ctx.dropped_spans,
            error_spans=errors,
            layers=tuple(sorted(layers)),
            clusters=tuple(sorted(clusters)),
            cross_cluster_hops=max(0, len(clusters) - 1),
        )


@dataclass
class ObservabilityConfig:
    """Sampling and retention policy of a :class:`Tracer` (picklable)."""

    #: Head-sampling probability in [0, 1].  0 keeps only the slowest-K.
    sample_rate: float = 1.0
    #: The K slowest finished traces are always retained (0 disables).
    slowest_k: int = 8
    #: Bound on head-sampled traces retained (FIFO eviction).
    max_traces: int = 256
    #: Per-trace span cap (excess spans are counted, not stored).
    max_spans_per_trace: int = 512
    #: Seed of the deterministic hash-based head-sampling decision.
    seed: int = 0
    #: Attach a :class:`~repro.obs.kernel.KernelProfiler` to the deployment's
    #: Environment (read by the gateway's observability stage).
    profile_kernel: bool = False
    #: Tail-sampling hook: called at finish time with the trace's
    #: :class:`TraceShape`; return True to retain.  ``None`` disables the
    #: tier.  The decision sees the *whole* trace (errors, hop counts),
    #: which begin-time head sampling fundamentally cannot.
    tail_predicate: Optional[Callable[[TraceShape], bool]] = field(
        default=None, repr=False)
    #: Bound on tail-kept traces (FIFO eviction, like the head ring).
    max_tail_traces: int = 64


class Tracer:
    """Creates, finishes and retains :class:`TraceContext`\\ s.

    Sampling is deterministic: the head decision is a pure function of
    ``(seed, trace_id)`` (hash-based, order-independent and numpy-free), so
    it never touches the simulation's RNG streams or event queue.  The
    tracer keeps its own copy of ``config``: editing ``tracer.config``
    never reaches a config that callers share.
    """

    def __init__(self, env, config: Optional[ObservabilityConfig] = None):
        self.env = env
        self.config = replace(config or ObservabilityConfig())
        #: Retained traces by id (head ring ∪ slowest-K reservoir).
        self._traces: Dict[str, TraceContext] = {}
        self._head_ring: Deque[str] = deque()
        self._head_ids: Set[str] = set()
        #: Min-heap of ``(duration, tiebreak, trace_id)`` — the K slowest.
        self._slow: List[Tuple[float, int, str]] = []
        self._slow_ids: Set[str] = set()
        self._tail_ring: Deque[str] = deque()
        self._tail_ids: Set[str] = set()
        self._finish_seq = 0
        # Counters (surfaced on dashboards / the metrics registry).
        self.begun = 0
        self.finished = 0
        self.kept_head = 0
        self.kept_slow = 0
        self.kept_tail = 0

    # -- sampling ----------------------------------------------------------
    def _head_decision(self, trace_id: str) -> bool:
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        # Hash-based: deterministic per (seed, trace_id), order-independent.
        return (stable_seed("obs-head-sample", self.config.seed, trace_id) % (1 << 53)) \
            < rate * (1 << 53)

    # -- lifecycle ---------------------------------------------------------
    def begin(self, trace_id: str) -> TraceContext:
        """Start recording a trace (the retention decision happens at finish)."""
        self.begun += 1
        sampled = self._head_decision(trace_id)
        # Spans are worth recording only if the trace has some path to
        # retention: the head ring, the slowest-K reservoir, or a tail
        # predicate (both of the latter decide at finish time, so they must
        # see every trace's spans).
        recording = (sampled or self.config.slowest_k > 0
                     or self.config.tail_predicate is not None)
        return TraceContext(trace_id, self.env, sampled,
                            max_spans=self.config.max_spans_per_trace,
                            recording=recording)

    def finish(self, ctx: TraceContext) -> bool:
        """Finalize ``ctx`` and decide retention; returns True when retained."""
        ctx.finished_at = self.env.now
        self.finished += 1
        trace_id = ctx.trace_id
        duration = ctx.duration_s
        retained = False

        if self.config.slowest_k > 0:
            entry = (duration, self._finish_seq, trace_id)
            self._finish_seq += 1
            if len(self._slow) < self.config.slowest_k:
                heapq.heappush(self._slow, entry)
                self._slow_ids.add(trace_id)
                retained = True
                self.kept_slow += 1
            elif entry > self._slow[0]:
                evicted = heapq.heappushpop(self._slow, entry)
                self._slow_ids.discard(evicted[2])
                self._slow_ids.add(trace_id)
                retained = True
                self.kept_slow += 1
                self._traces[trace_id] = ctx  # before dropping the evictee
                self._maybe_drop(evicted[2])

        if ctx.sampled and self.config.max_traces > 0:
            while len(self._head_ring) >= self.config.max_traces:
                old = self._head_ring.popleft()
                self._head_ids.discard(old)
                self._maybe_drop(old)
            self._head_ring.append(trace_id)
            self._head_ids.add(trace_id)
            retained = True
            self.kept_head += 1

        predicate = self.config.tail_predicate
        if predicate is not None and self.config.max_tail_traces > 0 \
                and predicate(TraceShape.from_context(ctx)):
            while len(self._tail_ring) >= self.config.max_tail_traces:
                old = self._tail_ring.popleft()
                self._tail_ids.discard(old)
                self._maybe_drop(old)
            self._tail_ring.append(trace_id)
            self._tail_ids.add(trace_id)
            retained = True
            self.kept_tail += 1

        if retained:
            self._traces[trace_id] = ctx
        return retained

    def _maybe_drop(self, trace_id: str) -> None:
        if trace_id not in self._head_ids and trace_id not in self._slow_ids \
                and trace_id not in self._tail_ids:
            self._traces.pop(trace_id, None)

    # -- retrieval ---------------------------------------------------------
    def get(self, trace_id: str) -> Optional[TraceContext]:
        return self._traces.get(trace_id)

    def trace_ids(self) -> List[str]:
        return sorted(self._traces)

    def slowest(self) -> List[Tuple[float, str]]:
        """Retained ``(duration_s, trace_id)`` reservoir entries, slowest first."""
        return sorted(((d, tid) for d, _, tid in self._slow), reverse=True)

    def tail_ids(self) -> List[str]:
        """Trace ids currently held by the tail-sampling ring, oldest first."""
        return list(self._tail_ring)

    def stats(self) -> dict:
        return {
            "begun": self.begun,
            "finished": self.finished,
            "kept_head": self.kept_head,
            "kept_slow": self.kept_slow,
            "kept_tail": self.kept_tail,
            "retained": len(self._traces),
        }
