"""Stream-event channel for end-to-end token streaming.

When a request arrives with ``stream=True`` the gateway opens a
:class:`StreamChannel` and threads it through the compute layer down to the
engine (gateway → ComputeClient payload → relay → endpoint → engine).  The
continuous-batching engine reports every generated token through it — at the
*same* iteration timing the performance model produces for non-streaming
requests — so TTFT and inter-token latency become observable outside the
serving engine for the first time.

The channel is a single-producer/single-consumer queue in simulated time.
``delivery_latency_s`` models the per-chunk network hop (the SSE frame
travelling engine → relay → gateway): every published item becomes visible
to the consumer that many simulated seconds later, preserving FIFO order.

Only a *live* consumer — one that reads while the engine generates — pays a
channel round-trip per token.  For everyone else the engine keeps a token's
production time in a per-request buffer and hands the channel one
:class:`TokenBatch` when the request ends; a token's arrival time is then
its production time plus ``delivery_latency_s``, the same float addition
the per-token hop performs, so both timelines agree bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Sequence

from ..sim import Environment, Event

__all__ = ["STREAM_CHANNEL_KEY", "StreamEvent", "TokenBatch", "StreamChannel"]

#: Key under which a :class:`StreamChannel` rides in ``InferenceRequest.metadata``
#: (and in the FaaS task payload) on its way to the engine.
STREAM_CHANNEL_KEY = "stream_channel"


@dataclass
class StreamEvent:
    """One server-sent event of a streaming response.

    ``kind`` is one of ``"token"`` (a generated token), ``"done"`` (the
    response is complete; ``result``/``finish_reason`` are set) or
    ``"error"`` (the request failed before completing; ``error`` holds the
    typed envelope and ``exception`` the original exception).
    """

    kind: str
    index: int = 0
    #: Simulation time the event was *produced* (engine side for tokens).
    time: float = 0.0
    text: str = ""
    finish_reason: Optional[str] = None
    result: Any = None
    error: Optional[dict] = None
    exception: Optional[BaseException] = None
    metadata: dict = field(default_factory=dict)


class TokenBatch:
    """A run of consecutive ``token`` events in columnar form.

    Stands for ``StreamEvent("token", index=start + i, time=times[i],
    text=texts[i])`` for every ``i`` (``texts`` is empty when the engine
    generates no text).  This is what a channel nobody reads live carries
    instead of one event object per token; :meth:`StreamChannel.get` expands
    it, sinks and :meth:`StreamChannel.drain` see it as is.
    """

    __slots__ = ("start", "times", "texts")
    kind = "tokens"

    def __init__(self, start: int, times: List[float], texts: List[str]):
        self.start = start
        self.times = times
        self.texts = texts

    def events(self) -> List[StreamEvent]:
        texts = self.texts
        return [
            StreamEvent(kind="token", index=self.start + i, time=time,
                        text=texts[i] if texts else "")
            for i, time in enumerate(self.times)
        ]


class StreamChannel:
    """FIFO channel of :class:`StreamEvent` items in simulated time.

    Producers call :meth:`publish` / :meth:`close`; the consumer repeatedly
    yields :meth:`get`, which resolves to the next item or ``None`` once the
    channel is closed and drained.  Both sides are simulation-safe: a
    pending consumer is woken as soon as an item is delivered.  A consumer
    that only reacts to items (no waiting of its own) can :meth:`attach_sink`
    instead and skip the kernel event per :meth:`get`.  :meth:`get` hands
    out per-token events whatever the engine published (see :attr:`live`),
    so a consumer that attaches late sees the same sequence as one that was
    there from the start.
    """

    def __init__(self, env: Environment, delivery_latency_s: float = 0.0):
        self.env = env
        self.delivery_latency_s = delivery_latency_s
        self._items: Deque[Any] = deque()
        self._waiters: Deque[Event] = deque()
        self._sink: Optional[Callable[[Any], None]] = None
        self._closed = False
        self._live = False
        self.published = 0
        self.delivered = 0

    # -- producer side -----------------------------------------------------
    def publish(self, item: Any) -> None:
        """Make ``item`` available to the consumer after the delivery latency."""
        self.published += 1
        self._after_hop(self._push, item)

    def publish_bulk(self, items: Sequence[Any]) -> None:
        """Publish several items on one delayed-delivery hop.

        The engine flushes a request's buffered :class:`TokenBatch` and its
        terminal ``done`` event this way.  The items become visible
        ``delivery_latency_s`` after the *publish*; a batch's tokens carry
        their own production times, from which a consumer derives each
        token's arrival (production time plus ``delivery_latency_s``).
        """
        self.published += len(items)
        self._after_hop(self._push_all, items)

    def close(self) -> None:
        """Close the channel (idempotent); pending ``get``\\ s resolve to ``None``.

        The close travels through the same delayed-delivery path as items so
        it can never overtake an in-flight event.
        """
        if not self._closed:
            self._after_hop(self._close_now)

    def _after_hop(self, deliver, *args) -> None:
        """Call ``deliver(*args)`` one delivery latency from now.

        The hop is a single bare timeout, not a process: the kernel pops
        same-time events in the order they were scheduled, which is exactly
        the channel's FIFO order.
        """
        if self.delivery_latency_s > 0:
            hop = self.env.timeout(self.delivery_latency_s)
            hop.callbacks.append(lambda _hop: deliver(*args))
        else:
            deliver(*args)

    def _push_all(self, items: Sequence[Any]) -> None:
        for item in items:
            self._push(item)

    def _push(self, item: Any) -> None:
        if self._closed:
            return
        if self._sink is not None:
            self.delivered += 1
            self._sink(item)
            return
        self._items.append(item)
        while self._waiters and self._items:
            self._waiters.popleft().succeed(self._take())

    def _take(self) -> Any:
        """Pop the next item for a :meth:`get` consumer, first expanding a
        :class:`TokenBatch` at the head into its per-token events."""
        items = self._items
        if type(items[0]) is TokenBatch:
            events = items.popleft().events()
            self.published += len(events) - 1  # counted as one item until now
            items.extendleft(reversed(events))
        self.delivered += 1
        return items.popleft()

    def _close_now(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._sink is not None:
            # Drop the sink with the close: task records keep their channel,
            # and must not keep the consumer's state alive with it.
            sink, self._sink = self._sink, None
            sink(None)
        while self._waiters:
            self._waiters.popleft().succeed(None)

    # -- consumer side -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending(self) -> int:
        return len(self._items)

    @property
    def live(self) -> bool:
        """True once a consumer reads tokens as they arrive: :meth:`get` was
        called, or a sink was attached with ``live=True``.

        The engine steps per token for a live channel and publishes each
        token at its iteration boundary.  For any other channel it
        macro-steps and buffers the tokens' production times, handing them
        over as one :class:`TokenBatch` when the request ends — or as soon
        as it notices the channel has turned live.
        """
        return self._live

    def drain(self) -> list:
        """Synchronously take every delivered-but-unconsumed item as is (a
        :class:`TokenBatch` stays one item).

        Used at partition boundaries (:mod:`repro.parallel`): a cluster-side
        channel that nobody consumes live holds the request's token batch
        once it ends, and the partition ships the batch's ``times`` in a
        serializable result message instead of attaching a consumer process.
        Does not mark the channel live and wakes no waiters.
        """
        items = list(self._items)
        self._items.clear()
        return items

    def attach_sink(self, sink: Callable[[Any], None], live: bool = True) -> None:
        """Consume by callback: ``sink(item)`` runs at each item's delivery
        instant and ``sink(None)`` once when the channel closes.

        Replaces :meth:`get` for this channel; attach before the first
        publish.  A sink that needs every token at its own arrival instant
        leaves the channel :attr:`live`; one that only wants the timeline
        passes ``live=False`` and receives a single :class:`TokenBatch`
        ahead of the terminal event, each token having arrived at its
        ``time + delivery_latency_s``.
        """
        self._live = live
        self._sink = sink

    def get(self) -> Event:
        """Event resolving to the next item, or ``None`` when closed and empty."""
        self._live = True
        event = self.env.event()
        if self._items:
            event.succeed(self._take())
        elif self._closed:
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event
