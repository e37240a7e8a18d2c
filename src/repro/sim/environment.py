"""The discrete-event simulation environment (clock + event queue)."""

from __future__ import annotations

import os as _os
from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Deque, Generator, Iterable, List, Optional, Tuple

from .events import NORMAL, URGENT, AllOf, Event, Process, Timeout

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no more events are queued."""


class StopSimulation(Exception):
    """Internal exception used to stop :meth:`Environment.run` at an event."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event._ok:
            raise cls(event._value)
        raise event._value


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in seconds.  Events are processed in order of
    ``(time, priority, insertion order)`` which makes runs fully
    deterministic for a fixed seed.

    Pending events wait in one binary heap of ``(time, priority, eid,
    event)`` entries; ``eid`` is the insertion counter, so no two entries
    compare equal and the pop order is a strict total order.
    """

    def __init__(self, initial_time: float = 0.0, queue: str = "heap",
                 sanitize: bool = False):
        if queue != "heap":
            # Only benchmarks/layers/workloads.py:170 passes it; the next benchmark PR drops both.
            raise ValueError(f"Unknown event queue kind {queue!r} (expected 'heap')")
        self._now = float(initial_time)
        self._pending: List[Tuple[float, int, int, Event]] = []
        #: Fast lane for zero-delay URGENT events (process starts, interrupts).
        #: They always run before every same-time NORMAL event, and among
        #: themselves in insertion order, so a plain FIFO reproduces the
        #: pending queue's ordering without any tuple construction or sift
        #: cost.
        self._urgent: Deque[Event] = deque()
        self._eid = count()
        self._active_proc: Optional[Process] = None
        #: Optional :class:`repro.obs.KernelProfiler`.  ``None`` (the default)
        #: keeps the kernel entirely unobserved: ``step`` stays the plain
        #: class method and hot paths only ever pay an ``is None`` check.
        self.profiler = None
        #: Optional :class:`repro.analysis.DetSan`.  Attached only on request
        #: (``sanitize=True`` or ``REPRO_DETSAN=1``) via the same shadow-step
        #: pattern as the profiler, so the plain kernel pays nothing.
        self.sanitizer = None
        if sanitize or _os.environ.get("REPRO_DETSAN", "") not in ("", "0"):
            from ..analysis.detsan import DetSan

            DetSan().attach(self)

    # -- properties ------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    @property
    def queue_size(self) -> int:
        """Number of events currently scheduled."""
        return len(self._pending) + len(self._urgent)

    # -- event creation --------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def timeout_at(self, time: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires at the *absolute* time ``time``.

        Unlike ``timeout(time - now)``, the event fires at exactly ``time``
        with no floating-point round trip, which lets callers reproduce a
        previously computed event time bit-for-bit.
        """
        return Timeout(self, None, value, at=time)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` from a generator."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _push(self, time: float, priority: int, eid: int, event: Event) -> None:
        # The one way into the heap: DetSan shadows this per instance.
        heappush(self._pending, (time, priority, eid, event))

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Schedule ``event`` after ``delay`` seconds (negative or NaN: ``ValueError``)."""
        if priority == URGENT and delay == 0.0:
            # Same-time URGENT events outrank every NORMAL event queued for
            # this instant, and time cannot move backwards, so they can skip
            # the queue entirely (no (time, priority, eid, event) tuple churn).
            self._urgent.append(event)
            return
        if not (delay >= 0):
            raise ValueError(f"Negative or NaN delay {delay}")
        self._push(self._now + delay, priority, next(self._eid), event)

    def schedule_at(self, event: Event, time: float, priority: int = NORMAL) -> None:
        """Schedule ``event`` at the absolute ``time`` (past or NaN: ``ValueError``)."""
        if not (time >= self._now):
            raise ValueError(f"Cannot schedule at {time} (now is {self._now})")
        self._push(time, priority, next(self._eid), event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent:
            return self._now
        return self._pending[0][0] if self._pending else float("inf")

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` if no events remain.
        """
        if self._urgent:
            event = self._urgent.popleft()
        else:
            try:
                self._now, _, _, event = heappop(self._pending)
            except IndexError:
                raise EmptySchedule() from None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            # Event was already processed (can happen when an event is both
            # interrupted and scheduled); nothing to do.
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failed event aborts the simulation.
            raise event._value

    # -- bounded-horizon stepping (parallel partitions) ------------------
    def run_until_horizon(self, horizon: float, inclusive: bool = False) -> float:
        """Process pending events up to a time barrier, then stop.

        The conservative-window parallel scheme (:mod:`repro.parallel`)
        advances each partition's environment with this instead of
        :meth:`run`: events strictly before ``horizon`` are committed
        (``inclusive=True`` also commits events *at* ``horizon`` — the
        null-message micro-window for zero-lookahead edges), and the first
        uncommitted event stays in the queue untouched, so boundary
        messages arriving at or after the barrier can still be scheduled
        causally.

        Returns :meth:`peek` after stopping: the time of the first
        uncommitted event, or ``inf`` when the partition has gone idle.
        ``inclusive=True`` requires a finite ``horizon`` (an unbounded
        inclusive window is just :meth:`run`).
        """
        if inclusive:
            while self.peek() <= horizon:
                self.step()
        else:
            while self.peek() < horizon:
                self.step()
        return self.peek()

    def export_pending(self):
        """Drain the pending queue into portable ``(time, priority, eid, event)``
        entries, in exact pop order.

        Together with :meth:`import_pending` this is the kernel's
        event-migration hook: a partition can be checkpointed or shipped to
        another process without perturbing the ``(time, priority, eid)``
        total order.  Zero-delay URGENT events never survive a barrier (they
        are consumed within the step that scheduled them), so exporting with
        a non-empty urgent lane is a caller bug and raises.
        """
        if self._urgent:
            raise RuntimeError(
                "cannot export pending events while zero-delay URGENT events "
                "are queued (export only at a window barrier)")
        # Keys are unique, so the sort never compares two events.
        entries = sorted(self._pending)
        self._pending.clear()
        return entries

    def import_pending(self, entries) -> None:
        """Re-insert entries from :meth:`export_pending`.

        Events already pending stay scheduled; the imported ones merge into
        the same total order.  Event ids are preserved and the id counter
        resumes past the highest imported id, so events scheduled after an
        import sort exactly as they would have in the exporting environment.
        """
        push = self._push
        top = -1
        for time, priority, eid, event in entries:
            push(time, priority, eid, event)
            if eid > top:
                top = eid
        current = next(self._eid)
        self._eid = count(max(current, top + 1))

    # -- profiling -------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Attach a kernel profiler (e.g. :class:`repro.obs.KernelProfiler`).

        Profiling swaps in an instrumented ``step`` as an *instance*
        attribute, shadowing the class method; with no profiler attached the
        kernel therefore runs the unmodified hot path at zero overhead.
        """
        self.profiler = profiler
        self.__dict__["step"] = self._profiled_step
        attach = getattr(profiler, "attach", None)
        if attach is not None:
            attach(self)

    def detach_profiler(self) -> None:
        """Remove the attached profiler and restore the plain ``step``."""
        profiler, self.profiler = self.profiler, None
        self.__dict__.pop("step", None)
        detach = getattr(profiler, "detach", None)
        if detach is not None:
            detach(self)

    def _profiled_step(self) -> None:
        # Keep in sync with :meth:`step` — this is a copy of its body plus
        # the profiler hook, so the unprofiled path pays nothing.
        profiler = self.profiler
        if self._urgent:
            event = self._urgent.popleft()
        else:
            try:
                self._now, _, _, event = heappop(self._pending)
            except IndexError:
                raise EmptySchedule() from None

        if profiler is not None:
            profiler.on_event(self._now, event, len(self._pending) + len(self._urgent))

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time) or an :class:`Event` (run until the
        event triggers; its value is returned).
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self._now:
                raise ValueError(
                    f"until (={at}) must be greater than the current time ({self._now})"
                )
            until = Event(self)
            until._ok = True
            until._value = None
            # Absolute scheduling: ``now + (at - now)`` can round an ulp away
            # from ``at``, and the stop time must be bit-exact (it is compared
            # against ``timeout_at``/``schedule_at`` times elsewhere).
            self.schedule_at(until, at, priority=NORMAL)

        if until is not None:
            if until.callbacks is None:
                # Already processed: report exactly like StopSimulation.callback
                # would have — value for a success, re-raise for a failure.
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(StopSimulation.callback)

        try:
            while True:
                self.step()
        except StopSimulation as exc:
            return exc.args[0] if exc.args else None
        except EmptySchedule:
            if until is not None and not until.triggered:
                raise RuntimeError(
                    f"No scheduled events left but \"until\" event was not triggered: {until!r}"
                ) from None
        return None
