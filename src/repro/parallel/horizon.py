"""Conservative window planning (the PDES synchronization core).

Each round, every partition reports the earliest time it could next commit
an event (its *bound*: the head of its pending queue, folded with the
arrival times of boundary messages routed to it but not yet delivered).
The planner then picks the next window:

* **exclusive window** — all partitions may safely process events strictly
  before ``horizon = min over partitions of (bound + lookahead)``, where a
  partition's *lookahead* is the minimum transfer latency on its outgoing
  edges.  Any message a partition generates at ``t`` carries
  ``arrival >= t + lookahead >= bound + lookahead >= horizon``, so nothing
  delivered at the next barrier can land inside the window: barrier
  delivery is causal and every partition can run independently.

* **inclusive micro-window** — when some blocking edge has zero lookahead
  the horizon degenerates to the global minimum bound ``t_min`` and an
  exclusive window would commit nothing.  Instead all partitions process
  events *at exactly* ``t_min`` (time cannot move past it), exchanging any
  same-instant messages at the barrier.  This is the synchronous-window
  form of Chandy–Misra null messages: each round commits at least one
  event globally, so zero-lookahead edges throttle the window size but can
  never deadlock.

The plan is a pure function of the reported bounds, so every run of a
scenario replays the identical window sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Window", "WindowStats", "plan_window"]

_INF = float("inf")


@dataclass(frozen=True)
class Window:
    """One synchronization round: advance everything to ``time``."""

    time: float
    #: True for a null-message micro-window (commit events *at* ``time``);
    #: False for a normal exclusive window (commit strictly before).
    inclusive: bool


@dataclass
class WindowStats:
    """Window/overhead breakdown surfaced in results and the layered benchmark."""

    windows: int = 0
    micro_windows: int = 0
    messages: int = 0
    #: Wall-clock seconds inside partition advances (simulation work).
    advance_wall_s: float = 0.0
    #: Wall-clock seconds in barrier round-trips + planning (coordination).
    sync_wall_s: float = 0.0
    #: Per-kind message counts (dispatch/result/ping).
    message_kinds: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "windows": self.windows,
            "micro_windows": self.micro_windows,
            "messages": self.messages,
            "advance_wall_s": self.advance_wall_s,
            "sync_wall_s": self.sync_wall_s,
            "message_kinds": dict(sorted(self.message_kinds.items())),
        }


def plan_window(bounds: Dict[int, float],
                lookaheads: Dict[int, float]) -> Optional[Window]:
    """Next window for the reported per-partition bounds, or ``None`` when
    every partition is idle (the simulation is complete)."""
    horizon = _INF
    t_min = _INF
    for pid, bound in bounds.items():
        if bound < t_min:
            t_min = bound
        candidate = bound + lookaheads[pid]
        if candidate < horizon:
            horizon = candidate
    if t_min == _INF:
        return None
    if horizon <= t_min:
        # Some partition at the global minimum has zero outgoing lookahead:
        # an exclusive window to `horizon` would commit nothing.  Null-
        # message micro-window at t_min instead (see module docstring).
        return Window(time=t_min, inclusive=True)
    return Window(time=horizon, inclusive=False)
