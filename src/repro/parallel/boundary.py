"""Boundary messages exchanged between partitions at window barriers.

The only cross-partition edges in a partitioned federated deployment are
relay transfers (gateway → cluster dispatches, cluster → gateway results)
plus the piggy-backed pool snapshots that keep the gateway's
:class:`~repro.placement.TopologyView` current.  Each message carries the
*absolute* simulated arrival time, stamped by the sender from the relay's
deterministic transfer latencies — the same latencies that serve as the
conservative lookahead, which is what makes barrier delivery causal: a
message generated during a window can never arrive before that window's
horizon.

Messages are plain picklable dataclasses.  Delivery order is pinned by
:func:`sort_key` — ``(arrival_time, source partition, per-sender sequence)``
— so the receiving environment schedules them in an order that is a pure
function of simulated history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = ["DISPATCH", "RESULT", "PING", "BoundaryMessage", "sort_key"]

#: Gateway → cluster: a relay task crossing into the cluster's partition.
DISPATCH = "dispatch"
#: Cluster → gateway: the task outcome (plus a streamed task's token times).
RESULT = "result"
#: Toy kind used by :class:`~repro.parallel.partition.PingPartition` — the
#: minimal zero-lookahead exchange the null-message tests drive.
PING = "ping"


@dataclass
class BoundaryMessage:
    """One cross-partition event, delivered at an exact simulated time."""

    kind: str
    #: Sending / receiving partition ids (dense indexes, stable per run).
    src: int
    dst: int
    #: Per-sender monotone sequence, the deterministic same-time tiebreak.
    seq: int
    #: Absolute simulated time the message takes effect at the receiver.
    arrival_time: float
    #: Kind-specific body (task fields, outcome, token times, ...).
    body: Dict[str, Any] = field(default_factory=dict)


def sort_key(message: BoundaryMessage) -> Tuple[float, int, int]:
    """Total delivery order: arrival time, then sender, then send order."""
    return (message.arrival_time, message.src, message.seq)


def validate_arrival(message: BoundaryMessage, now: float,
                     window_time: Optional[float] = None) -> None:
    """Causality guard: a message must not arrive in the receiver's past.

    Raises ``RuntimeError`` (not an assert — this must hold in production
    runs too) when a sender understated its lookahead.  ``window_time``
    adds context to the error only.
    """
    if message.arrival_time < now:
        raise RuntimeError(
            f"causality violation: {message.kind} message from partition "
            f"{message.src} arrives at {message.arrival_time} but partition "
            f"{message.dst} is already at {now}"
            + (f" (window {window_time})" if window_time is not None else "")
        )
