"""Discrete-event simulation kernel used by every substrate in the reproduction.

This is a small, deterministic, SimPy-style engine written from scratch, with
only what the modelled stack (gateway, relay, cluster scheduler, engine) uses:

* :class:`Environment` — the simulated clock and its one event queue (a binary heap).
* :class:`Event`, :class:`Timeout`, :class:`Process` — the scheduling primitives.
* :class:`AllOf` (``env.all_of``) — wait for a set of events.
* :class:`Resource` — a fixed-capacity, FIFO-queued capacity (worker slots,
  API-server threads, the relay's result channel).

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
3.0
"""

from .environment import EmptySchedule, Environment, StopSimulation
from .events import (
    NORMAL,
    PENDING,
    URGENT,
    AllOf,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from .resources import Request, Resource

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "PENDING",
    "URGENT",
    "NORMAL",
    "Resource",
    "Request",
]
