"""Discrete-event simulation kernel used by every substrate in the reproduction.

This is a small, deterministic, SimPy-style engine written from scratch:

* :class:`Environment` — the simulated clock and its one event queue (a binary heap).
* :class:`Event`, :class:`Timeout`, :class:`Process` — the scheduling primitives.
* :class:`Resource`, :class:`PriorityResource`, :class:`Container` — contended
  capacities (GPU slots, worker threads, relay channels, memory).
* :class:`Store`, :class:`FilterStore`, :class:`PriorityStore` — message queues.

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
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from .resources import (
    Container,
    ContainerGet,
    ContainerPut,
    PriorityRequest,
    PriorityResource,
    Release,
    Request,
    Resource,
)
from .stores import FilterStore, PriorityItem, PriorityStore, Store, StoreGet, StorePut

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "PENDING",
    "URGENT",
    "NORMAL",
    "Resource",
    "PriorityResource",
    "Request",
    "PriorityRequest",
    "Release",
    "Container",
    "ContainerPut",
    "ContainerGet",
    "Store",
    "FilterStore",
    "PriorityStore",
    "PriorityItem",
    "StoreGet",
    "StorePut",
]
