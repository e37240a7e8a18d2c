"""Shared-resource primitive: a fixed-capacity resource with a FIFO queue.

It models every contended capacity in the FIRST reproduction: the gateway's
worker slots, the relay's result channel, an endpoint's per-instance task
slots, the vLLM API server's threads and the OpenAI baseline's concurrency
limit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .events import Event

__all__ = ["Request", "Resource"]


class Request(Event):
    """Request for one unit of a :class:`Resource` (usable as a context manager)."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource._env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (or withdraw the pending request)."""
        self.resource.release(self)


class Resource:
    """A resource with a fixed integer ``capacity`` and a FIFO wait queue.

    The wait queue is a deque: granting the next waiter is O(1), while
    withdrawing a pending request (cancellation) remains an O(n) removal
    with unchanged semantics.
    """

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self._env = env
        self._capacity = int(capacity)
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def env(self):
        return self._env

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self.queue)

    # -- public API ------------------------------------------------------
    def request(self) -> Request:
        """Request a slot.  Yields when a slot is granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Release a previously granted slot (or withdraw a pending request) at once."""
        if request in self.users:
            self.users.remove(request)
            self._trigger_waiters()
        elif request in self.queue:
            self.queue.remove(request)

    # -- internals -------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _trigger_waiters(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed()
