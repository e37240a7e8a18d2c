"""Per-user rate limiting (part of the gateway's protection layer, §3.1.1)."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from ..common import RateLimitError

__all__ = ["SlidingWindowRateLimiter"]


class SlidingWindowRateLimiter:
    """Sliding-window request limiter keyed by username."""

    def __init__(self, max_requests: int, window_s: float):
        if max_requests <= 0:
            raise ValueError("max_requests must be > 0")
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        self.max_requests = max_requests
        self.window_s = window_s
        self._events: Dict[str, Deque[float]] = {}
        self.rejections = 0

    def check(self, user: str, now: float) -> None:
        """Record one request for ``user``; raise :class:`RateLimitError` if over."""
        window = self._events.setdefault(user, deque())
        cutoff = now - self.window_s
        while window and window[0] <= cutoff:
            window.popleft()
        if len(window) >= self.max_requests:
            self.rejections += 1
            raise RateLimitError(
                f"User {user} exceeded {self.max_requests} requests per {self.window_s:.0f}s"
            )
        window.append(now)

    def current_usage(self, user: str, now: float) -> int:
        window = self._events.get(user, deque())
        cutoff = now - self.window_s
        return sum(1 for t in window if t > cutoff)
