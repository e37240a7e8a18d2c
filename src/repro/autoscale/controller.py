"""The autoscaling controller: one process on the simulation kernel.

The controller is deliberately thin — sampling cadence and lifecycle only.
All intelligence lives in the policies and all actuation in the replica
pools, so a deployment can mix policies per model under one controller and
tests can drive :meth:`ReplicaPool.tick` directly without a process.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim import Environment
from .pool import ReplicaPool

__all__ = ["AutoscaleController"]


class AutoscaleController:
    """Drives registered :class:`ReplicaPool`\\ s at their configured intervals."""

    def __init__(self, env: Environment):
        self.env = env
        self.pools: List[ReplicaPool] = []
        self._stopped = False
        self.ticks = 0

    def add(self, pool: ReplicaPool, interval_s: float) -> ReplicaPool:
        """Register a pool and start its periodic control loop."""
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.pools.append(pool)
        self.env.process(self._loop(pool, interval_s))
        return pool

    def _loop(self, pool: ReplicaPool, interval_s: float):
        while True:
            yield self.env.timeout(interval_s)
            if self._stopped:
                return
            pool.tick()
            self.ticks += 1

    def stop(self) -> None:
        """Stop all control loops at their next tick (shutdown path)."""
        self._stopped = True

    def snapshot(self) -> Dict[str, dict]:
        """Per-model scale-event summaries."""
        return {pool.model: pool.snapshot() for pool in self.pools}
