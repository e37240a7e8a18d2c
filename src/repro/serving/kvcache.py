"""Paged KV-cache block manager (the PagedAttention memory model).

vLLM's PagedAttention stores each sequence's KV cache in fixed-size blocks so
GPU memory can be allocated on demand and reclaimed without fragmentation.
The engine uses this manager to decide how many sequences can run
concurrently; when the pool is exhausted, admission stalls (and, under
sustained pressure, the engine preempts the most recently admitted sequence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

__all__ = ["KVCacheConfig", "KVCacheManager"]


@dataclass(frozen=True)
class KVCacheConfig:
    """Sizing of the paged KV cache."""

    capacity_tokens: int
    block_size: int = 16

    def __post_init__(self):
        if self.capacity_tokens < 0:
            raise ValueError("capacity_tokens must be >= 0")
        if self.block_size <= 0:
            raise ValueError("block_size must be > 0")

    @property
    def total_blocks(self) -> int:
        return self.capacity_tokens // self.block_size


class KVCacheManager:
    """Tracks block allocation per sequence."""

    def __init__(self, config: KVCacheConfig):
        self.config = config
        self._allocated: Dict[str, int] = {}
        self._used_blocks = 0
        #: Cumulative count of allocation failures (admission stalls).
        self.allocation_failures = 0
        #: Cumulative count of preemptions performed by the engine.
        self.preemptions = 0

    # -- queries -----------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        return self.config.total_blocks

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._used_blocks

    @property
    def utilization(self) -> float:
        if self.total_blocks == 0:
            return 1.0
        return self._used_blocks / self.total_blocks

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to store ``tokens`` tokens of KV cache."""
        return math.ceil(max(0, tokens) / self.config.block_size)

    def can_allocate(self, tokens: int) -> bool:
        return self.blocks_for(tokens) <= self.free_blocks

    def holds(self, seq_id: str) -> bool:
        return seq_id in self._allocated

    # -- mutation ------------------------------------------------------------
    def allocate(self, seq_id: str, tokens: int) -> bool:
        """Reserve blocks for a new sequence; returns False if it does not fit."""
        if seq_id in self._allocated:
            raise ValueError(f"Sequence {seq_id} already has an allocation")
        blocks = self.blocks_for(tokens)
        if blocks > self.free_blocks:
            self.allocation_failures += 1
            return False
        self._allocated[seq_id] = blocks
        self._used_blocks += blocks
        return True

    def grow(self, seq_id: str, new_total_tokens: int) -> bool:
        """Grow a sequence's allocation to cover ``new_total_tokens`` tokens."""
        if seq_id not in self._allocated:
            raise KeyError(f"Sequence {seq_id} has no allocation")
        needed = self.blocks_for(new_total_tokens)
        current = self._allocated[seq_id]
        if needed <= current:
            return True
        extra = needed - current
        if extra > self.free_blocks:
            self.allocation_failures += 1
            return False
        self._allocated[seq_id] = needed
        self._used_blocks += extra
        return True

    def free(self, seq_id: str) -> None:
        """Release every block held by ``seq_id`` (no-op if unknown)."""
        blocks = self._allocated.pop(seq_id, 0)
        self._used_blocks -= blocks

    def preempt(self, seq_id: str) -> None:
        """Free a sequence's blocks due to preemption (tracked separately)."""
        if seq_id in self._allocated:
            self.preemptions += 1
            self.free(seq_id)

    def reset(self) -> None:
        self._allocated.clear()
        self._used_blocks = 0
