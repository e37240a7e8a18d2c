"""Seeded randomness for workload generation and stochastic timing models.

Every stochastic component in the reproduction draws from a
:class:`RandomSource` so that benchmarks and tests are reproducible for a
fixed seed, while independent components can still use independent streams
(via :meth:`RandomSource.spawn`).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Union

import numpy as np

__all__ = ["RandomSource", "stable_seed"]


def stable_seed(*parts: Union[str, int, float]) -> int:
    """Deterministic 63-bit seed derived from a tuple of key parts.

    Hash-based (SHA-256), so the result depends only on the key values —
    never on process, platform or call order.  Useful for keying the
    integer-``seed`` APIs (workloads, arrival processes) per sweep cell.
    """
    digest = hashlib.sha256("\x1f".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class RandomSource:
    """Thin wrapper over :class:`numpy.random.Generator` with spawnable streams."""

    def __init__(self, seed: Optional[int] = 0):
        self._seed_seq = np.random.SeedSequence(seed)
        self._rng = np.random.default_rng(self._seed_seq)

    @property
    def rng(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._rng

    def spawn(self) -> "RandomSource":
        """Create an independent child stream (deterministic given the parent)."""
        child = object.__new__(RandomSource)
        child._seed_seq = self._seed_seq.spawn(1)[0]
        child._rng = np.random.default_rng(child._seed_seq)
        return child

    def spawn_named(self, key: str) -> "RandomSource":
        """Create an independent child stream keyed by ``key``.

        Unlike :meth:`spawn` — which advances the parent's spawn counter, so
        the stream a child receives depends on *how many* spawns happened
        before it — the named stream is a pure function of the parent's seed
        and the key string.  A sweep shard keyed by its cell key therefore
        draws the same stream no matter which worker runs it, in what order,
        or how many other shards were spawned first.
        """
        digest = hashlib.sha256(key.encode()).digest()
        words = tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))
        child = object.__new__(RandomSource)
        child._seed_seq = np.random.SeedSequence(
            entropy=self._seed_seq.entropy,
            spawn_key=tuple(self._seed_seq.spawn_key) + words,
        )
        child._rng = np.random.default_rng(child._seed_seq)
        return child

    # -- convenience draws ------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival draw with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be > 0")
        return float(self._rng.exponential(mean))

    def lognormal(self, mean: float, sigma: float) -> float:
        """Lognormal draw parameterised by the *target arithmetic mean*.

        ``mean`` is the desired arithmetic mean of the distribution and
        ``sigma`` the shape parameter of the underlying normal.
        """
        if mean <= 0:
            raise ValueError("mean must be > 0")
        mu = np.log(mean) - 0.5 * sigma**2
        return float(self._rng.lognormal(mu, sigma))

    def choice(self, options: Sequence) -> object:
        idx = int(self._rng.integers(0, len(options)))
        return options[idx]

    def normal(self, mean: float, std: float) -> float:
        return float(self._rng.normal(mean, std))

    def jitter(self, value: float, fraction: float = 0.05) -> float:
        """Multiplicative jitter of ±``fraction`` around ``value`` (never negative)."""
        factor = 1.0 + self._rng.uniform(-fraction, fraction)
        return max(0.0, value * factor)
