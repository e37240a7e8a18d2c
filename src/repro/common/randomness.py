"""Seeded randomness for workload generation and stochastic timing models.

Every stochastic component in the reproduction draws from a
:class:`RandomSource` so that benchmarks and tests are reproducible for a
fixed seed.  Independent components get independent streams by seeding
from distinct :func:`stable_seed` keys.
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
    """Thin wrapper over :class:`numpy.random.Generator`."""

    def __init__(self, seed: Optional[int] = 0):
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._rng

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
