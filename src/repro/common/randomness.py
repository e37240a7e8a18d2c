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

#: Values a request-set builder draws per bulk call, so each numpy scratch
#: array stays at or under 64 KB however many requests the set holds.
DRAW_BLOCK = 4096


def stable_seed(*parts: Union[str, int, float]) -> int:
    """Deterministic 63-bit seed derived from a tuple of key parts.

    Hash-based (SHA-256), so the result depends only on the key values —
    never on process, platform or call order.  Useful for keying the
    integer-``seed`` APIs (workloads, arrival processes) per sweep cell.
    """
    digest = hashlib.sha256("\x1f".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class RandomSource:
    """Thin wrapper over :class:`numpy.random.Generator`.

    With numpy's ``size=``, :meth:`exponential` and :meth:`lognormal` return
    the values one scalar call per value would, in the same (C) order.
    """

    def __init__(self, seed: Optional[int] = 0):
        self._rng = np.random.default_rng(seed)

    # -- convenience draws ------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def exponential(self, mean: float, size=None):
        """Exponential inter-arrival draw with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be > 0")
        if size is None:
            return float(self._rng.exponential(mean))
        return self._rng.exponential(mean, size)

    def lognormal(self, mean, sigma, size=None):
        """Lognormal draw parameterised by the *target arithmetic mean*.

        ``mean`` is the desired arithmetic mean of the distribution and
        ``sigma`` the shape parameter of the underlying normal.  With ``size``,
        both may be small arrays broadcast against it (``mean=(a, b)``,
        ``size=(k, 2)`` draws a, b, a, ...); each pair's ``mu`` comes from
        the scalar expression, never a vectorised ``log``.
        """
        if size is None:
            return float(self._rng.lognormal(_lognormal_mu(mean, sigma), sigma))
        mean, sigma = np.broadcast_arrays(mean, sigma)
        mu = [_lognormal_mu(m, s) for m, s in zip(mean.ravel().tolist(), sigma.ravel().tolist())]
        return self._rng.lognormal(np.reshape(mu, mean.shape), sigma, size)

    def choice(self, options: Sequence) -> object:
        idx = int(self._rng.integers(0, len(options)))
        return options[idx]


def _lognormal_mu(mean: float, sigma: float):
    """Location of the underlying normal whose lognormal has mean ``mean``."""
    if mean <= 0:
        raise ValueError("mean must be > 0")
    return np.log(mean) - 0.5 * sigma**2
