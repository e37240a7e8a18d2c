"""Vector indexes (the FAISS substitute for the RAG case study, §6.2).

Two index types are provided:

* :class:`FlatIndex` — exact inner-product / cosine search (FAISS
  ``IndexFlatIP`` equivalent);
* :class:`IVFIndex` — an inverted-file index: vectors are clustered with a
  small k-means, queries probe the ``nprobe`` nearest clusters (FAISS
  ``IndexIVFFlat`` equivalent).  Approximate but much cheaper for large
  corpora.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from ..common.randomness import RandomSource

__all__ = ["SearchHit", "FlatIndex", "IVFIndex"]


@dataclass
class SearchHit:
    """One nearest-neighbour result."""

    score: float
    metadata: Any
    index: int


def _as_matrix(vectors: Sequence[Sequence[float]]) -> np.ndarray:
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    return matrix


def _normalise(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


class FlatIndex:
    """Exact cosine-similarity search."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dim must be > 0")
        self.dim = dim
        self._vectors = np.empty((0, dim), dtype=np.float64)
        self._metadata: List[Any] = []

    def __len__(self) -> int:
        return len(self._metadata)

    def add(self, vectors: Sequence[Sequence[float]], metadata: Sequence[Any]) -> None:
        matrix = _as_matrix(vectors)
        if matrix.shape[1] != self.dim:
            raise ValueError(f"Expected dimension {self.dim}, got {matrix.shape[1]}")
        if matrix.shape[0] != len(metadata):
            raise ValueError("vectors and metadata must have the same length")
        self._vectors = np.vstack([self._vectors, _normalise(matrix)])
        self._metadata.extend(metadata)

    def search(self, query: Sequence[float], k: int = 5) -> List[SearchHit]:
        if len(self) == 0:
            return []
        q = _normalise(_as_matrix(query))[0]
        scores = self._vectors @ q
        k = min(k, len(self))
        top = np.argsort(-scores)[:k]
        return [SearchHit(score=float(scores[i]), metadata=self._metadata[i], index=int(i))
                for i in top]


class IVFIndex:
    """Inverted-file approximate index (k-means coarse quantiser + per-list flat search)."""

    def __init__(self, dim: int, n_lists: int = 8, nprobe: int = 2, seed: int = 0,
                 kmeans_iters: int = 10):
        if dim <= 0 or n_lists <= 0 or nprobe <= 0:
            raise ValueError("dim, n_lists and nprobe must be > 0")
        self.dim = dim
        self.n_lists = n_lists
        self.nprobe = min(nprobe, n_lists)
        self.kmeans_iters = kmeans_iters
        # Same SeedSequence(seed) stream default_rng(seed) would build, but
        # routed through the one sanctioned randomness substrate (DET002).
        self._rng = RandomSource(seed).rng
        self._centroids: Optional[np.ndarray] = None
        self._lists: List[List[int]] = []
        self._vectors = np.empty((0, dim), dtype=np.float64)
        self._metadata: List[Any] = []

    def __len__(self) -> int:
        return len(self._metadata)

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def train(self, vectors: Sequence[Sequence[float]]) -> None:
        """Fit the coarse quantiser with a small k-means."""
        matrix = _normalise(_as_matrix(vectors))
        n = matrix.shape[0]
        k = min(self.n_lists, n)
        idx = self._rng.choice(n, size=k, replace=False)
        centroids = matrix[idx].copy()
        for _ in range(self.kmeans_iters):
            assignment = np.argmax(matrix @ centroids.T, axis=1)
            for c in range(k):
                members = matrix[assignment == c]
                if len(members) > 0:
                    centroid = members.mean(axis=0)
                    norm = np.linalg.norm(centroid)
                    centroids[c] = centroid / norm if norm > 0 else centroid
        self._centroids = centroids
        self.n_lists = k
        self.nprobe = min(self.nprobe, k)
        self._lists = [[] for _ in range(k)]

    def add(self, vectors: Sequence[Sequence[float]], metadata: Sequence[Any]) -> None:
        if not self.is_trained:
            self.train(vectors)
        matrix = _normalise(_as_matrix(vectors))
        if matrix.shape[0] != len(metadata):
            raise ValueError("vectors and metadata must have the same length")
        start = len(self._metadata)
        assignment = np.argmax(matrix @ self._centroids.T, axis=1)
        self._vectors = np.vstack([self._vectors, matrix])
        self._metadata.extend(metadata)
        for offset, cluster in enumerate(assignment):
            self._lists[int(cluster)].append(start + offset)

    def search(self, query: Sequence[float], k: int = 5) -> List[SearchHit]:
        if len(self) == 0 or not self.is_trained:
            return []
        q = _normalise(_as_matrix(query))[0]
        cluster_scores = self._centroids @ q
        probes = np.argsort(-cluster_scores)[: self.nprobe]
        candidates: List[int] = []
        for cluster in probes:
            candidates.extend(self._lists[int(cluster)])
        if not candidates:
            return []
        cand = np.asarray(candidates)
        scores = self._vectors[cand] @ q
        order = np.argsort(-scores)[: min(k, len(cand))]
        return [
            SearchHit(score=float(scores[i]), metadata=self._metadata[int(cand[i])],
                      index=int(cand[i]))
            for i in order
        ]
