"""Vector index (the FAISS substitute for the RAG case study, §6.2).

:class:`FlatIndex` is exact inner-product / cosine search (FAISS
``IndexFlatIP`` equivalent), which is all the case study's corpus needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

__all__ = ["SearchHit", "FlatIndex"]


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
