"""Retrieval-Augmented Generation toolkit (the HPC assistant case study, §6.2)."""

from .chunker import Chunk, chunk_corpus, chunk_document
from .corpus import Document, hpc_documentation_corpus
from .index import FlatIndex, SearchHit
from .pipeline import RAGAnswer, RAGPipeline

__all__ = [
    "Document",
    "hpc_documentation_corpus",
    "Chunk",
    "chunk_document",
    "chunk_corpus",
    "FlatIndex",
    "SearchHit",
    "RAGPipeline",
    "RAGAnswer",
]
