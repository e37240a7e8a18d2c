"""Model-serving substrate: catalog, timing model, engines and front-ends.

This package replaces vLLM/Infinity in the reproduction: a continuous-
batching engine with a paged KV cache and a calibrated timing model, an
OpenAI-style API front-end whose concurrency behaviour matches the paper's
Direct-vs-FIRST observations, an offline batch runner, and an embedding
engine.
"""

from .api_server import APIServer, APIServerConfig, APIServerStats
from .backends import BACKENDS, BackendSpec, get_backend, register_backend
from .embedding import EmbeddingEngine, EmbeddingEngineConfig, hash_embedding
from .engine import ContinuousBatchingEngine, EngineConfig, EngineStats
from .instance import EmbeddingServingInstance, InstanceState, ServingInstance
from .kvcache import KVCacheConfig, KVCacheManager
from .models import ModelCatalog, ModelKind, ModelSpec, default_catalog
from .offline import OfflineBatchRunner, OfflineRunResult
from .request import InferenceRequest, InferenceResult, RequestKind
from .stream import STREAM_CHANNEL_KEY, StreamChannel, StreamEvent, TokenBatch
from .textgen import SyntheticTextGenerator, estimate_tokens
from .timing import PerfModelConfig, PerformanceModel

__all__ = [
    "ModelSpec",
    "ModelKind",
    "ModelCatalog",
    "default_catalog",
    "PerformanceModel",
    "PerfModelConfig",
    "KVCacheManager",
    "KVCacheConfig",
    "ContinuousBatchingEngine",
    "EngineConfig",
    "EngineStats",
    "APIServer",
    "APIServerConfig",
    "APIServerStats",
    "ServingInstance",
    "EmbeddingServingInstance",
    "InstanceState",
    "OfflineBatchRunner",
    "OfflineRunResult",
    "EmbeddingEngine",
    "EmbeddingEngineConfig",
    "hash_embedding",
    "InferenceRequest",
    "InferenceResult",
    "RequestKind",
    "StreamChannel",
    "TokenBatch",
    "StreamEvent",
    "STREAM_CHANNEL_KEY",
    "SyntheticTextGenerator",
    "estimate_tokens",
    "BackendSpec",
    "BACKENDS",
    "get_backend",
    "register_backend",
]
