"""Gateway configuration, including the three optimisation toggles of §5.3.1."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

__all__ = ["ServerMode", "RetrievalMode", "GatewayConfig"]


class ServerMode(str, enum.Enum):
    """How the API application handles concurrency.

    ``ASYNC`` models the Django-Ninja + Gunicorn/Uvicorn deployment: workers
    only hold CPU while parsing/validating/serialising, so thousands of
    requests can be in flight.  ``SYNC_LEGACY`` models the original
    synchronous Django REST deployment, where a worker blocks for the whole
    request and "only nine requests could be processed at a time"
    (Optimization 3).
    """

    ASYNC = "async"
    SYNC_LEGACY = "sync-legacy"


class RetrievalMode(str, enum.Enum):
    """How results are retrieved from the compute layer (Optimization 1)."""

    FUTURES = "futures"
    POLLING = "polling"


@dataclass
class GatewayConfig:
    """Behavioural and timing parameters of the Inference Gateway."""

    # -- server concurrency model (Optimization 3) ---------------------------
    server_mode: ServerMode = ServerMode.ASYNC
    #: Gunicorn sizing from §5.2.2: cpu_count()*2 + 1 workers, 4 threads each.
    cpu_count: int = 32
    threads_per_worker: int = 4
    #: Worker count for the legacy synchronous deployment.
    sync_workers: int = 9

    # -- per-request processing costs ------------------------------------------
    #: CPU time to parse/validate/convert a request (paid on a worker slot).
    ingress_processing_s: float = 0.05
    #: CPU time to serialise/return the response.
    egress_processing_s: float = 0.05
    #: Database logging cost per request.
    db_write_s: float = 0.005

    # -- authentication (Optimization 2) -------------------------------------------
    cache_token_introspection: bool = True
    token_cache_ttl_s: float = 600.0
    #: Extra per-request cost when introspection is NOT cached: a fresh
    #: introspection round-trip plus re-establishing the compute-endpoint
    #: connection ("eliminated 2 s from the latency of each request").
    uncached_connection_setup_s: float = 1.5

    # -- result retrieval (Optimization 1) --------------------------------------------
    retrieval_mode: RetrievalMode = RetrievalMode.FUTURES

    # -- protection ---------------------------------------------------------------------
    #: Per-user request rate limit (requests per window); generous default.
    rate_limit_requests: int = 100000
    rate_limit_window_s: float = 60.0

    # -- routing -----------------------------------------------------------------------------
    #: Cache a routing decision per model for this long (avoids re-querying
    #: facility status for every request in a burst).
    routing_cache_ttl_s: float = 30.0

    # -- streaming (API v2) -----------------------------------------------------------------
    #: Per-chunk delivery latency of a stream event travelling engine → relay
    #: → gateway over the open SSE connection.  Much smaller than the full
    #: result-retrieval path, which is why streaming TTFT ≪ end-to-end latency.
    stream_chunk_latency_s: float = 0.05

    # -- middleware pipeline (API v2) --------------------------------------------------------
    #: Ordered factories (``api -> Middleware``) building the request
    #: pipeline.  ``None`` uses the stock chain from
    #: :func:`repro.gateway.pipeline.default_middleware_factories`; deployments
    #: can insert/replace/remove stages here without touching
    #: :class:`~repro.gateway.app.InferenceGatewayAPI`.
    middleware_factories: Optional[List[Callable]] = None

    # -- defaults for request validation ----------------------------------------------------------
    max_allowed_output_tokens: int = 8192
    default_max_tokens: int = 256

    @property
    def async_worker_slots(self) -> int:
        """Concurrent in-flight requests the async deployment can process."""
        return (self.cpu_count * 2 + 1) * self.threads_per_worker

    def worker_slots(self) -> int:
        if self.server_mode == ServerMode.ASYNC:
            return self.async_worker_slots
        return self.sync_workers
