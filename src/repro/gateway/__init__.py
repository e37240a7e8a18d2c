"""The FIRST Inference Gateway: OpenAI-compatible API over the compute layer.

Implements §3.1 of the paper as **Gateway API v2** — a composable middleware
pipeline over a typed request context, run as one flat pass (every stage's
``before`` in order, then ``after``, innermost first)::

    request ──▶ Validation ─▶ Auth ─▶ RateLimit ─▶ Accounting ─▶ Routing ─▶ Dispatch ──▶ result

* **Pipeline** (:mod:`.pipeline`, :mod:`.context`) — each concern of the
  request path (validation, token introspection with caching, rate limiting,
  logging/metrics, federated routing, compute dispatch) is
  one :class:`Middleware` stage with ``before(ctx)`` / ``after(ctx, error)``
  hooks; deployments insert/replace stages through
  ``GatewayConfig.middleware_factories`` without touching the application.
* **Typed error envelopes** (:mod:`.responses`) — endpoints return OpenAI-style
  ``{"error": {"type", "code", "message", "status"}}`` bodies mapped from
  :mod:`repro.common.errors`; the client SDK can re-raise them as typed
  exceptions.
* **End-to-end streaming** — ``stream=True`` threads a
  :class:`~repro.serving.StreamChannel` through the compute layer down to the
  serving engine; the gateway timestamps each token (gateway-observed
  TTFT/ITL) and relays OpenAI-style ``chat.completion.chunk`` events to the
  caller::

      for chunk in client.chat_completion(model, messages, stream=True):
          print(chunk["choices"][0]["delta"].get("content", ""), end="")

Plus batch jobs (§4.4), the ``/jobs`` model-status endpoint, PostgreSQL-style
logging and the metrics dashboard.
"""

from .app import InferenceGatewayAPI
from .authlayer import GatewayAuthLayer
from .config import GatewayConfig, RetrievalMode, ServerMode
from .context import GatewayStream, RequestContext
from .database import BatchRecord, GatewayDatabase, RequestLogEntry
from .metrics import GatewayMetrics
from .pipeline import (
    AccountingMiddleware,
    AuthMiddleware,
    DispatchMiddleware,
    GatewayPipeline,
    Middleware,
    RateLimitMiddleware,
    RoutingMiddleware,
    ValidationMiddleware,
    default_middleware_factories,
)
from .ratelimit import SlidingWindowRateLimiter
from .responses import error_envelope, exception_from_envelope, is_error_envelope

__all__ = [
    "InferenceGatewayAPI",
    "GatewayConfig",
    "ServerMode",
    "RetrievalMode",
    "GatewayAuthLayer",
    "GatewayDatabase",
    "RequestLogEntry",
    "BatchRecord",
    "GatewayMetrics",
    "SlidingWindowRateLimiter",
    # -- API v2 pipeline -------------------------------------------------------
    "RequestContext",
    "GatewayStream",
    "GatewayPipeline",
    "Middleware",
    "ValidationMiddleware",
    "AuthMiddleware",
    "RateLimitMiddleware",
    "AccountingMiddleware",
    "RoutingMiddleware",
    "DispatchMiddleware",
    "default_middleware_factories",
    # -- error envelopes -------------------------------------------------------
    "error_envelope",
    "exception_from_envelope",
    "is_error_envelope",
]
