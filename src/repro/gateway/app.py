"""The Inference Gateway API application (Gateway API v2).

This is the OpenAI-compatible entry point of FIRST (§3.1).  Since API v2 the
request path is a composable middleware chain (see
:mod:`repro.gateway.pipeline`) over a typed
:class:`~repro.gateway.context.RequestContext`, run as one flat pass — each
stage's ``before`` in order, then each entered stage's ``after``, innermost
first:

    Validation → Auth → RateLimit → Accounting → Routing → Dispatch

``InferenceGatewayAPI`` itself is a thin assembly: it wires the substrates
(auth layer, rate limiter, caches, database, metrics, compute client), builds
the pipeline from ``GatewayConfig.middleware_factories`` and exposes the
endpoints.  Failures surface as typed error envelopes
(:mod:`repro.gateway.responses`) on the OpenAI-style endpoints and as typed
exceptions on the event-based target protocol.

Streaming (``stream=True``) is honoured end to end: the dispatch stage
threads a stream channel down to the serving engine, timestamps every token
at the gateway, and :meth:`submit_stream` hands callers a
:class:`~repro.gateway.context.GatewayStream` of OpenAI-style events.

All request-handling methods are simulation processes (generators): drive
them with ``env.process(...)`` or through the client SDK in
:mod:`repro.core.client`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..auth import GlobusAuthLikeService
from ..common import (
    IdGenerator,
    NotFoundError,
    ValidationError,
)
from ..faas import HANDLER_BATCH, ComputeClient
from ..placement import PlacementPolicy
from ..serving import (
    InferenceRequest,
    ModelCatalog,
    RequestKind,
    estimate_tokens,
)
from ..sim import Environment, Event, Resource
from ..workload.batchfile import parse_batch_lines
from .authlayer import GatewayAuthLayer
from .config import GatewayConfig
from .context import GatewayStream, RequestContext
from .database import BatchRecord, GatewayDatabase
from .metrics import GatewayMetrics
from .pipeline import GatewayPipeline, default_middleware_factories
from .ratelimit import SlidingWindowRateLimiter
from .responses import error_envelope

__all__ = ["InferenceGatewayAPI"]


@dataclass
class _RoutingCacheEntry:
    endpoint_id: str
    cached_at: float


class InferenceGatewayAPI:
    """The gateway application (Django-Ninja + Gunicorn/Uvicorn equivalent)."""

    def __init__(
        self,
        env: Environment,
        auth: GlobusAuthLikeService,
        compute_client: ComputeClient,
        router: PlacementPolicy,
        catalog: ModelCatalog,
        function_ids: Dict[str, str],
        config: Optional[GatewayConfig] = None,
        database: Optional[GatewayDatabase] = None,
        ids: Optional[IdGenerator] = None,
    ):
        self.env = env
        self.config = config or GatewayConfig()
        self.auth_service = auth
        self.compute_client = compute_client
        self.router = router
        self.catalog = catalog
        self.function_ids = dict(function_ids)
        self.db = database or GatewayDatabase()
        self._ids = ids or IdGenerator()

        self.auth_layer = GatewayAuthLayer(
            env,
            auth,
            cache_enabled=self.config.cache_token_introspection,
            cache_ttl_s=self.config.token_cache_ttl_s,
            uncached_connection_setup_s=self.config.uncached_connection_setup_s,
        )
        self.rate_limiter = SlidingWindowRateLimiter(
            self.config.rate_limit_requests, self.config.rate_limit_window_s
        )
        self.metrics = GatewayMetrics(env)
        self.workers = Resource(env, capacity=self.config.worker_slots())
        self._routing_cache: Dict[tuple, _RoutingCacheEntry] = {}

        #: The :class:`repro.obs.ObservabilityMiddleware` stage, which sets
        #: itself here when it is built (so this must exist before the
        #: factories run).
        self.observability = None
        factories = self.config.middleware_factories or default_middleware_factories()
        self.pipeline = GatewayPipeline([factory(self) for factory in factories])
        #: Context of the most recently finished pipeline run (observability).
        self.last_context: Optional[RequestContext] = None

    # ------------------------------------------------------------------ helpers
    def function_for(self, handler: str) -> str:
        """Registered function id for a built-in handler name."""
        try:
            return self.function_ids[handler]
        except KeyError:
            raise NotFoundError(f"No registered function for handler {handler!r}") from None

    def worker_slot(self, duration_s: float):
        """Hold a worker slot for ``duration_s`` of CPU work (async mode)."""
        with self.workers.request() as slot:
            yield slot
            if duration_s > 0:
                yield self.env.timeout(duration_s)

    def route(self, model: str, tenant: Optional[str] = None):
        """Pick a federated endpoint for ``model`` (with a short-lived cache).

        Decisions are cached per (model, tenant) — tenant-aware policies
        (the SLO router) can shed different tenants differently.  A cached
        decision may reference an endpoint that has since been deregistered
        from the federation; the stale entry is evicted and a fresh
        selection is made instead of surfacing the lookup error.
        """
        key = (model, tenant)
        cached = self._routing_cache.get(key)
        now = self.env.now
        if cached is not None and now - cached.cached_at < self.config.routing_cache_ttl_s:
            try:
                return self.router.view.get(cached.endpoint_id)
            except NotFoundError:
                self._routing_cache.pop(key, None)
        endpoint = yield from self.router.select(model, tenant=tenant)
        self._routing_cache[key] = _RoutingCacheEntry(endpoint.endpoint_id, now)
        return endpoint

    def validate_model(self, model: Optional[str]) -> str:
        if not model:
            raise ValidationError("Request body is missing 'model'")
        if model not in self.catalog:
            raise ValidationError(f"Unknown model: {model}")
        return self.catalog.get(model).name

    # ------------------------------------------------------------- typed request path
    def submit_request(self, access_token: str, request: InferenceRequest) -> Event:
        """Submit a typed :class:`InferenceRequest`; returns an event with the
        :class:`InferenceResult` (the benchmark client's target protocol)."""
        done = self.env.event()
        self.env.process(self._handle(access_token, request, done))
        return done

    def submit_stream(self, access_token: str, request: InferenceRequest) -> GatewayStream:
        """Submit a streaming request; returns a :class:`GatewayStream`.

        The stream's channel carries ``token`` events as the gateway observes
        them and exactly one terminal ``done``/``error`` event; the stream's
        ``done`` event resolves with the final result (or the typed failure).
        """
        request.stream = True
        stream = GatewayStream(self.env, request=request)
        self.env.process(self._handle(access_token, request, stream.done, egress=stream))
        return stream

    def _handle(self, access_token: str, request: InferenceRequest, done: Event,
                egress: Optional[GatewayStream] = None):
        """Pipeline driver: one simulation process per in-flight request."""
        ctx = RequestContext(
            access_token=access_token,
            request=request,
            started_at=self.env.now,
            egress=egress,
        )
        try:
            yield from self.pipeline.run(ctx)
            result = ctx.result
            if result is None:
                raise RuntimeError(
                    "Gateway pipeline finished without a result "
                    f"(stages: {self.pipeline.stage_names()})"
                )
            if egress is not None:
                egress.finish(result)
            if not done.triggered:
                done.succeed(result)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller, typed
            self._classify_failure(exc, ctx.model_name or request.model)
            if egress is not None:
                egress.fail(exc)
            if not done.triggered:
                done.fail(exc)
                done.defuse()
        finally:
            if ctx.sync_slot is not None:
                self.workers.release(ctx.sync_slot)
            self.last_context = ctx

    def _classify_failure(self, exc: Exception, model: str) -> None:
        from ..common import AuthenticationError, AuthorizationError, RateLimitError

        if isinstance(exc, (AuthenticationError, AuthorizationError)):
            self.metrics.auth_failures += 1
        elif isinstance(exc, RateLimitError):
            self.metrics.rate_limited += 1
        elif isinstance(exc, ValidationError):
            self.metrics.validation_failures += 1

    # ------------------------------------------------------------- OpenAI-style endpoints
    def chat_completions(self, access_token: str, body: dict):
        """``POST /v1/chat/completions`` — the OpenAI response dict, or a
        typed error envelope (never a raw exception)."""
        return (yield from self._openai_endpoint(access_token, body,
                                                 RequestKind.CHAT_COMPLETION))

    def completions(self, access_token: str, body: dict):
        """``POST /v1/completions``."""
        return (yield from self._openai_endpoint(access_token, body,
                                                 RequestKind.COMPLETION))

    def embeddings(self, access_token: str, body: dict):
        """``POST /v1/embeddings``."""
        return (yield from self._openai_endpoint(access_token, body,
                                                 RequestKind.EMBEDDING))

    def _openai_endpoint(self, access_token: str, body: dict, kind: RequestKind):
        try:
            request = self.build_request(body, kind)
            result = yield self.submit_request(access_token, request)
        except Exception as exc:  # noqa: BLE001 - every failure becomes an envelope
            # Typed errors map to their own envelope; anything else (e.g. a
            # task failure surfacing as RuntimeError) becomes internal_error.
            return error_envelope(exc)
        return result.to_openai_dict()

    def build_request(self, body: dict, kind: RequestKind) -> InferenceRequest:
        """Convert an OpenAI-style request body into a typed request."""
        model = self.validate_model(body.get("model"))
        if kind == RequestKind.CHAT_COMPLETION:
            messages = body.get("messages")
            if not messages:
                raise ValidationError("chat completion requires 'messages'")
            prompt_text = " ".join(str(m.get("content", "")) for m in messages)
        elif kind == RequestKind.COMPLETION:
            prompt_text = str(body.get("prompt", ""))
            if not prompt_text:
                raise ValidationError("completion requires 'prompt'")
        else:
            prompt_text = str(body.get("input", ""))
            if not prompt_text:
                raise ValidationError("embedding requires 'input'")
        max_tokens = int(body.get("max_tokens", self.config.default_max_tokens))
        if max_tokens <= 0 or max_tokens > self.config.max_allowed_output_tokens:
            raise ValidationError(
                f"max_tokens must be in (0, {self.config.max_allowed_output_tokens}]"
            )
        prompt_tokens = int(body.get("prompt_tokens_hint") or estimate_tokens(prompt_text))
        params = {
            k: body[k]
            for k in ("temperature", "top_p", "frequency_penalty", "presence_penalty", "seed")
            if k in body
        }
        return InferenceRequest(
            request_id=body.get("request_id") or self._ids.next("gw-req"),
            model=model,
            prompt_tokens=prompt_tokens,
            max_output_tokens=1 if kind == RequestKind.EMBEDDING else max_tokens,
            kind=kind,
            prompt_text=prompt_text,
            params=params,
            stream=bool(body.get("stream", False)),
        )

    # ------------------------------------------------------------- batches (§4.4)
    def create_batch(self, access_token: str, input_jsonl: str,
                     endpoint_id: Optional[str] = None):
        """``POST /v1/batches`` — validate the JSONL input and launch a batch job."""
        try:
            record = yield from self._create_batch(access_token, input_jsonl, endpoint_id)
        except Exception as exc:  # noqa: BLE001 - every failure becomes an envelope
            return error_envelope(exc)
        return record.to_dict()

    def _create_batch(self, access_token: str, input_jsonl: str,
                      endpoint_id: Optional[str]):
        info = yield from self.auth_layer.authenticate(access_token)
        requests = parse_batch_lines(input_jsonl, default_user=info.username)
        models = {r.model for r in requests}
        if len(models) != 1:
            raise ValidationError("All requests in a batch must target the same model")
        model = self.validate_model(next(iter(models)))
        self.auth_layer.authorize(info, f"model:{model}")
        for request in requests:
            request.model = model
            request.user = info.username

        if endpoint_id is None:
            endpoint = yield from self.route(model, tenant=info.username)
        else:
            endpoint = self.router.view.get(endpoint_id)

        return self._launch_batch(info.username, model, endpoint, requests)

    def _launch_batch(self, user: str, model: str, endpoint, requests,
                      retried_from: Optional[str] = None) -> BatchRecord:
        """Insert a batch record and dispatch its compute task."""
        record = BatchRecord(
            batch_id=self._ids.next("batch"),
            user=user,
            model=model,
            endpoint=endpoint.endpoint_id,
            num_requests=len(requests),
            status="in_progress",
            created_at=self.env.now,
            requests=list(requests),
            retried_from=retried_from,
        )
        self.db.insert_batch(record)
        future = self.compute_client.submit(
            self.function_for(HANDLER_BATCH),
            endpoint.endpoint_id,
            {"model": model, "requests": list(requests)},
            submitter=user,
        )
        self.env.process(self._track_batch(record, future))
        return record

    def retry_batch(self, access_token: str, batch_id: str):
        """``POST /v1/batches/{id}/retry`` — resubmit only the requests that
        failed, as recorded in the batch's ``failure_reasons`` (§4.4).

        Returns the new batch resource, or a typed error envelope when the
        batch is unknown, still running, or has nothing to retry.
        """
        try:
            record = yield from self._retry_batch(access_token, batch_id)
        except Exception as exc:  # noqa: BLE001 - every failure becomes an envelope
            return error_envelope(exc)
        return record.to_dict()

    def _retry_batch(self, access_token: str, batch_id: str):
        info = yield from self.auth_layer.authenticate(access_token)
        original = self.db.get_batch(batch_id)
        if original is None:
            raise NotFoundError(f"Unknown batch id {batch_id}")
        if original.status not in ("completed", "failed"):
            raise ValidationError(
                f"Batch {batch_id} is still {original.status}; only finished "
                "batches can be retried"
            )
        if original.status == "failed":
            # The whole compute task failed: every request is retryable.
            requests = list(original.requests)
        else:
            failed_ids = set(original.failure_reasons)
            requests = [r for r in original.requests
                        if r.request_id in failed_ids]
        if not requests:
            raise ValidationError(
                f"Batch {batch_id} has no failed requests to retry"
            )
        model = original.model
        self.auth_layer.authorize(info, f"model:{model}")
        # Route afresh: the original endpoint may have left the federation.
        endpoint = yield from self.route(model, tenant=info.username)
        record = self._launch_batch(info.username, model, endpoint, requests,
                                    retried_from=batch_id)
        original.retry_batch_ids.append(record.batch_id)
        return record

    def _track_batch(self, record: BatchRecord, future):
        try:
            run_result = yield from self.compute_client.wait_future(future)
        except Exception as exc:  # noqa: BLE001
            record.status = "failed"
            record.error = str(exc)
            record.completed_at = self.env.now
            record.completed_requests = 0
            record.failed_requests = record.num_requests
            record.output_tokens = 0
            self.metrics.batch_failed(record.model, record.num_requests,
                                      reason=str(exc) or type(exc).__name__)
            return
        record.status = "completed"
        record.completed_at = self.env.now
        record.completed_requests = run_result.num_completed
        record.failed_requests = record.num_requests - run_result.num_completed
        record.output_tokens = run_result.total_output_tokens
        record.results = run_result.results
        # Partial failures: keep the per-request reason so ``GET /v1/batches``
        # can report which requests failed and why (typed envelopes), and the
        # dashboard can bucket the reasons.
        record.failure_reasons = {
            r.request_id: r.error or "unknown failure"
            for r in run_result.results
            if not r.success
        }
        if not record.failure_reasons:
            # Requests are retained only for retry; a fully clean batch has
            # nothing to resubmit, so drop them instead of growing the
            # database with every batch ever run.
            record.requests = []
        self.metrics.batch_completed(
            record.model,
            record.num_requests,
            record.output_tokens,
            failed_requests=record.failed_requests,
            failure_reasons=record.failure_reasons,
        )
        user = self.db.upsert_user(record.user)
        user["tokens"] += record.output_tokens

    def get_batch(self, access_token: str, batch_id: str):
        """``GET /v1/batches/{id}``."""
        try:
            yield from self.auth_layer.authenticate(access_token)
            record = self.db.get_batch(batch_id)
            if record is None:
                raise NotFoundError(f"Unknown batch id {batch_id}")
        except Exception as exc:  # noqa: BLE001 - every failure becomes an envelope
            return error_envelope(exc)
        return record.to_dict()

    # ------------------------------------------------------------- informational endpoints
    def list_models(self) -> dict:
        """``GET /v1/models`` — models hosted anywhere in the federation."""
        models = self.router.view.hosted_models()
        return {
            "object": "list",
            "data": [{"id": m, "object": "model"} for m in sorted(models)],
        }

    def jobs(self) -> List[dict]:
        """``GET /jobs`` — model/instance states across the federation (§4.3).

        Rows come from fresh pool signals, not the view's cache: a cached
        read would move ``computed_at`` and with it the gateway medians a
        later SLO routing decision sees.
        """
        return [{"model": s.model, "endpoint": s.endpoint_id, "cluster": s.cluster,
                 "state": s.state, "running_instances": s.ready_instances,
                 "starting_instances": s.starting_instances,
                 "draining_instances": s.draining_instances,
                 "queued_jobs": s.queued_jobs, "waiting_tasks": s.waiting_tasks}
                for endpoint in self.router.view.endpoints
                for s in endpoint.model_status()]

    def dashboard(self) -> dict:
        """``GET /metrics`` — real-time monitoring summary (§3.1.1)."""
        extra = {
            "database": self.db.usage_summary(),
            "auth_cache": {
                "hits": self.auth_layer.cache_hits,
                "misses": self.auth_layer.cache_misses,
            },
            "queued_at_relay": self.compute_client.relay.queued_tasks,
            "pipeline": self.pipeline.stage_names(),
            # Cumulative per-endpoint/per-rule routing counters: the bounded
            # decision log evicts, these never do.
            "routing": self.router.summary(),
        }
        if self.observability is not None:
            extra["observability"] = self.observability.summary()
        return self.metrics.dashboard(extra=extra)

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` — Prometheus text exposition of the gateway's
        metric registry (:attr:`metrics`; no tracing needed)."""
        return self.metrics.registry.prometheus_text()

    def get_trace(self, trace_id: str) -> dict:
        """``GET /v1/traces/{id}`` — one retained distributed trace."""
        if self.observability is None:
            raise NotFoundError("Observability is not enabled on this gateway")
        trace = self.observability.trace(trace_id)
        if trace is None:
            raise NotFoundError(f"Unknown or unretained trace id: {trace_id}")
        return trace
