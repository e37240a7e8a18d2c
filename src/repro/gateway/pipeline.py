"""Composable middleware pipeline — the Gateway API v2 request path.

The monolithic ``InferenceGatewayAPI._handle`` generator of API v1 is
decomposed into six single-purpose stages run in one flat pass by
:class:`GatewayPipeline`::

    request ──▶ Validation ─▶ Auth ─▶ RateLimit ─▶ Accounting ─▶ Routing ─▶ Dispatch ──▶ result
                                                     ▲                         │
                                                     └── db/metrics ◀──────────┘ (``after``)

Each stage is a :class:`Middleware`.  Its ``before(ctx)`` may read/write the
:class:`RequestContext`, spend simulated time (by returning a generator) or
raise a typed error (mapped to an envelope at the edge).  Its
``after(ctx, error)`` runs on the way out, innermost first, for every stage
whose ``before`` started — ``error`` is ``None`` or the exception the
request is failing with — which is how accounting observes the result.

Deployments customise the chain without touching ``InferenceGatewayAPI``:
``GatewayConfig.middleware_factories`` holds a list of callables that take
the gateway application and return a middleware — start from
:func:`default_middleware_factories` and insert/replace/remove stages.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..faas import HANDLER_CHAT, HANDLER_EMBEDDING
from ..serving import RequestKind, StreamChannel
from .config import RetrievalMode, ServerMode
from .context import RequestContext
from .database import RequestLogEntry

__all__ = [
    "Middleware",
    "GatewayPipeline",
    "ValidationMiddleware",
    "AuthMiddleware",
    "RateLimitMiddleware",
    "AccountingMiddleware",
    "RoutingMiddleware",
    "DispatchMiddleware",
    "default_middleware_factories",
    "MiddlewareFactory",
]

#: A factory takes the gateway application and returns a middleware instance.
MiddlewareFactory = Callable[[object], "Middleware"]


class Middleware:
    """One stage of the gateway pipeline.

    Subclasses override :meth:`before` and/or :meth:`after`; the base
    implementations do nothing.  ``before`` returns ``None`` or, to wait, a
    generator.  ``after`` runs on the way out whether the request succeeded
    or not; an exception it raises replaces ``error`` for the stages outside
    it.
    """

    #: Stable stage name recorded in ``ctx.trace`` (observability/tests).
    name = "middleware"

    def __init__(self, api):
        self.api = api

    def before(self, ctx: RequestContext):
        return None

    def after(self, ctx: RequestContext, error) -> None:
        pass


class GatewayPipeline:
    """Runs a request context through an ordered middleware chain."""

    def __init__(self, middlewares: Sequence[Middleware]):
        self.middlewares: List[Middleware] = list(middlewares)
        self._span_names = [f"gateway.stage.{m.name}" for m in self.middlewares]

    def run(self, ctx: RequestContext):
        """Simulation process: drive ``ctx`` through every stage."""
        # (stage, its span, the span current before it) per stage entered:
        # spans nest, and ``current`` is restored on the way out so ``after``
        # work (accounting) is attributed to its own stage.
        entered = []
        error = None
        try:
            for middleware, span_name in zip(self.middlewares, self._span_names):
                ctx.trace.append(middleware.name)
                tctx = ctx.trace_context
                span = prev = None
                if tctx is not None:
                    prev = tctx.current
                    span = tctx.current = tctx.start_span(span_name, parent=prev,
                                                          layer="gateway")
                entered.append((middleware, span, prev))
                wait = middleware.before(ctx)
                if wait is not None:
                    yield from wait
        except BaseException as exc:
            error = exc
        for middleware, span, prev in reversed(entered):
            try:
                middleware.after(ctx, error)
            except BaseException as exc:
                error = exc
            if span is not None:
                if error is not None:
                    span.status = f"error:{type(error).__name__}"
                tctx.end_span(span)
                tctx.current = prev
        if error is not None:
            raise error

    def stage_names(self) -> List[str]:
        return [m.name for m in self.middlewares]


# --------------------------------------------------------------------------- stages
class ValidationMiddleware(Middleware):
    """Resolve the model against the catalog and pay the ingress CPU cost.

    In sync-legacy server mode this stage also acquires the worker slot that
    stays held for the whole request (Optimization 3's "only nine requests
    at a time" behaviour); the gateway releases it when the pipeline ends.
    """

    name = "validation"

    def before(self, ctx: RequestContext):
        api = self.api
        cfg = api.config
        ctx.model_name = api.validate_model(ctx.request.model)
        ctx.request.model = ctx.model_name
        if ctx.streaming and ctx.request.kind == RequestKind.EMBEDDING:
            from ..common import ValidationError

            raise ValidationError("stream=True is not supported for embeddings")
        if cfg.server_mode == ServerMode.SYNC_LEGACY:
            ctx.sync_slot = api.workers.request()
            yield ctx.sync_slot
        # Ingress CPU work (parse/validate/convert).
        if cfg.server_mode == ServerMode.ASYNC:
            yield from api.worker_slot(cfg.ingress_processing_s)
        else:
            yield api.env.timeout(cfg.ingress_processing_s)


class AuthMiddleware(Middleware):
    """Token introspection (cached, single-flight) + per-model policy check."""

    name = "auth"

    def before(self, ctx: RequestContext):
        api = self.api
        info = yield from api.auth_layer.authenticate(ctx.access_token)
        api.auth_layer.authorize(info, f"model:{ctx.model_name}")
        ctx.token_info = info
        ctx.request.user = info.username


class RateLimitMiddleware(Middleware):
    """Per-user sliding-window rate limiting."""

    name = "rate-limit"

    def before(self, ctx: RequestContext):
        self.api.rate_limiter.check(ctx.request.user, self.api.env.now)


class AccountingMiddleware(Middleware):
    """Metrics + request-log bookkeeping around the downstream stages."""

    name = "accounting"

    def before(self, ctx: RequestContext):
        api = self.api
        request = ctx.request
        api.metrics.request_started(ctx.model_name, request.prompt_tokens)
        entry = RequestLogEntry(
            request_id=request.request_id,
            user=request.user,
            model=ctx.model_name,
            endpoint="",
            kind=request.kind.value,
            submitted_at=api.env.now,
            prompt_tokens=request.prompt_tokens,
        )
        ctx.log_entry = entry
        if api.config.db_write_s > 0:
            yield api.env.timeout(api.config.db_write_s)
        api.db.log_request(entry)

    def after(self, ctx: RequestContext, error) -> None:
        api = self.api
        entry = ctx.log_entry
        if error is not None:
            # Downstream failure (routing/dispatch): settle the books so the
            # dashboard's in-flight gauge and per-model failure counts stay
            # truthful, then let the edge map the exception to an envelope.
            api.db.complete_request(entry, 0, api.env.now, status="failed",
                                    error=str(error) or type(error).__name__)
            api.metrics.request_failed(ctx.model_name, outcome="exception")
            return
        result = ctx.result
        latency = api.env.now - entry.submitted_at
        api.db.complete_request(
            entry, result.output_tokens, api.env.now,
            status="completed" if result.success else "failed",
            error=result.error,
        )
        if result.success:
            api.metrics.request_completed(
                ctx.model_name, result.output_tokens, latency,
                endpoint=ctx.endpoint.endpoint_id if ctx.endpoint else None,
            )
        else:
            api.metrics.request_failed(ctx.model_name)


class RoutingMiddleware(Middleware):
    """Pick a federated endpoint for the model (short-lived routing cache)."""

    name = "routing"

    def before(self, ctx: RequestContext):
        api = self.api
        endpoint = yield from api.route(ctx.model_name, tenant=ctx.request.user)
        ctx.endpoint = endpoint
        if ctx.log_entry is not None:
            ctx.log_entry.endpoint = endpoint.endpoint_id
        tctx = ctx.trace_context
        if tctx is not None and tctx.current is not None:
            tctx.current.attrs.update(
                endpoint=endpoint.endpoint_id,
                policy=type(api.router).__name__,
            )


class DispatchMiddleware(Middleware):
    """Convert the request into a compute task and retrieve the result.

    For streaming requests an ingress :class:`~repro.serving.StreamChannel`
    travels with the task down to the engine; a forwarding sink on it
    timestamps every token at the gateway (the gateway-observed TTFT/ITL)
    and relays the events to the caller's egress channel.  Only a caller
    with an egress channel reads tokens live; without one the sink asks for
    the timeline alone and the engine sends it as one batch.
    """

    name = "dispatch"

    def before(self, ctx: RequestContext):
        api = self.api
        cfg = api.config
        request = ctx.request
        handler = (
            HANDLER_EMBEDDING if request.kind == RequestKind.EMBEDDING else HANDLER_CHAT
        )
        ingress = None
        forwarded = None
        if ctx.streaming:
            ingress = StreamChannel(api.env, delivery_latency_s=cfg.stream_chunk_latency_s)
            forwarded = self._forward_stream(ctx, ingress)
        future = api.compute_client.submit(
            api.function_for(handler),
            ctx.endpoint.endpoint_id,
            {"request": request},
            submitter=request.user,
            stream_channel=ingress,
        )
        try:
            if cfg.retrieval_mode == RetrievalMode.FUTURES:
                result = yield from api.compute_client.wait_future(future)
            else:
                result = yield from api.compute_client.wait_polling(future)
        except BaseException:
            if ingress is not None:
                # The engine never completed (or never ran): close the
                # channel so the forwarder (and any egress consumer) cannot
                # hang on it.
                ingress.close()
            raise
        if forwarded is not None:
            # Wait for the engine's terminal event (or its close) to reach
            # the forwarding sink before touching the channel: even if the
            # result future somehow beat the per-chunk delivery latency, no
            # in-flight token events are dropped and the gateway-observed
            # timeline is complete.
            yield forwarded
            ingress.close()

        # Egress CPU work (serialise the response).
        if cfg.server_mode == ServerMode.ASYNC:
            yield from api.worker_slot(cfg.egress_processing_s)
        else:
            yield api.env.timeout(cfg.egress_processing_s)

        if ctx.streaming:
            token_times = ctx.gateway_token_times
            result.metadata["gateway_token_times"] = token_times
            if token_times:
                result.metadata["gateway_first_token_time"] = token_times[0]
                api.metrics.record_stream_timing(
                    ctx.model_name,
                    token_times[0] - ctx.started_at,
                    endpoint=ctx.endpoint.endpoint_id if ctx.endpoint else None,
                )
        ctx.result = result

    def _forward_stream(self, ctx: RequestContext, ingress: StreamChannel):
        """Timestamp engine tokens as they reach the gateway and relay them to
        the caller; returns the event that fires once the stream has ended
        (the engine's terminal event, or the channel's close, arrived).

        A token produced at ``time`` arrives at ``time + delivery_latency_s``
        — what the clock reads when a live hop delivers it, and what a
        batched token is stamped with."""
        tctx = ctx.trace_context
        anchor = tctx.current if tctx is not None else None
        ended = self.api.env.event()
        latency = ingress.delivery_latency_s
        times = ctx.gateway_token_times
        egress = ctx.egress
        span = None

        def sink(item) -> None:
            nonlocal span
            if ended.triggered:
                return
            if item is None or item.kind == "done":
                # The terminal chunk for the caller is emitted by the gateway
                # once the authoritative result arrives via the future path.
                if span is not None:
                    span.attrs["tokens"] = len(times)
                    tctx.end_span(span)
                ended.succeed()
                return
            if item.kind == "tokens":
                times.extend([t + latency for t in item.times])
            elif item.kind == "token":
                times.append(item.time + latency)
                if egress is not None:
                    egress.deliver(item)
            if tctx is not None and span is None and times:
                span = tctx.start_span("gateway.stream_delivery", parent=anchor,
                                       layer="gateway", t=times[0])

        ingress.attach_sink(sink, live=egress is not None)
        return ended


def default_middleware_factories() -> List[MiddlewareFactory]:
    """The stock API v2 chain, in order.  Mutate a copy to customise."""
    return [
        ValidationMiddleware,
        AuthMiddleware,
        RateLimitMiddleware,
        AccountingMiddleware,
        RoutingMiddleware,
        DispatchMiddleware,
    ]
