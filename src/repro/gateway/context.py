"""Typed per-request state shared by the gateway middleware pipeline.

A :class:`RequestContext` is created once per inbound request and threaded
through every middleware stage (see :mod:`repro.gateway.pipeline`).  Each
stage reads the fields earlier stages populated and records its own outputs,
so the stages stay decoupled from one another: swapping the rate limiter or
inserting an admission-control stage never touches the other stages.

:class:`GatewayStream` is the client-facing handle of a streaming request —
an egress :class:`~repro.serving.StreamChannel` the dispatch stage forwards
engine token events into, plus the final :class:`~repro.serving.InferenceResult`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

from ..auth import TokenInfo
from ..serving import InferenceRequest, InferenceResult, StreamChannel, StreamEvent
from ..sim import Environment, Event
from .database import RequestLogEntry
from .responses import error_envelope

__all__ = ["RequestContext", "GatewayStream"]


class GatewayStream:
    """Handle for one streaming request: an event channel plus the result.

    The gateway publishes :class:`~repro.serving.StreamEvent` items into
    :attr:`channel` as it observes them (``token`` events while the engine
    generates, one terminal ``done`` or ``error`` event) and then closes the
    channel.  ``done`` resolves with the final result for callers that also
    want the non-streaming view.
    """

    def __init__(self, env: Environment, request: Optional[InferenceRequest] = None):
        self.env = env
        self.request = request
        self.channel = StreamChannel(env)
        self.done: Event = env.event()
        self.result: Optional[InferenceResult] = None

    def deliver(self, event: StreamEvent) -> None:
        self.channel.publish(event)

    def finish(self, result: InferenceResult) -> None:
        """Publish the terminal ``done`` event and close the channel."""
        self.result = result
        self.channel.publish(
            StreamEvent(
                kind="done",
                index=result.output_tokens,
                time=self.env.now,
                finish_reason="stop" if result.success else "error",
                result=result,
            )
        )
        self.channel.close()

    def fail(self, exc: BaseException) -> None:
        """Publish the terminal ``error`` event (typed envelope) and close."""
        self.channel.publish(
            StreamEvent(
                kind="error",
                time=self.env.now,
                error=error_envelope(exc)["error"],
                exception=exc,
            )
        )
        self.channel.close()


@dataclass
class RequestContext:
    """Everything the pipeline knows about one in-flight request."""

    access_token: str
    request: InferenceRequest
    #: Simulation time the request entered the pipeline.
    started_at: float = 0.0

    # -- populated by the stages as the request progresses -------------------
    #: Canonical catalog name (ValidationMiddleware).
    model_name: str = ""
    #: Sync-legacy worker slot held for the whole request (ValidationMiddleware).
    sync_slot: Any = None
    #: Introspected identity (AuthMiddleware).
    token_info: Optional[TokenInfo] = None
    #: Request-log row (AccountingMiddleware).
    log_entry: Optional[RequestLogEntry] = None
    #: Selected federated endpoint (RoutingMiddleware).
    endpoint: Any = None
    #: Final result (DispatchMiddleware).
    result: Optional[InferenceResult] = None

    # -- streaming ------------------------------------------------------------
    #: Client-facing stream handle (set for ``submit_stream`` callers).
    egress: Optional[GatewayStream] = None
    #: Gateway-observed arrival time of every token event (DispatchMiddleware),
    #: an ``array('d')``: 8 bytes per token, handed on as the result's
    #: ``metadata["gateway_token_times"]``.
    gateway_token_times: array = field(default_factory=partial(array, "d"))

    # -- observability ---------------------------------------------------------
    #: Names of the middleware stages whose ``before`` started, in order.
    trace: List[str] = field(default_factory=list)
    #: Span-recording :class:`~repro.obs.trace.TraceContext`, when the
    #: deployment runs with the observability stage (None otherwise).
    trace_context: Any = None
    #: Scratch space for middlewares (e.g. what a ``before`` leaves its ``after``).
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def streaming(self) -> bool:
        return bool(self.request.stream)
