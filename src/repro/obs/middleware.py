"""The gateway's observability stage.

Per ROADMAP conventions new gateway behavior lands as pipeline stages via
``GatewayConfig.middleware_factories``, never as edits to
``InferenceGatewayAPI``.  :class:`ObservabilityMiddleware` is the whole
observability layer of one gateway: built from an
:class:`~repro.obs.trace.ObservabilityConfig`, it owns the
:class:`~repro.obs.trace.Tracer` and the optional
:class:`~repro.obs.kernel.KernelProfiler` and publishes itself as
``api.observability`` for the trace endpoints and the dashboard.  A
deployment with ``DeploymentConfig.observability`` set runs it as the first
stage, in front of the stock chain or any configured one.  Its ``before``
begins a :class:`~repro.obs.trace.TraceContext` per request, roots the span
tree and stamps the request metadata so downstream layers (relay → endpoint
→ engine) join the same trace; its ``after``, last out whether the request
failed or not, stamps the outcome and finishes the trace.  It only traces:
the gateway's RED metrics live in :class:`~repro.gateway.GatewayMetrics`,
recorded whether or not this stage is installed.
"""

from __future__ import annotations

from typing import Optional

from ..gateway.pipeline import Middleware
from .kernel import KernelProfiler
from .trace import TRACE_KEY, ObservabilityConfig, Tracer

__all__ = ["ObservabilityMiddleware"]


class ObservabilityMiddleware(Middleware):
    """First pipeline stage: root the trace, stamp the request's outcome."""

    name = "observability"

    def __init__(self, api, config: Optional[ObservabilityConfig] = None):
        super().__init__(api)
        self.tracer = Tracer(api.env, config)
        self.kernel_profiler: Optional[KernelProfiler] = None
        if self.tracer.config.profile_kernel:
            self.kernel_profiler = KernelProfiler()
            api.env.attach_profiler(self.kernel_profiler)
        api.observability = self

    # -- exposition ---------------------------------------------------------
    def trace(self, trace_id: str) -> Optional[dict]:
        ctx = self.tracer.get(trace_id)
        return ctx.to_dict() if ctx is not None else None

    def summary(self) -> dict:
        """JSON-serializable snapshot for the gateway dashboard."""
        out = {"tracing": self.tracer.stats(),
               "slowest": [{"trace_id": tid, "duration_s": dur}
                           for dur, tid in self.tracer.slowest()]}
        if self.kernel_profiler is not None:
            out["kernel"] = self.kernel_profiler.snapshot()
        return out

    # -- the stage ----------------------------------------------------------
    def before(self, ctx):
        request = ctx.request
        tctx = self.tracer.begin(request.request_id)
        ctx.metadata[TRACE_KEY] = tctx
        if not tctx.recording:
            # The trace has no path to retention: keep the span machinery
            # (and the downstream layers) untouched.
            return
        ctx.trace_context = tctx
        # The trace rides the request's own metadata downstream (relay →
        # endpoint → engine), the same way the stream channel travels.
        request.metadata[TRACE_KEY] = tctx
        tctx.current = tctx.start_span(
            "gateway.request", layer="gateway",
            attrs={"model": request.model, "kind": request.kind.value,
                   "stream": ctx.streaming})

    def after(self, ctx, error):
        tctx = ctx.metadata.pop(TRACE_KEY)
        if tctx.recording:
            root, result = tctx.current, ctx.result
            if error is not None:
                root.status = f"error:{type(error).__name__}"
            root.attrs["outcome"] = (
                "exception" if error is not None
                else "failure" if result is None or not result.success
                else "success")
            tctx.end_span(root)
            tctx.current = None
            # Drop our metadata entry if the request never reached the
            # engine (which pops it from result metadata itself).
            ctx.request.metadata.pop(TRACE_KEY, None)
        self.tracer.finish(tctx)
