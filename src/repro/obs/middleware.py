"""Gateway wiring for the observability layer.

Per ROADMAP conventions new gateway behavior lands as pipeline stages via
``GatewayConfig.middleware_factories``, never as edits to
``InferenceGatewayAPI``.  :func:`observability_middleware_factories` returns
the stock chain with an :class:`ObservabilityMiddleware` prepended: its
``before`` begins a :class:`~repro.obs.trace.TraceContext` per request,
roots the span tree and stamps the request metadata so downstream layers
(relay → endpoint → engine) join the same trace; its ``after``, last out
whether the request failed or not, stamps the outcome and finishes the
trace.  It only traces: the gateway's RED metrics live in
:class:`~repro.gateway.GatewayMetrics`, recorded whether or not this stage
is installed.

The factory is a plain picklable dataclass so deployments configured with
it survive the sweep plane's spawn-based sharding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..gateway.pipeline import Middleware, default_middleware_factories
from .kernel import KernelProfiler
from .trace import TRACE_KEY, Tracer, TracerConfig

__all__ = [
    "ObservabilityConfig",
    "ObservabilityLayer",
    "ObservabilityMiddleware",
    "ObservabilityMiddlewareFactory",
    "observability_middleware_factories",
]


@dataclass
class ObservabilityConfig:
    """Deployment-level observability knobs (picklable)."""

    #: Head-sampling probability for trace retention (see TracerConfig).
    sample_rate: float = 1.0
    #: Always-retained top-K-slowest reservoir size.
    slowest_k: int = 8
    #: FIFO bound on head-sampled retained traces.
    max_traces: int = 256
    #: Per-trace span cap.
    max_spans_per_trace: int = 512
    #: Seed of the deterministic hash-based head-sampling decision.
    seed: int = 0
    #: Attach a KernelProfiler to the deployment's Environment.
    profile_kernel: bool = False


class ObservabilityLayer:
    """Tracer + (optional) kernel profiler for one gateway."""

    def __init__(self, env, config: Optional[ObservabilityConfig] = None):
        self.config = config or ObservabilityConfig()
        self.tracer = Tracer(
            env,
            TracerConfig(
                sample_rate=self.config.sample_rate,
                slowest_k=self.config.slowest_k,
                max_traces=self.config.max_traces,
                max_spans_per_trace=self.config.max_spans_per_trace,
            ),
            seed=self.config.seed,
        )
        self.kernel_profiler: Optional[KernelProfiler] = None
        if self.config.profile_kernel:
            self.kernel_profiler = KernelProfiler()
            env.attach_profiler(self.kernel_profiler)

    # -- exposition ---------------------------------------------------------
    def trace(self, trace_id: str) -> Optional[dict]:
        ctx = self.tracer.get(trace_id)
        return ctx.to_dict() if ctx is not None else None

    def trace_perfetto(self, trace_id: str) -> Optional[dict]:
        ctx = self.tracer.get(trace_id)
        if ctx is None:
            return None
        from .export import to_chrome_trace

        return to_chrome_trace(ctx)

    def summary(self) -> dict:
        """JSON-serializable snapshot for the gateway dashboard."""
        out = {"tracing": self.tracer.stats(),
               "slowest": [{"trace_id": tid, "duration_s": dur}
                           for dur, tid in self.tracer.slowest()]}
        if self.kernel_profiler is not None:
            out["kernel"] = self.kernel_profiler.snapshot()
        return out


class ObservabilityMiddleware(Middleware):
    """First pipeline stage: root the trace, stamp the request's outcome."""

    name = "observability"

    def __init__(self, api, layer: ObservabilityLayer):
        super().__init__(api)
        self.layer = layer

    def before(self, ctx):
        request = ctx.request
        tctx = self.layer.tracer.begin(request.request_id)
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
                else "cache_hit" if ctx.cache_hit else "success")
            tctx.end_span(root)
            tctx.current = None
            # Drop our metadata entry if the request never reached the
            # engine (which pops it from result metadata itself).
            ctx.request.metadata.pop(TRACE_KEY, None)
        self.layer.tracer.finish(tctx)


@dataclass
class ObservabilityMiddlewareFactory:
    """Picklable factory: builds the layer once and publishes it on the api.

    The gateway application exposes the layer as ``api.observability`` so
    the ``GET /v1/traces/{id}`` endpoint (and the dashboard) can reach it.
    """

    config: ObservabilityConfig = field(default_factory=ObservabilityConfig)

    def __call__(self, api) -> ObservabilityMiddleware:
        layer = ObservabilityLayer(api.env, self.config)
        api.observability = layer
        return ObservabilityMiddleware(api, layer)


def observability_middleware_factories(
    config: Optional[ObservabilityConfig] = None,
) -> List:
    """The stock gateway chain with the observability stage prepended."""
    return [ObservabilityMiddlewareFactory(config or ObservabilityConfig()),
            *default_middleware_factories()]
