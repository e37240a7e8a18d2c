"""Observability substrate: tracing, metrics registry, kernel profiling.

Eagerly exports only the gateway-independent pieces (trace and its
:class:`ObservabilityConfig`, registry, kernel profiler, exporter) —
:mod:`repro.serving.engine` imports :data:`TRACE_KEY` from here, so pulling
:mod:`repro.obs.middleware` (which imports the gateway, which imports
serving) at package import time would create a cycle.  The gateway stage,
:class:`ObservabilityMiddleware`, is reachable lazily via ``__getattr__``.
"""

from .export import to_chrome_trace
from .kernel import KernelProfiler
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (TRACE_KEY, ObservabilityConfig, Span, TraceContext,
                    TraceShape, Tracer, span_tree)

__all__ = [
    "TRACE_KEY",
    "Span",
    "TraceContext",
    "TraceShape",
    "Tracer",
    "ObservabilityConfig",
    "span_tree",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "KernelProfiler",
    "to_chrome_trace",
    # lazy (see __getattr__): the gateway stage
    "ObservabilityMiddleware",
]


def __getattr__(name):
    if name == "ObservabilityMiddleware":
        from .middleware import ObservabilityMiddleware

        return ObservabilityMiddleware
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
