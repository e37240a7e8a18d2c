"""Benchmark-owned tracing for the one traced run of each workload.

Three observers, all outside ``src/`` and all observe-only (the traced run's
``sim_fingerprint`` must equal the timed runs'):

* :class:`Spans` wraps the synchronous part of the call into each layer
  (client → gateway → pipeline → FaaS client → relay → endpoint → instance →
  engine) and records ``(name, start, end, parent, request id)`` in memory.
  Most of these calls only start a simulation process and return, so a span
  is the *synchronous* cost of crossing the boundary; the coroutine remainder
  shows up in the self-time family below.
* :class:`KernelCounter` is handed to the public
  ``Environment.attach_profiler`` and counts kernel events, queue depth and
  engine macro-windows.
* :func:`layer_self_times` groups ``cProfile``'s ``tottime`` (a function's
  inclusive time minus its callees') by ``src/repro/<package>/``.

cProfile charges every Python call but not the work inside C functions, so it
shifts proportions toward call-heavy code; ``trace.overhead_ratio`` states how
much slower the traced run was than the timed ones.
"""

from __future__ import annotations

import cProfile
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.core import FIRSTClient
from repro.faas import ComputeClient, ComputeEndpoint, RelayService
from repro.gateway import GatewayPipeline, InferenceGatewayAPI
from repro.serving import ContinuousBatchingEngine, ServingInstance
from repro.sim import Environment

#: The layers are the packages of ``src/repro`` a request can touch.
LAYERS = ("sim", "serving", "faas", "gateway", "cluster", "auth", "autoscale",
          "placement", "federation", "obs", "metrics", "workload", "parallel",
          "sweep", "core", "common")

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _request_id(request) -> str:
    return getattr(request, "request_id", "")


def _payload_request_id(payload) -> str:
    return _request_id(payload.get("request"))


#: (class, method, how to find the request id in the call's arguments), in
#: the order a request crosses them.
BOUNDARIES: Tuple[Tuple[type, str, Callable[..., str]], ...] = (
    (FIRSTClient, "submit",
     lambda self, request: _request_id(request)),
    (InferenceGatewayAPI, "submit_request",
     lambda self, access_token, request: _request_id(request)),
    (GatewayPipeline, "run",
     lambda self, ctx: _request_id(ctx.request)),
    (ComputeClient, "submit",
     lambda self, function_id, endpoint_id, payload, *a, **k: _payload_request_id(payload)),
    (RelayService, "submit",
     lambda self, function_id, endpoint_id, payload, *a, **k: _payload_request_id(payload)),
    (ComputeEndpoint, "enqueue",
     lambda self, record, function: _payload_request_id(record.payload)),
    (ServingInstance, "submit",
     lambda self, request: _request_id(request)),
    (ContinuousBatchingEngine, "submit",
     lambda self, request: _request_id(request)),
)
BOUNDARY_NAMES = tuple(f"{cls.__name__}.{method}" for cls, method, _ in BOUNDARIES)


class Spans:
    """In-memory span log over the layer-boundary calls.

    A span's parent is the boundary call it is nested in, or, when the caller
    was a simulation process resumed later, the latest span an upstream
    boundary opened for the same request: the chain of one request is linear,
    so that is the span that caused it.
    """

    def __init__(self) -> None:
        #: ``(name, start_ns, end_ns, parent span index or -1, request id)``.
        self.rows: List[Optional[tuple]] = []
        self._stack: List[int] = []
        #: request id -> (span index, depth of its boundary) of its latest span.
        self._latest: Dict[str, Tuple[int, int]] = {}
        self._originals: List[Tuple[type, str, Callable]] = []

    def install(self) -> None:
        for depth, (cls, method, request_id_of) in enumerate(BOUNDARIES):
            self._wrap(cls, method, request_id_of, depth)

    def _wrap(self, cls: type, method: str, request_id_of: Callable[..., str],
              depth: int) -> None:
        original = getattr(cls, method)
        name = f"{cls.__name__}.{method}"
        rows, stack, latest = self.rows, self._stack, self._latest
        clock = time.perf_counter_ns

        def boundary(*args, **kwargs):
            request_id = request_id_of(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                parent, parent_depth = latest.get(request_id, (-1, -1))
                if parent_depth >= depth:  # an earlier request reusing the id
                    parent = -1
            index = len(rows)
            rows.append(None)
            latest[request_id] = (index, depth)
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[index] = (name, start, end, parent, request_id)

        setattr(cls, method, boundary)
        self._originals.append((cls, method, original))

    def restore(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Calls and summed synchronous seconds per boundary."""
        out = {name: {"calls": 0, "sync_s": 0.0} for name in BOUNDARY_NAMES}
        for name, start, end, _parent, _request_id in self.rows:
            out[name]["calls"] += 1
            out[name]["sync_s"] += (end - start) / 1e9
        return out


class KernelCounter:
    """Counts at the kernel boundary, via ``Environment.attach_profiler``."""

    def __init__(self) -> None:
        self.events = 0
        self.max_queue_depth = 0
        self.windows = 0
        self.window_iterations = 0
        self._original_init: Optional[Callable] = None

    def on_event(self, now: float, event, queue_depth: int) -> None:
        self.events += 1
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth

    def on_window(self, iterations: int, width_s: float) -> None:
        self.windows += 1
        self.window_iterations += iterations

    def attach_to_new_environments(self) -> None:
        """Also count in environments the timed section itself creates
        (partitions, sweep cells): they cannot be reached from outside."""
        counter = self
        original = self._original_init = Environment.__init__

        def init(env, *args, **kwargs):
            original(env, *args, **kwargs)
            env.attach_profiler(counter)

        Environment.__init__ = init

    def restore(self) -> None:
        if self._original_init is not None:
            Environment.__init__ = self._original_init
            self._original_init = None

    def totals(self) -> Dict[str, int]:
        return {"events": self.events, "max_queue_depth": self.max_queue_depth,
                "windows": self.windows, "window_iterations": self.window_iterations}


def layer_of(filename: str) -> str:
    if filename.startswith(_PACKAGE_ROOT):
        package = filename[len(_PACKAGE_ROOT):].split(os.sep, 1)[0]
        if package in LAYERS:
            return package
    return "other"


def layer_self_times(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Self seconds and calls per layer, plus ``builtin`` (C functions) and
    ``other`` (stdlib, numpy, the benchmark's own driver and wrappers)."""
    out = {layer: {"self_s": 0.0, "calls": 0}
           for layer in LAYERS + ("builtin", "other")}
    for entry in profile.getstats():
        code = entry.code
        layer = "builtin" if isinstance(code, str) else layer_of(code.co_filename)
        out[layer]["self_s"] += entry.inlinetime
        out[layer]["calls"] += entry.callcount
    return out


class TracedRun:
    """Context manager around a workload's timed section in the traced run."""

    def __init__(self, environments) -> None:
        self.spans = Spans()
        self.kernel = KernelCounter()
        self.profile = cProfile.Profile()
        self._environments = list(environments)

    def __enter__(self) -> "TracedRun":
        self.spans.install()
        for env in self._environments:
            env.attach_profiler(self.kernel)
        self.kernel.attach_to_new_environments()
        self.profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self.profile.disable()
        self.kernel.restore()
        for env in self._environments:
            env.detach_profiler()
        self.spans.restore()

    def report(self) -> dict:
        return {"layers": layer_self_times(self.profile),
                "spans": self.spans.totals(),
                "kernel": self.kernel.totals()}

    def span_rows(self) -> List[dict]:
        return [{"id": index, "name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "request_id": request_id}
                for index, (name, start, end, parent, request_id)
                in enumerate(self.spans.rows)]
