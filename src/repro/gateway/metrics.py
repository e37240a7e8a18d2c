"""Gateway-side metrics layer and dashboard (§3.1.1).

"The metrics layer provides real-time monitoring of the compute resources
and queue status. Performance and summary metrics are also exposed through a
web dashboard."

:class:`GatewayMetrics` is the gateway's only per-request recorder.  Its
hooks (accounting and dispatch stages) write the RED metrics
(rate, errors, duration) into one :class:`~repro.obs.MetricsRegistry`;
``GET /v1/metrics`` renders that registry and the dashboard's per-model rows
are read back out of it.  Besides the registry the layer keeps *rolling*
windows of the latency and gateway-observed TTFT of the requests each
(model, endpoint) served: their medians are the placement plane's per-pool
latency signal (:meth:`~repro.placement.TopologyView.pool_signal`).
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial
from statistics import median
from typing import Dict, Optional

from ..obs.registry import MetricsRegistry
from ..sim import Environment

__all__ = ["GatewayMetrics"]


OUTCOMES = ("success", "failure", "exception")


class _ModelSeries:
    """One model's registry children, resolved once so the per-request hooks
    never call ``labels()``."""

    __slots__ = ("model", "requests", "outcomes", "latency", "ttft",
                 "prompt_tokens", "output_tokens")

    def __init__(self, metrics: "GatewayMetrics", model: str):
        self.model = model
        #: Requests admitted, in-flight ones included (the dashboard's
        #: ``requests`` column; the registry counts requests as they finish).
        self.requests = 0
        self.outcomes = {outcome: metrics.requests_total.labels(model=model, outcome=outcome)
                         for outcome in OUTCOMES}
        self.latency = metrics.request_latency.labels(model=model)
        self.ttft = metrics.ttft.labels(model=model)
        self.prompt_tokens = metrics.tokens_total.labels(model=model, kind="prompt")
        self.output_tokens = metrics.tokens_total.labels(model=model, kind="output")

    def to_dict(self) -> dict:
        completed = self.latency.count
        failed = self.outcomes["failure"].value + self.outcomes["exception"].value
        return {
            "model": self.model,
            "requests": self.requests,
            "completed": completed,
            "failed": int(failed),
            "prompt_tokens": int(self.prompt_tokens.value),
            "output_tokens": int(self.output_tokens.value),
            # The histogram's exact running sum: completed requests only.
            "mean_latency_s": round(self.latency.sum / completed if completed else 0.0, 3),
        }


class GatewayMetrics:
    """Per-request RED metrics, batch counters and the dashboard view."""

    def __init__(self, env: Environment, recent_window: int = 256):
        self.env = env
        self.started_at = env.now
        self.registry = MetricsRegistry()
        self.requests_total = self.registry.counter(
            "gateway_requests_total", "Requests finished by the gateway",
            labelnames=("model", "outcome"))
        self.request_latency = self.registry.histogram(
            "gateway_request_latency_seconds",
            "Simulated request latency from the accounting stage",
            labelnames=("model",))
        self.ttft = self.registry.histogram(
            "gateway_ttft_seconds",
            "Gateway-observed time to first streamed token",
            labelnames=("model",))
        self.tokens_total = self.registry.counter(
            "gateway_tokens_total", "Tokens through the gateway",
            labelnames=("model", "kind"))
        self._in_flight = self.registry.gauge(
            "gateway_in_flight_requests",
            "Requests currently in the pipeline").labels()
        self.peak_in_flight = 0
        self.auth_failures = 0
        self.validation_failures = 0
        self.rate_limited = 0
        self.batches_completed = 0
        self.batches_failed = 0
        self.batch_requests_completed = 0
        self.batch_requests_failed = 0
        #: Per-request batch failure reasons, bucketed for the dashboard.
        self.batch_failure_reasons: Dict[str, int] = defaultdict(int)
        self._series: Dict[str, _ModelSeries] = {}
        #: Rolling windows keyed by (model, endpoint).
        window = partial(deque, maxlen=recent_window)
        self._latencies: Dict[tuple, deque] = defaultdict(window)
        self._ttfts: Dict[tuple, deque] = defaultdict(window)

    @property
    def in_flight(self) -> int:
        return int(self._in_flight.value)

    def _model(self, model: str) -> _ModelSeries:
        series = self._series.get(model)
        if series is None:
            series = self._series[model] = _ModelSeries(self, model)
        return series

    # -- lifecycle hooks ---------------------------------------------------------
    def request_started(self, model: str, prompt_tokens: int) -> None:
        series = self._model(model)
        series.requests += 1
        series.prompt_tokens.value += prompt_tokens
        gauge = self._in_flight
        gauge.value += 1
        if gauge.value > self.peak_in_flight:
            self.peak_in_flight = int(gauge.value)

    def request_completed(self, model: str, output_tokens: int, latency_s: float,
                          endpoint: Optional[str] = None) -> None:
        series = self._model(model)
        series.outcomes["success"].value += 1
        series.output_tokens.value += output_tokens
        series.latency.observe(latency_s)
        if endpoint is not None:
            self._latencies[model, endpoint].append(latency_s)
        self._in_flight.value = max(0, self._in_flight.value - 1)

    def request_failed(self, model: str, outcome: str = "failure") -> None:
        self._model(model).outcomes[outcome].value += 1
        self._in_flight.value = max(0, self._in_flight.value - 1)

    def record_stream_timing(self, model: str, ttft_s: float,
                             endpoint: Optional[str] = None) -> None:
        """Record a gateway-observed TTFT (dispatch stage hook)."""
        self._model(model).ttft.observe(ttft_s)
        if endpoint is not None:
            self._ttfts[model, endpoint].append(ttft_s)

    def recent_timings(self, model: str, endpoint: str) -> Optional[dict]:
        """Rolling medians over the requests ``endpoint`` served for ``model``
        (the placement plane's per-pool latency signal): ``None`` before any
        observation, a key ``None`` until its signal exists."""
        latencies = self._latencies.get((model, endpoint))
        ttfts = self._ttfts.get((model, endpoint))
        if latencies is None and ttfts is None:
            return None
        return {"latency_p50_s": median(latencies) if latencies else None,
                "ttft_p50_s": median(ttfts) if ttfts else None}

    # -- batch lifecycle hooks -----------------------------------------------------
    # Batches are accounted separately from the interactive per-model
    # counters (which track gateway requests): the dashboard surfaces them
    # as ``batches_completed`` / ``batches_failed`` plus per-request
    # completion/failure counts and bucketed failure reasons.
    def batch_completed(self, model: str, num_requests: int, output_tokens: int,
                        failed_requests: int = 0,
                        failure_reasons: Optional[Dict[str, str]] = None) -> None:
        """Count a finished batch job (possibly with partial failures)."""
        self.batches_completed += 1
        self.batch_requests_completed += max(0, num_requests - failed_requests)
        self.batch_requests_failed += failed_requests
        for reason in (failure_reasons or {}).values():
            self.batch_failure_reasons[reason] += 1

    def batch_failed(self, model: str, num_requests: int,
                     reason: Optional[str] = None) -> None:
        """Count a failed batch job (every request in it failed)."""
        self.batches_failed += 1
        self.batch_requests_failed += num_requests
        if reason:
            # Reason buckets are per *request* (matching batch_completed), so
            # they always reconcile with ``batch_requests_failed``.
            self.batch_failure_reasons[reason] += num_requests

    # -- aggregates --------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return sum(s.requests for s in self._series.values())

    @property
    def total_completed(self) -> int:
        return sum(s.latency.count for s in self._series.values())

    @property
    def total_output_tokens(self) -> int:
        return sum(int(s.output_tokens.value) for s in self._series.values())

    def dashboard(self, extra: Optional[dict] = None) -> dict:
        """Summary dict in the spirit of the paper's monitoring dashboard."""
        uptime = self.env.now - self.started_at
        data = {
            "uptime_s": uptime,
            "total_requests": self.total_requests,
            "total_completed": self.total_completed,
            "total_output_tokens": self.total_output_tokens,
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
            "auth_failures": self.auth_failures,
            "validation_failures": self.validation_failures,
            "rate_limited": self.rate_limited,
            "batches_completed": self.batches_completed,
            "batches_failed": self.batches_failed,
            "batch_requests_completed": self.batch_requests_completed,
            "batch_requests_failed": self.batch_requests_failed,
            "batch_failure_reasons": dict(self.batch_failure_reasons),
            "models": [self._series[model].to_dict()
                       for model in sorted(self._series)],
        }
        if extra:
            data.update(extra)
        return data
