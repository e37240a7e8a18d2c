"""Gateway-side metrics layer and dashboard (§3.1.1).

"The metrics layer provides real-time monitoring of the compute resources
and queue status. Performance and summary metrics are also exposed through a
web dashboard."

Besides the cumulative dashboard counters, the layer keeps *rolling* windows
of recently observed per-model timings (end-to-end latency for every
request; gateway-observed TTFT and inter-token latencies for streaming
requests).  These medians feed the autoscaling control plane through
:class:`repro.autoscale.MetricsFeed` — the gateway is the loop's
latency sensor.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from statistics import median
from typing import Deque, Dict, List, Optional

from ..sim import Environment

__all__ = ["ModelUsage", "GatewayMetrics"]


@dataclass
class ModelUsage:
    """Aggregated per-model counters."""

    model: str
    requests: int = 0
    completed: int = 0
    failed: int = 0
    prompt_tokens: int = 0
    output_tokens: int = 0
    total_latency_s: float = 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.total_latency_s / self.completed if self.completed else 0.0

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "mean_latency_s": round(self.mean_latency_s, 3),
        }


class _RecentTimings:
    """Bounded windows of the most recent per-model timing observations."""

    __slots__ = ("latencies", "ttfts", "itls")

    def __init__(self, window: int):
        self.latencies: Deque[float] = deque(maxlen=window)
        self.ttfts: Deque[float] = deque(maxlen=window)
        self.itls: Deque[float] = deque(maxlen=window)


class GatewayMetrics:
    """In-process counters surfaced by the gateway's dashboard endpoint."""

    def __init__(self, env: Environment, recent_window: int = 256):
        self.env = env
        self.started_at = env.now
        self.per_model: Dict[str, ModelUsage] = {}
        self.in_flight = 0
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
        self._recent_window = recent_window
        #: Rolling windows keyed by (model, endpoint); the ``None`` endpoint
        #: is the fleet-wide window the autoscale feed samples, per-endpoint
        #: windows feed the placement plane's pool signals.
        self._recent: Dict[tuple, _RecentTimings] = {}

    def _usage(self, model: str) -> ModelUsage:
        if model not in self.per_model:
            self.per_model[model] = ModelUsage(model=model)
        return self.per_model[model]

    def _timings(self, model: str, endpoint: Optional[str] = None) -> _RecentTimings:
        key = (model, endpoint)
        if key not in self._recent:
            self._recent[key] = _RecentTimings(self._recent_window)
        return self._recent[key]

    # -- lifecycle hooks ---------------------------------------------------------
    def request_started(self, model: str, prompt_tokens: int) -> None:
        usage = self._usage(model)
        usage.requests += 1
        usage.prompt_tokens += prompt_tokens
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def request_completed(self, model: str, output_tokens: int, latency_s: float,
                          endpoint: Optional[str] = None) -> None:
        usage = self._usage(model)
        usage.completed += 1
        usage.output_tokens += output_tokens
        usage.total_latency_s += latency_s
        self._timings(model).latencies.append(latency_s)
        if endpoint is not None:
            self._timings(model, endpoint).latencies.append(latency_s)
        self.in_flight = max(0, self.in_flight - 1)

    def request_failed(self, model: str) -> None:
        self._usage(model).failed += 1
        self.in_flight = max(0, self.in_flight - 1)

    def record_stream_timing(self, model: str, ttft_s: float,
                             itl_values: Optional[List[float]] = None,
                             endpoint: Optional[str] = None) -> None:
        """Record gateway-observed streaming timings (dispatch stage hook)."""
        for timings in ([self._timings(model)]
                        + ([self._timings(model, endpoint)] if endpoint else [])):
            timings.ttfts.append(ttft_s)
            if itl_values:
                timings.itls.extend(itl_values)

    def recent_timings(self, model: str,
                       endpoint: Optional[str] = None) -> Optional[dict]:
        """Rolling medians for ``model`` (the autoscale feed's sensor read).

        With ``endpoint`` the medians cover only requests served by that
        endpoint — the placement plane's per-pool latency signal.  Returns
        ``None`` when nothing has been observed yet; individual keys are
        ``None`` until their signal exists (e.g. no streaming traffic).
        """
        timings = self._recent.get((model, endpoint))
        if timings is None:
            return None
        return {
            "latency_p50_s": median(timings.latencies) if timings.latencies else None,
            "ttft_p50_s": median(timings.ttfts) if timings.ttfts else None,
            "itl_p50_s": median(timings.itls) if timings.itls else None,
        }

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
        return sum(u.requests for u in self.per_model.values())

    @property
    def total_completed(self) -> int:
        return sum(u.completed for u in self.per_model.values())

    @property
    def total_output_tokens(self) -> int:
        return sum(u.output_tokens for u in self.per_model.values())

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
            "models": [u.to_dict() for u in sorted(self.per_model.values(),
                                                   key=lambda u: u.model)],
        }
        if extra:
            data.update(extra)
        return data
