"""Benchmark client (the vLLM ``benchmark_serving.py`` equivalent, §5.2.2).

The client sends a list of requests to a *target* according to an arrival
process and records per-request timings.  A target is anything with a
``submit(request) -> Event`` method whose event resolves to an object with
``success``, ``output_tokens`` and optionally ``first_token_time`` — the
direct vLLM front-end, the FIRST gateway client, or the OpenAI-API baseline
all satisfy this protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..metrics import BenchmarkSummary, MetricsCollector, RequestRecord, summarize
from ..serving import InferenceRequest
from ..sim import Environment
from .arrivals import ArrivalProcess, InfiniteArrival

__all__ = ["BenchmarkClient"]


class BenchmarkClient:
    """Drives a target with a workload and produces a :class:`BenchmarkSummary`."""

    def __init__(self, env: Environment, target, label: Optional[str] = None):
        self.env = env
        self.target = target
        self.label = label or getattr(target, "name", type(target).__name__)
        self.collector = MetricsCollector()

    # -- simulation process --------------------------------------------------------
    def run(
        self,
        requests: List[InferenceRequest],
        arrival: Optional[ArrivalProcess] = None,
        summary_label: Optional[str] = None,
    ):
        """Simulation process: send every request and wait for all completions."""
        arrival = arrival or InfiniteArrival()
        offsets = arrival.offsets(len(requests))
        start = self.env.now
        done_events = []
        for request, offset in zip(requests, offsets):
            done = self.env.event()
            done_events.append(done)
            self.env.process(self._send_one(request, start + offset, done))
        yield self.env.all_of(done_events)
        duration = self.env.now - start
        label = summary_label or f"{self.label} @ {arrival.label}"
        return summarize(self.collector.records, label=label, duration_s=duration)

    def _send_one(self, request: InferenceRequest, send_at: float, done):
        if send_at > self.env.now:
            yield self.env.timeout(send_at - self.env.now)
        request.arrival_time = self.env.now
        record = RequestRecord(
            request_id=request.request_id,
            model=request.model,
            send_time=self.env.now,
            prompt_tokens=request.prompt_tokens,
        )
        try:
            result = yield self.target.submit(request)
        except Exception as exc:  # noqa: BLE001 - benchmark records failures
            record.success = False
            record.error = f"{type(exc).__name__}: {exc}"
            record.completion_time = self.env.now
            self.collector.record(record)
            done.succeed()
            return
        record.completion_time = self.env.now
        if result is None:
            record.success = False
            record.error = "no result"
        else:
            record.success = bool(getattr(result, "success", True))
            record.output_tokens = int(getattr(result, "output_tokens", 0))
            first_token = getattr(result, "first_token_time", None)
            if first_token:
                record.first_token_time = first_token
            # Streaming requests: prefer the gateway-observed token timeline
            # (engine timing + per-chunk delivery) over the engine-side TTFT.
            token_times = getattr(result, "metadata", {}).get("gateway_token_times")
            if token_times:
                record.token_times = token_times
                record.first_token_time = token_times[0]
            record.error = getattr(result, "error", None)
        self.collector.record(record)
        done.succeed()
