"""Benchmark client (the vLLM ``benchmark_serving.py`` equivalent, §5.2.2).

The client sends a list of requests to a *target* according to an arrival
process and records per-request timings.  A target is anything with a
``submit(request) -> Event`` method whose event resolves to an object with
``success``, ``output_tokens`` and optionally ``first_token_time`` — the
direct vLLM front-end, the FIRST gateway client, or the OpenAI-API baseline
all satisfy this protocol.

One arrival driver does the sending: :meth:`BenchmarkClient.run` walks the
arrival offsets, sleeps until each send time and submits the request there;
a callback on the target's event writes the request's record when it
resolves, and a countdown of unfinished requests wakes the driver after the
last one.  The kernel therefore holds one pending event per request in
flight, not one per request of the run.
"""

from __future__ import annotations

from typing import List, Optional

from ..metrics import MetricsCollector, RequestRecord, summarize
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
        """Simulation process: send every request at its arrival offset and
        wait for all completions.  Offsets must be non-decreasing."""
        arrival = arrival or InfiniteArrival()
        offsets = arrival.offsets(len(requests))
        if any(later < earlier for earlier, later in zip(offsets, offsets[1:])):
            raise ValueError(f"{arrival.label}: arrival offsets must be non-decreasing")
        env = self.env
        start = env.now
        finished = env.event()
        outstanding = len(requests)

        def settled() -> None:
            nonlocal outstanding
            outstanding -= 1
            if not outstanding:
                finished.succeed()

        for request, offset in zip(requests, offsets):
            # Where a relative ``timeout(send_at - start)`` taken at the start
            # would fire, ``send_at`` being ``start + offset``.
            at = start + ((start + offset) - start)
            if at > env.now:
                yield env.timeout_at(at)
            self._send(request, settled)
        if outstanding:
            yield finished
        duration = env.now - start
        label = summary_label or f"{self.label} @ {arrival.label}"
        return summarize(self.collector.records, label=label, duration_s=duration)

    def _send(self, request: InferenceRequest, settled) -> None:
        """Submit ``request`` now; its record is written when the target's
        event resolves (or at once, if ``submit`` raises), then ``settled``
        is called."""
        request.arrival_time = self.env.now
        record = RequestRecord(
            request_id=request.request_id,
            model=request.model,
            send_time=self.env.now,
            prompt_tokens=request.prompt_tokens,
        )

        def complete(event) -> None:
            if not event.ok:
                event.defuse()
            self._finish(record, event.ok, event.value)
            settled()

        try:
            event = self.target.submit(request)
        except Exception as exc:  # noqa: BLE001 - benchmark records failures
            self._finish(record, False, exc)
            settled()
            return
        if event.callbacks is None:
            complete(event)
        else:
            event.callbacks.append(complete)

    def _finish(self, record: RequestRecord, ok: bool, result) -> None:
        """Complete ``record`` now: ``result`` is the target's result, or the
        exception the request failed with when ``ok`` is false."""
        record.completion_time = self.env.now
        if not ok:
            record.success = False
            record.error = f"{type(result).__name__}: {result}"
        elif result is None:
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
