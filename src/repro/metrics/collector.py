"""Per-request records and the metrics collector."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["RequestRecord", "MetricsCollector"]


@dataclass(slots=True)
class RequestRecord:
    """Client-side view of one request (what the benchmark tool measures)."""

    request_id: str
    model: str
    send_time: float
    completion_time: Optional[float] = None
    prompt_tokens: int = 0
    output_tokens: int = 0
    success: bool = False
    error: Optional[str] = None
    first_token_time: Optional[float] = None
    #: Per-token arrival times for streaming requests (gateway-observed): the
    #: gateway's ``array('d')``, 8 bytes per token (a sharded run's records
    #: carry the list their result message brought).
    token_times: Optional[Sequence[float]] = None

    @property
    def latency_s(self) -> Optional[float]:
        """End-to-end latency: send to complete response (the paper's metric)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.send_time

    @property
    def time_to_first_token_s(self) -> Optional[float]:
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.send_time

    @property
    def inter_token_latencies_s(self) -> List[float]:
        """Gaps between consecutive token arrivals (ITL; streaming only)."""
        if not self.token_times or len(self.token_times) < 2:
            return []
        times = self.token_times
        return [b - a for a, b in zip(times, times[1:])]


class MetricsCollector:
    """Accumulates request records during a benchmark or service run."""

    def __init__(self):
        self.records: List[RequestRecord] = []

    def record(self, record: RequestRecord) -> None:
        self.records.append(record)
