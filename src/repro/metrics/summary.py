"""Benchmark summaries: the four metrics the paper reports (§5.1).

* Request throughput (req/s)
* Output token throughput (tok/s)
* Median end-to-end latency (s)
* Benchmark duration (s)

plus additional percentiles useful for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .collector import RequestRecord

__all__ = ["percentile", "BenchmarkSummary", "summarize"]


def percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile`` (linear interpolation) that tolerates empty input
    (returns 0.0)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class BenchmarkSummary:
    """Summary of one benchmark run, in the paper's vocabulary."""

    label: str
    num_requests: int
    num_successful: int
    duration_s: float
    request_throughput: float
    output_token_throughput: float
    median_latency_s: float
    mean_latency_s: float
    p99_latency_s: float
    median_ttft_s: Optional[float] = None
    #: Median inter-token latency (streaming runs only).
    median_itl_s: Optional[float] = None
    total_output_tokens: int = 0
    total_prompt_tokens: int = 0
    extras: Dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "num_requests": self.num_requests,
            "num_successful": self.num_successful,
            "duration_s": round(self.duration_s, 2),
            "request_throughput_req_s": round(self.request_throughput, 2),
            "output_token_throughput_tok_s": round(self.output_token_throughput, 1),
            "median_latency_s": round(self.median_latency_s, 2),
            "mean_latency_s": round(self.mean_latency_s, 2),
            "p99_latency_s": round(self.p99_latency_s, 2),
            "median_ttft_s": None if self.median_ttft_s is None else round(self.median_ttft_s, 2),
            "median_itl_s": None if self.median_itl_s is None else round(self.median_itl_s, 4),
            "total_output_tokens": self.total_output_tokens,
            "total_prompt_tokens": self.total_prompt_tokens,
            **self.extras,
        }

    def row(self) -> str:
        """One printable table row (used by the benchmark harnesses)."""
        return (
            f"{self.label:<28s} {self.request_throughput:>7.2f} req/s "
            f"{self.output_token_throughput:>8.1f} tok/s "
            f"median={self.median_latency_s:>7.2f}s duration={self.duration_s:>8.1f}s"
        )


def summarize(
    records: Sequence[RequestRecord],
    label: str = "",
    duration_s: Optional[float] = None,
) -> BenchmarkSummary:
    """Summarise a set of request records.

    ``duration_s`` defaults to the span from the first send to the last
    completion, which matches how the vLLM benchmark-serving script reports
    benchmark duration.
    """
    successful = [r for r in records if r.success and r.completion_time is not None]
    latencies = [r.latency_s for r in successful]
    ttfts = [r.time_to_first_token_s for r in successful if r.time_to_first_token_s is not None]
    output_tokens = sum(r.output_tokens for r in successful)
    prompt_tokens = sum(r.prompt_tokens for r in successful)

    if duration_s is None:
        if successful:
            start = min(r.send_time for r in records) if records else 0.0
            end = max(r.completion_time for r in successful)
            duration_s = max(1e-9, end - start)
        else:
            duration_s = 0.0

    request_throughput = len(successful) / duration_s if duration_s > 0 else 0.0
    token_throughput = output_tokens / duration_s if duration_s > 0 else 0.0

    return BenchmarkSummary(
        label=label,
        num_requests=len(records),
        num_successful=len(successful),
        duration_s=duration_s,
        request_throughput=request_throughput,
        output_token_throughput=token_throughput,
        median_latency_s=percentile(latencies, 50),
        mean_latency_s=sum(latencies) / len(latencies) if latencies else 0.0,
        p99_latency_s=percentile(latencies, 99),
        median_ttft_s=percentile(ttfts, 50) if ttfts else None,
        median_itl_s=_median_itl(successful),
        total_output_tokens=output_tokens,
        total_prompt_tokens=prompt_tokens,
    )


def _median_itl(records: Sequence[RequestRecord]) -> Optional[float]:
    """Median gap between consecutive token arrivals over ``records``, or
    None when no record has two tokens.

    Every record's gaps go into one preallocated float64 buffer, which the
    percentile then partitions in place: the same values, and so the same
    median, as :attr:`RequestRecord.inter_token_latencies_s` pooled.
    """
    timelines = [r.token_times for r in records
                 if r.token_times is not None and len(r.token_times) >= 2]
    if not timelines:
        return None
    gaps = np.empty(sum(len(times) - 1 for times in timelines))
    at = 0
    for times in timelines:
        times = np.asarray(times, dtype=float)
        np.subtract(times[1:], times[:-1], out=gaps[at:at + len(times) - 1])
        at += len(times) - 1
    return float(np.percentile(gaps, 50, overwrite_input=True))
