"""Mergeable metrics for sharded simulation runs.

A sweep shards its work across worker processes; every shard returns a
:class:`MergeableSummary` and the parent reduces them to one summary.  The
reduction must be *associative and commutative up to a canonical order* so
merged results are bit-identical no matter how many workers ran the sweep
or in which order shards completed:

* counters (requests, successes, token totals) are integer sums;
* latency/TTFT/ITL distributions are :class:`LogBucketHistogram`\\ s —
  fixed logarithmic buckets whose counts add, so any merge order yields the
  same bucket table and therefore the same quantile estimates;
* float accumulators (latency sums, durations) are exact per shard; the
  sweep runner merges shards in cell order (not completion order), which
  pins the float-addition order and keeps merged sums bit-identical across
  worker counts.

Quantile guarantee: for any value ``v`` with ``v > min_value``, the bucket
midpoint the histogram reports is within ``rel_err`` *relative* error of
``v``.  Consequently ``quantile(q)`` is within ``rel_err`` of the exact
inverted-CDF quantile of the pooled raw samples (the q-th order statistic),
independent of how the samples were sharded.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from .collector import RequestRecord
from .summary import BenchmarkSummary

__all__ = ["LogBucketHistogram", "MergeableSummary", "DEFAULT_REL_ERR"]

#: Default relative-error bound of the log-bucket histograms (1%).
DEFAULT_REL_ERR = 0.01


class LogBucketHistogram:
    """Fixed-log-bucket histogram with a guaranteed relative-error bound.

    Values are mapped to buckets of geometrically increasing width
    (DDSketch-style): with ``gamma = (1 + rel_err) / (1 - rel_err)``, value
    ``v`` lands in bucket ``ceil(log_gamma(v))`` and is reported back as the
    bucket midpoint ``2 * gamma^i / (gamma + 1)``, which is within
    ``rel_err`` relative error of every value in the bucket.  Values at or
    below ``min_value`` (including zero) share an exact zero bucket.

    The bucket table is a plain ``{index: count}`` dict, so merging two
    histograms is a commutative, associative count addition — shard results
    reduce to the same table regardless of merge order.
    """

    __slots__ = ("rel_err", "min_value", "zero_count", "buckets", "_gamma", "_log_gamma")

    def __init__(self, rel_err: float = DEFAULT_REL_ERR, min_value: float = 1e-9,
                 buckets: Optional[Dict[int, int]] = None, zero_count: int = 0):
        if not 0.0 < rel_err < 1.0:
            raise ValueError("rel_err must be in (0, 1)")
        if min_value <= 0:
            raise ValueError("min_value must be > 0")
        self.rel_err = rel_err
        self.min_value = min_value
        self.zero_count = zero_count
        self.buckets: Dict[int, int] = dict(buckets) if buckets else {}
        self._gamma = (1.0 + rel_err) / (1.0 - rel_err)
        self._log_gamma = math.log(self._gamma)

    # -- accumulation ------------------------------------------------------
    def add(self, value: float) -> None:
        if not 0.0 <= value < math.inf:  # NaN fails both comparisons
            raise ValueError(f"histogram values must be finite and >= 0, got {value!r}")
        if value <= self.min_value:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    # -- reduction ---------------------------------------------------------
    def merge(self, other: "LogBucketHistogram") -> "LogBucketHistogram":
        """Return a new histogram holding both operands' counts."""
        if (other.rel_err, other.min_value) != (self.rel_err, self.min_value):
            raise ValueError(
                f"cannot merge histograms with different bucket layouts: "
                f"(rel_err={self.rel_err}, min_value={self.min_value}) vs "
                f"(rel_err={other.rel_err}, min_value={other.min_value})"
            )
        merged = LogBucketHistogram(self.rel_err, self.min_value,
                                    buckets=self.buckets,
                                    zero_count=self.zero_count + other.zero_count)
        for index, count in other.buckets.items():
            merged.buckets[index] = merged.buckets.get(index, 0) + count
        return merged

    # -- queries -----------------------------------------------------------
    @property
    def count(self) -> int:
        return self.zero_count + sum(self.buckets.values())

    def bucket_value(self, index: int) -> float:
        """Midpoint estimate for bucket ``index`` (relative error <= rel_err)."""
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Inverted-CDF quantile estimate (0 <= q <= 1); 0.0 when empty.

        Selects the bucket holding the ``ceil(q * count)``-th smallest value
        (the exact inverted-CDF order statistic) and returns its midpoint,
        which is within ``rel_err`` relative error of that sample.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        total = self.count
        if total == 0:
            return 0.0
        target = max(1, math.ceil(q * total))
        if target <= self.zero_count:
            return 0.0
        cumulative = self.zero_count
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                return self.bucket_value(index)
        return self.bucket_value(max(self.buckets))

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "rel_err": self.rel_err,
            "min_value": self.min_value,
            "zero_count": self.zero_count,
            "buckets": {str(i): c for i, c in sorted(self.buckets.items())},
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogBucketHistogram):
            return NotImplemented
        return (self.rel_err, self.min_value, self.zero_count, self.buckets) == \
               (other.rel_err, other.min_value, other.zero_count, other.buckets)

    def __repr__(self) -> str:
        return (f"LogBucketHistogram(rel_err={self.rel_err}, count={self.count}, "
                f"buckets={len(self.buckets)})")

    # Pickle support without __dict__ (slots + derived constants).
    def __getstate__(self):
        return (self.rel_err, self.min_value, self.zero_count, self.buckets)

    def __setstate__(self, state):
        rel_err, min_value, zero_count, buckets = state
        self.__init__(rel_err, min_value, buckets=buckets, zero_count=zero_count)


@dataclass
class MergeableSummary:
    """Shard-reducible benchmark metrics.

    One shard's counters plus log-bucket latency/TTFT/ITL histograms.
    ``merge`` adds counters and bucket tables and keeps the *maximum*
    duration — merged shards are modelled as having run concurrently, so
    merged throughput is ``totals / max(duration)``.
    """

    label: str = ""
    num_requests: int = 0
    num_successful: int = 0
    total_output_tokens: int = 0
    total_prompt_tokens: int = 0
    #: Span of the longest merged shard (shards run concurrently).
    duration_s: float = 0.0
    #: Exact sums supporting exact means alongside approximate quantiles.
    latency_sum_s: float = 0.0
    latency: LogBucketHistogram = field(default_factory=LogBucketHistogram)
    ttft: LogBucketHistogram = field(default_factory=LogBucketHistogram)
    itl: LogBucketHistogram = field(default_factory=LogBucketHistogram)
    #: Extra additive counters (int/float) carried through merges.
    counters: Dict[str, float] = field(default_factory=dict)
    #: How many shard summaries were reduced into this one.
    num_shards: int = 1

    # -- construction ------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[RequestRecord], label: str = "",
                     duration_s: Optional[float] = None,
                     rel_err: float = DEFAULT_REL_ERR) -> "MergeableSummary":
        """Build one shard's summary from request records (cf. ``summarize``)."""
        successful = [r for r in records if r.success and r.completion_time is not None]
        if duration_s is None:
            if successful:
                start = min(r.send_time for r in records)
                end = max(r.completion_time for r in successful)
                duration_s = max(1e-9, end - start)
            else:
                duration_s = 0.0
        summary = cls(
            label=label,
            num_requests=len(records),
            num_successful=len(successful),
            total_output_tokens=sum(r.output_tokens for r in successful),
            total_prompt_tokens=sum(r.prompt_tokens for r in successful),
            duration_s=duration_s,
            latency=LogBucketHistogram(rel_err),
            ttft=LogBucketHistogram(rel_err),
            itl=LogBucketHistogram(rel_err),
        )
        for record in successful:
            summary.latency_sum_s += record.latency_s
            summary.latency.add(record.latency_s)
            if record.time_to_first_token_s is not None:
                summary.ttft.add(record.time_to_first_token_s)
            for gap in record.inter_token_latencies_s:
                summary.itl.add(gap)
        return summary

    # -- reduction ---------------------------------------------------------
    def merge(self, other: "MergeableSummary") -> "MergeableSummary":
        """Reduce two shard summaries into one (associative)."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        return MergeableSummary(
            label=self.label or other.label,
            num_requests=self.num_requests + other.num_requests,
            num_successful=self.num_successful + other.num_successful,
            total_output_tokens=self.total_output_tokens + other.total_output_tokens,
            total_prompt_tokens=self.total_prompt_tokens + other.total_prompt_tokens,
            duration_s=max(self.duration_s, other.duration_s),
            latency_sum_s=self.latency_sum_s + other.latency_sum_s,
            latency=self.latency.merge(other.latency),
            ttft=self.ttft.merge(other.ttft),
            itl=self.itl.merge(other.itl),
            counters=counters,
            num_shards=self.num_shards + other.num_shards,
        )

    @staticmethod
    def merge_all(summaries: Sequence["MergeableSummary"],
                  label: Optional[str] = None) -> "MergeableSummary":
        """Left-fold ``summaries`` in the given (canonical) order into a new
        summary; the inputs are never modified."""
        if not summaries:
            return MergeableSummary(label=label or "")
        merged = copy.deepcopy(summaries[0])
        for summary in summaries[1:]:
            merged = merged.merge(summary)
        if label is not None:
            merged.label = label
        return merged

    # -- queries -----------------------------------------------------------
    @property
    def request_throughput(self) -> float:
        return self.num_successful / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def output_token_throughput(self) -> float:
        return self.total_output_tokens / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.latency_sum_s / self.num_successful if self.num_successful else 0.0

    def to_benchmark_summary(self) -> BenchmarkSummary:
        """Project to the paper-vocabulary summary (quantiles are histogram
        estimates within the histogram's ``rel_err``; the mean is exact)."""
        return BenchmarkSummary(
            label=self.label,
            num_requests=self.num_requests,
            num_successful=self.num_successful,
            duration_s=self.duration_s,
            request_throughput=self.request_throughput,
            output_token_throughput=self.output_token_throughput,
            median_latency_s=self.latency.quantile(0.5),
            mean_latency_s=self.mean_latency_s,
            p99_latency_s=self.latency.quantile(0.99),
            median_ttft_s=self.ttft.quantile(0.5) if self.ttft.count else None,
            median_itl_s=self.itl.quantile(0.5) if self.itl.count else None,
            total_output_tokens=self.total_output_tokens,
            total_prompt_tokens=self.total_prompt_tokens,
            extras={"merged_shards": self.num_shards,
                    "quantile_rel_err": self.latency.rel_err,
                    **{k: round(v, 6) if isinstance(v, float) else v
                       for k, v in sorted(self.counters.items())}},
        )

    # -- serialisation / identity -----------------------------------------
    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "num_requests": self.num_requests,
            "num_successful": self.num_successful,
            "total_output_tokens": self.total_output_tokens,
            "total_prompt_tokens": self.total_prompt_tokens,
            "duration_s": self.duration_s,
            "latency_sum_s": self.latency_sum_s,
            "latency": self.latency.to_dict(),
            "ttft": self.ttft.to_dict(),
            "itl": self.itl.to_dict(),
            "counters": dict(sorted(self.counters.items())),
            "num_shards": self.num_shards,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the full-precision canonical *measurement* state.

        The label is excluded — fingerprints compare what was measured, not
        what it was called, so e.g. a macro-stepped and a per-token cell of
        the same scenario fingerprint equal iff their simulated results are
        bit-identical.  Floats serialise via their shortest round-trip form,
        so two summaries fingerprint equal iff bit-identical — the check the
        sweep benchmarks run across worker counts.
        """
        state = self.to_dict()
        del state["label"]
        canonical = json.dumps(state, sort_keys=True, default=repr,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def row(self) -> str:
        return self.to_benchmark_summary().row()
