"""Metrics registry: Counter / Gauge / Histogram + Prometheus text.

The gateway's :class:`~repro.gateway.GatewayMetrics` owns the only one (its
RED metrics, rendered as ``GET /v1/metrics`` and read back by the
dashboard).  Histograms are backed by
:class:`repro.metrics.mergeable.LogBucketHistogram` (~1% relative quantile
error).  Sharded runs reduce client request records through
:class:`~repro.metrics.MergeableSummary`, never through registries.

Exposition follows the Prometheus text format (``# HELP`` / ``# TYPE``
headers, cumulative ``_bucket{le=...}`` lines ending in ``+Inf``, ``_sum``
and ``_count``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..metrics.mergeable import DEFAULT_REL_ERR, LogBucketHistogram

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _label_key(labelnames: Tuple[str, ...], labels: dict) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}")
    return tuple(str(labels[name]) for name in labelnames)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labelnames: Tuple[str, ...], key: Tuple[str, ...],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [f'{name}="{_escape(value)}"' for name, value in zip(labelnames, key)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Metric:
    """Shared labelled-children plumbing for all three metric types."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels):
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def _sorted_children(self):
        return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Counter(_Metric):
    """Monotonically increasing counter."""

    kind = "counter"

    def _new_child(self):
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._children[()].inc(amount)

    @property
    def value(self) -> float:
        return sum(child.value for child in self._children.values())

    def expose(self) -> List[str]:
        return [f"{self.name}{_format_labels(self.labelnames, key)} "
                f"{_format_value(child.value)}"
                for key, child in self._sorted_children()]

    def child_values(self) -> Dict[Tuple[str, ...], float]:
        return {key: child.value for key, child in self._children.items()}


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Metric):
    """Point-in-time value that can go up and down."""

    kind = "gauge"

    def _new_child(self):
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._children[()].set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._children[()].inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._children[()].dec(amount)

    @property
    def value(self) -> float:
        return sum(child.value for child in self._children.values())

    def expose(self) -> List[str]:
        return [f"{self.name}{_format_labels(self.labelnames, key)} "
                f"{_format_value(child.value)}"
                for key, child in self._sorted_children()]


class _HistogramChild:
    __slots__ = ("hist", "sum")

    def __init__(self, rel_err: float):
        self.hist = LogBucketHistogram(rel_err=rel_err)
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.hist.add(value)
        self.sum += value

    @property
    def count(self) -> int:
        return self.hist.count

    def quantile(self, q: float) -> float:
        return self.hist.quantile(q)


class Histogram(_Metric):
    """Log-bucket histogram (~1% relative quantile error)."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...] = (),
                 rel_err: float = DEFAULT_REL_ERR):
        self.rel_err = rel_err
        super().__init__(name, help, labelnames)

    def _new_child(self):
        return _HistogramChild(self.rel_err)

    def observe(self, value: float) -> None:
        self._children[()].observe(value)

    def quantile(self, q: float) -> float:
        return self._children[()].quantile(q)

    @property
    def count(self) -> int:
        return sum(child.count for child in self._children.values())

    def expose(self) -> List[str]:
        lines: List[str] = []
        for key, child in self._sorted_children():
            # Cumulative buckets from the sparse log-bucket layout: the
            # upper edge of bucket i is gamma^i (values land in
            # (gamma^{i-1}, gamma^i]); zero_count falls under the smallest
            # tracked edge.
            hist = child.hist
            cumulative = hist.zero_count
            if hist.zero_count:
                lines.append(
                    f"{self.name}_bucket"
                    f"{_format_labels(self.labelnames, key, ('le', _format_value(hist.min_value)))}"
                    f" {cumulative}")
            gamma = (1.0 + hist.rel_err) / (1.0 - hist.rel_err)
            for index in sorted(hist.buckets):
                cumulative += hist.buckets[index]
                lines.append(
                    f"{self.name}_bucket"
                    f"{_format_labels(self.labelnames, key, ('le', repr(gamma ** index)))}"
                    f" {cumulative}")
            lines.append(
                f"{self.name}_bucket"
                f"{_format_labels(self.labelnames, key, ('le', '+Inf'))} {cumulative}")
            lines.append(f"{self.name}_sum{_format_labels(self.labelnames, key)} "
                         f"{_format_value(child.sum)}")
            lines.append(f"{self.name}_count{_format_labels(self.labelnames, key)} "
                         f"{child.count}")
        return lines


class MetricsRegistry:
    """Named metrics with idempotent registration."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(f"metric {name!r} already registered with a "
                                 f"different type or labels")
            return existing
        metric = self._metrics[name] = cls(name, help, tuple(labelnames), **kwargs)
        return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames=(),
                  rel_err: float = DEFAULT_REL_ERR) -> Histogram:
        return self._register(Histogram, name, help, labelnames, rel_err=rel_err)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def prometheus_text(self) -> str:
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n"
