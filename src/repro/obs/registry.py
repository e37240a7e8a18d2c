"""Metrics registry: Counter / Gauge / Histogram + Prometheus text.

The gateway's :class:`~repro.gateway.GatewayMetrics` owns one (its RED
metrics, rendered as ``GET /v1/metrics`` and read back by the dashboard);
the partitioned runner's shards own one each.  Histograms are backed by
:class:`repro.metrics.mergeable.LogBucketHistogram` so shards merge
*exactly*: the merged registry of N shards is bit-identical to the registry
of a single run over the union of samples (pinned by tests).

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

    def merge(self, other: "Counter") -> None:
        for key, child in other._children.items():
            mine = self._children.get(key)
            if mine is None:
                mine = self._children[key] = self._new_child()
            mine.value += child.value

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

    def merge(self, other: "Gauge") -> None:
        # Gauges are point-in-time; summing shards is the only merge that
        # makes sense for in-flight style gauges, and it is what sweeps need.
        for key, child in other._children.items():
            mine = self._children.get(key)
            if mine is None:
                mine = self._children[key] = self._new_child()
            mine.value += child.value


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
    """Log-bucket histogram (mergeable, ~1% relative quantile error)."""

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

    def merge(self, other: "Histogram") -> None:
        for key, child in other._children.items():
            mine = self._children.get(key)
            if mine is None:
                mine = self._children[key] = self._new_child()
            mine.hist = mine.hist.merge(child.hist)
            mine.sum += child.sum


class MetricsRegistry:
    """Named metrics with idempotent registration and exact shard merge."""

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

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (exact for counters/histograms)."""
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                self._metrics[name] = metric
                continue
            if type(mine) is not type(metric) or mine.labelnames != metric.labelnames:
                raise ValueError(f"cannot merge metric {name!r}: layout differs")
            mine.merge(metric)

    # -- (de)serialization for sweep shards --------------------------------
    def to_dict(self) -> dict:
        out: Dict[str, dict] = {}
        for name, metric in self._metrics.items():
            entry = {"kind": metric.kind, "help": metric.help,
                     "labelnames": list(metric.labelnames)}
            if isinstance(metric, Histogram):
                entry["rel_err"] = metric.rel_err
                entry["children"] = {
                    "|".join(key): {"hist": child.hist.to_dict(), "sum": child.sum}
                    for key, child in metric._children.items()}
            else:
                entry["children"] = {
                    "|".join(key): child.value
                    for key, child in metric._children.items()}
            out[name] = entry
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        registry = cls()
        kinds = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        for name, entry in data.items():
            labelnames = tuple(entry["labelnames"])
            if entry["kind"] == "histogram":
                metric = registry.histogram(name, entry["help"], labelnames,
                                            rel_err=entry["rel_err"])
                for joined, payload in entry["children"].items():
                    key = tuple(joined.split("|")) if joined else ()
                    child = metric._children.get(key)
                    if child is None:
                        child = metric._children[key] = metric._new_child()
                    child.hist = LogBucketHistogram.from_dict(payload["hist"])
                    child.sum = payload["sum"]
            else:
                metric = registry._register(kinds[entry["kind"]], name,
                                            entry["help"], labelnames)
                for joined, value in entry["children"].items():
                    key = tuple(joined.split("|")) if joined else ()
                    child = metric._children.get(key)
                    if child is None:
                        child = metric._children[key] = metric._new_child()
                    child.value = value
        return registry
