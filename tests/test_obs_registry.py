"""Tests for the observability metrics registry: Counter/Gauge/Histogram
and Prometheus text exposition."""

import pytest

from repro.metrics import LogBucketHistogram
from repro.obs import Histogram, MetricsRegistry


# -- metric types ---------------------------------------------------------------
# The gateway writes counter/gauge children's ``value`` and calls a histogram
# child's ``observe``; these tests drive the registry the same way.

def test_counter_basics_and_labels():
    registry = MetricsRegistry()
    c = registry.counter("requests_total", "requests", labelnames=("model",))
    c.labels(model="a").value += 1
    c.labels(model="a").value += 2
    c.labels(model="b").value += 5
    assert c.labels(model="a") is c.labels(model="a")
    assert c.child_values() == {("a",): 3.0, ("b",): 5.0}
    with pytest.raises(ValueError):
        c.labels(wrong="a")


def test_histogram_quantile_accuracy():
    child = Histogram("latency", "latency", rel_err=0.01).labels()
    for i in range(1, 1001):
        child.observe(i / 100.0)  # 0.01 .. 10.0
    assert child.count == 1000
    assert child.sum == pytest.approx(5005.0)
    # Log-bucket quantiles are within the configured relative error.
    assert child.hist.quantile(0.5) == pytest.approx(5.0, rel=0.03)
    assert child.hist.quantile(0.99) == pytest.approx(9.9, rel=0.03)


@pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")])
def test_histograms_reject_values_that_are_not_finite_and_non_negative(value):
    sketch = LogBucketHistogram()
    with pytest.raises(ValueError, match="finite and >= 0"):
        sketch.add(value)
    assert sketch.count == 0
    child = Histogram("latency", "latency").labels()
    with pytest.raises(ValueError, match="finite and >= 0"):
        child.observe(value)
    assert (child.count, child.sum) == (0, 0.0)


def test_registry_registration_idempotent_and_checked():
    registry = MetricsRegistry()
    a = registry.counter("x_total", "x", labelnames=("m",))
    assert registry.counter("x_total", "x", labelnames=("m",)) is a
    with pytest.raises(ValueError):
        registry.gauge("x_total")
    with pytest.raises(ValueError):
        registry.counter("x_total", labelnames=("other",))


# -- Prometheus exposition ------------------------------------------------------

def parse_prometheus(text):
    """Tiny parser: returns ({name: type}, [(metric, labels, value)])."""
    types = {}
    samples = []
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        metric, _, value = line.rpartition(" ")
        labels = {}
        if "{" in metric:
            metric, _, rest = metric.partition("{")
            for pair in rest.rstrip("}").split(","):
                k, _, v = pair.partition("=")
                labels[k] = v.strip('"')
        samples.append((metric, labels, value))
    return types, samples


def test_prometheus_text_parses_and_is_cumulative():
    registry = MetricsRegistry()
    registry.counter("reqs_total", "requests", labelnames=("model",)) \
        .labels(model="m").value += 3
    registry.gauge("in_flight", "now running").labels().value = 2
    h = registry.histogram("lat_seconds", "latency", labelnames=("model",))
    for v in (0.1, 0.5, 1.0, 2.0, 0.0):
        h.labels(model="m").observe(v)

    text = registry.prometheus_text()
    assert text.endswith("\n")
    types, samples = parse_prometheus(text)
    assert types == {"reqs_total": "counter", "in_flight": "gauge",
                     "lat_seconds": "histogram"}

    buckets = [(lbl, float(val)) for name, lbl, val in samples
               if name == "lat_seconds_bucket"]
    # Bucket counts are cumulative and end at +Inf == _count.
    counts = [v for _, v in buckets]
    assert counts == sorted(counts)
    assert buckets[-1][0]["le"] == "+Inf"
    assert buckets[-1][1] == 5
    count = [v for name, _, v in samples if name == "lat_seconds_count"]
    assert count == ["5"]
    total = [v for name, lbl, v in samples
             if name == "reqs_total" and lbl == {"model": "m"}]
    assert total == ["3"]


def test_label_values_are_escaped():
    registry = MetricsRegistry()
    registry.counter("c_total", labelnames=("m",)).labels(m='a"b\\c\nd').value += 1
    text = registry.prometheus_text()
    assert 'm="a\\"b\\\\c\\nd"' in text


def test_prometheus_text_is_pinned_byte_for_byte():
    registry = MetricsRegistry()
    counter = registry.counter("reqs_total", "requests", labelnames=("model", "outcome"))
    counter.labels(model="m", outcome="success").value += 3
    counter.labels(model="m", outcome="failure")
    counter.labels(model="a", outcome="success").value += 1.5
    registry.gauge("in_flight", "now running").labels().value += 2
    histogram = registry.histogram("lat_seconds", "latency", labelnames=("model",))
    for v in (0.1, 0.5, 1.0, 2.0, 0.0):
        histogram.labels(model="m").observe(v)
    registry.histogram("empty_seconds", labelnames=("model",))
    assert registry.prometheus_text() == (
        '# TYPE empty_seconds histogram\n'
        '# HELP in_flight now running\n'
        '# TYPE in_flight gauge\n'
        'in_flight 2\n'
        '# HELP lat_seconds latency\n'
        '# TYPE lat_seconds histogram\n'
        'lat_seconds_bucket{model="m",le="1e-09"} 1\n'
        'lat_seconds_bucket{model="m",le="0.1002511570449065"} 2\n'
        'lat_seconds_bucket{model="m",le="0.5066055084882082"} 3\n'
        'lat_seconds_bucket{model="m",le="1.0"} 4\n'
        'lat_seconds_bucket{model="m",le="2.0137996984013578"} 5\n'
        'lat_seconds_bucket{model="m",le="+Inf"} 5\n'
        'lat_seconds_sum{model="m"} 3.6\n'
        'lat_seconds_count{model="m"} 5\n'
        '# HELP reqs_total requests\n'
        '# TYPE reqs_total counter\n'
        'reqs_total{model="a",outcome="success"} 1.5\n'
        'reqs_total{model="m",outcome="failure"} 0\n'
        'reqs_total{model="m",outcome="success"} 3\n')
