"""Counter / gauge / histogram math and the registry plumbing."""

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    format_metrics,
    get_registry,
)


def test_counter_accumulates():
    counter = Counter("steps")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    counter.reset()
    assert counter.value == 0.0


def test_gauge_holds_last_value():
    gauge = Gauge("lr")
    gauge.set(0.1)
    gauge.set(0.05)
    assert gauge.value == 0.05


def test_histogram_summary_math():
    histogram = Histogram("h")
    for value in range(1, 101):
        histogram.observe(float(value))
    assert histogram.count == 100
    assert histogram.total == pytest.approx(5050.0)
    assert histogram.mean == pytest.approx(50.5)
    assert histogram.minimum == 1.0
    assert histogram.maximum == 100.0
    assert histogram.percentile(50) == pytest.approx(50.5)
    assert histogram.percentile(95) == pytest.approx(95.05)
    assert histogram.percentile(0) == 1.0
    assert histogram.percentile(100) == 100.0


def test_histogram_edge_cases():
    histogram = Histogram("h")
    assert histogram.percentile(50) == 0.0
    assert histogram.mean == 0.0
    histogram.observe(7.0)
    assert histogram.percentile(50) == 7.0
    assert histogram.percentile(95) == 7.0


def test_registry_get_or_create_and_snapshot():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    registry.counter("a").inc(4)
    registry.histogram("b").observe(2.0)
    snapshot = registry.as_dict()
    assert snapshot["a"]["value"] == 4.0
    assert snapshot["b"]["count"] == 1.0
    assert "a" in format_metrics(registry)


def test_null_registry_is_default_and_inert():
    registry = get_registry()
    assert isinstance(registry, NullRegistry)
    assert not registry.enabled
    counter = registry.counter("anything")
    counter.inc(100)
    assert counter.value == 0.0
    histogram = registry.histogram("h")
    histogram.observe(5.0)
    assert histogram.count == 0


def test_enable_disable_swaps_global_registry():
    registry = enable_metrics()
    assert get_registry() is registry
    assert registry.enabled
    registry.counter("x").inc()
    assert registry.counter("x").value == 1.0
    disable_metrics()
    assert isinstance(get_registry(), NullRegistry)


def test_p99_in_summary_and_edge_cases():
    histogram = Histogram("h")
    assert histogram.summary()["p99"] == 0.0  # no samples
    histogram.observe(7.0)
    assert histogram.summary()["p99"] == 7.0  # single sample
    histogram.reset()
    for value in range(1, 101):
        histogram.observe(float(value))
    summary = histogram.summary()
    # linear interpolation over 100 samples: rank 98.01 -> 99.01
    assert summary["p99"] == pytest.approx(99.01)
    assert summary["p95"] <= summary["p99"] <= summary["max"]
    histogram.reset()
    histogram.observe(1.0)
    histogram.observe(1000.0)
    # p99 tracks the tail sample far more closely than p50
    assert histogram.percentile(99) == pytest.approx(990.01)
    assert histogram.percentile(50) == pytest.approx(500.5)


def test_format_metrics_includes_p99_column():
    registry = MetricsRegistry()
    histogram = registry.histogram("serve.latency")
    for value in (1.0, 2.0, 3.0):
        histogram.observe(value)
    registry.counter("serve.requests").inc()
    text = format_metrics(registry)
    header, latency_row, counter_row = text.splitlines()
    assert "P99" in header
    assert header.index("P99") > header.index("P95")
    p99 = histogram.percentile(99)
    assert f"{p99:12.4f}" in latency_row
    assert "serve.requests" in counter_row
