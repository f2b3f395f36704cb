"""Prometheus text exposition: type lines, summaries, name sanitization."""

from repro.obs import (
    CONTENT_TYPE,
    MetricsRegistry,
    enable_metrics,
    format_prometheus,
    sanitize_name,
)


def test_content_type_pins_format_version():
    assert CONTENT_TYPE == "text/plain; version=0.0.4"


def test_sanitize_name():
    assert sanitize_name("serve.latency.entity_linking") == (
        "serve_latency_entity_linking")
    assert sanitize_name("pretrain/step") == "pretrain_step"
    assert sanitize_name("ok_name:sub") == "ok_name:sub"
    assert sanitize_name("9lives") == "_9lives"
    assert sanitize_name("") == "_"


def test_counter_and_gauge_exposition():
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(3)
    registry.gauge("serve.queue_depth").set(1.5)
    text = format_prometheus(registry)
    assert "# HELP serve_requests serve.requests\n" in text
    assert "# TYPE serve_requests counter\n" in text
    assert "serve_requests 3\n" in text
    assert "# TYPE serve_queue_depth gauge\n" in text
    assert "serve_queue_depth 1.5\n" in text
    assert text.endswith("\n")


def test_histograms_expose_as_summaries():
    registry = MetricsRegistry()
    histogram = registry.histogram("serve.batch_size")
    for value in (1, 2, 3, 4):
        histogram.observe(value)
    text = format_prometheus(registry)
    assert "# TYPE serve_batch_size summary\n" in text
    assert 'serve_batch_size{quantile="0.5"}' in text
    assert 'serve_batch_size{quantile="0.95"}' in text
    assert 'serve_batch_size{quantile="0.99"}' in text
    assert "serve_batch_size_sum 10\n" in text
    assert "serve_batch_size_count 4\n" in text


def test_fleet_cache_metric_namespacing_and_rollup():
    """Pin the serving-fleet metric name scheme end to end.

    Per-worker caches publish ``serve.worker<i>.cache.*`` gauges; the
    fleet rollup keeps the historical ``serve.encode_cache.hit_rate``
    name.  The rollup must be traffic-weighted: summed hits over summed
    lookups, never a mean of per-worker rates.
    """
    from repro.serve import EncodeCache

    registry = MetricsRegistry()
    per_worker = {
        "worker0": {"hits": 90.0, "misses": 10.0, "entries": 5.0,
                    "capacity": 8.0, "hit_rate": 0.9},
        "worker1": {"hits": 0.0, "misses": 900.0, "entries": 8.0,
                    "capacity": 8.0, "hit_rate": 0.0},
    }
    for worker, stats in per_worker.items():
        for key, value in stats.items():
            registry.gauge(f"serve.{worker}.cache.{key}").set(value)
    rollup = EncodeCache.aggregate(per_worker.values())
    registry.gauge("serve.encode_cache.hit_rate").set(rollup["hit_rate"])

    text = format_prometheus(registry)
    assert "# TYPE serve_worker0_cache_hit_rate gauge\n" in text
    assert "serve_worker0_cache_hit_rate 0.9\n" in text
    assert "serve_worker1_cache_hit_rate 0\n" in text
    assert "serve_worker0_cache_hits 90\n" in text
    assert "serve_worker1_cache_misses 900\n" in text
    # 90 hits in 1000 lookups -> 0.09; a rate-mean would wrongly say 0.45.
    assert "serve_encode_cache_hit_rate 0.09\n" in text


def test_empty_registry_renders_empty_string():
    assert format_prometheus(MetricsRegistry()) == ""


def test_default_registry_is_the_global_one():
    registry = enable_metrics()
    registry.counter("lint.files").inc()
    text = format_prometheus()
    assert "lint_files 1\n" in text


def test_every_line_is_wellformed():
    registry = MetricsRegistry()
    registry.counter("a.b").inc()
    registry.histogram("c/d").observe(2.0)
    for line in format_prometheus(registry).strip().splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
        else:
            name, value = line.rsplit(" ", 1)
            float(value)  # every sample value parses as a number
            assert " " not in name.split("{")[0]
