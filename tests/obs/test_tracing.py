"""Span nesting, per-label aggregation, the tree report, and the span as
the one measured interval."""

from repro.obs import (
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    start_trace,
    trace,
)


def test_spans_nest_and_aggregate_by_path():
    tracer = Tracer()
    with tracer.span("train"):
        assert tracer.depth == 1
        with tracer.span("forward"):
            assert tracer.depth == 2
        with tracer.span("forward"):
            pass
        with tracer.span("backward"):
            pass
    assert tracer.depth == 0
    paths = tracer.paths()
    assert paths[("train",)].count == 1
    assert paths[("train", "forward")].count == 2
    assert paths[("train", "backward")].count == 1
    # Children's time is contained in the parent's.
    child_total = (paths[("train", "forward")].total_seconds
                   + paths[("train", "backward")].total_seconds)
    assert paths[("train",)].total_seconds >= child_total


def test_same_label_under_different_parents_stays_distinct():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("shared"):
            pass
    with tracer.span("b"):
        with tracer.span("shared"):
            pass
        with tracer.span("shared"):
            pass
    assert tracer.paths()[("a", "shared")].count == 1
    assert tracer.paths()[("b", "shared")].count == 2
    # ...but totals() merges them per label.
    assert tracer.totals()["shared"].count == 3
    assert tracer.stats("shared").count == 3


def test_report_renders_indented_tree():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    report = tracer.report()
    lines = report.splitlines()
    assert lines[0].startswith("Span")
    assert any(line.startswith("outer") for line in lines)
    assert any(line.startswith("  inner") for line in lines)


def test_trace_is_noop_when_disabled():
    disable_tracing()
    assert get_tracer() is None
    with trace("never/recorded"):
        pass  # must not raise, must not record anywhere


def test_trace_records_on_global_tracer():
    tracer = enable_tracing()
    with trace("pretrain/step"):
        with trace("pretrain/step/forward"):
            pass
    assert tracer.totals()["pretrain/step"].count == 1
    assert tracer.totals()["pretrain/step/forward"].count == 1
    tracer.reset()
    assert tracer.paths() == {}


def test_span_seconds_is_the_one_recorded_interval():
    tracer = enable_tracing()
    with start_trace("serve/demo") as context:
        with trace("a/b") as span:
            sum(range(1000))
    assert span.seconds > 0.0
    # The aggregate, the trace record and span.seconds are one interval,
    # not separate clock reads.
    assert tracer.paths()[("a/b",)].total_seconds == span.seconds
    (record,) = context.spans
    assert record.name == "a/b"
    assert record.end - record.start == span.seconds

    disable_tracing()
    with trace("a/b") as untraced:
        sum(range(1000))
    assert untraced.seconds > 0.0
    assert tracer.paths()[("a/b",)].count == 1
