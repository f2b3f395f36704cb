"""Tests of the benchmark itself.

Run from the repo root: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import time

import pytest

import layers
import loadgen
from conftest import ROOT
from spans import Summary, Tracer, breakdown, reconcile

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert all(set(w) == {"name", "why"} for w in BENCHMARK["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in BENCHMARK["per_layer"])


def test_metric_names_are_well_formed_and_unique():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert layers.NAME.match(name), name


def test_per_layer_list_matches_the_layer_table():
    listed = [(m["name"], m["unit"], m["better"])
              for m in BENCHMARK["per_layer"]]
    table = [(name, unit, better) for name, unit, better, *_ in layers.LAYERS]
    assert listed == table


def test_every_layer_names_its_boundary_and_what_it_should_move():
    for name, unit, better, boundary, moves in layers.LAYERS:
        assert better in ("lower", "higher"), name
        assert boundary and moves, name


def test_per_layer_metrics_fill_unreached_rows_and_reject_unknown_ones():
    metrics = layers.per_layer_metrics({"nn.backward_ms": 2.5})
    assert set(metrics) == set(layers.UNITS)
    assert metrics["nn.backward_ms"] == {"value": 2.5, "unit": "ms"}
    assert metrics["serve.batch.size"]["value"] == 0.0
    with pytest.raises(ValueError):
        layers.per_layer_metrics({"no.such.row": 1.0})


# -- spans and reconciliation --------------------------------------------

def _traced_step():
    """A fake step with two child layers, one of them nested twice."""
    tracer = Tracer()

    def inner():
        time.sleep(0.002)

    def outer():
        inner()
        time.sleep(0.001)

    def step():
        outer()
        inner()
        time.sleep(0.001)

    inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(outer, "outer")
    step = tracer.wrap(step, "step")
    step()
    step()
    return Summary(tracer.threads())


def test_self_time_subtracts_child_spans():
    summary = _traced_step()
    assert summary.calls == {"step": 2, "outer": 2, "inner": 4}
    assert summary.self_time["inner"] == summary.total["inner"]
    assert 0 < summary.self_time["outer"] < summary.total["outer"]
    assert sum(summary.self_time.values()) == pytest.approx(
        summary.total["step"])


def test_rows_reconcile_to_wall_time():
    rows = {"outer_ms": ("outer",), "inner_ms": ("inner",)}
    rows_ms, unattributed, wall = breakdown(_traced_step(), "step", rows)
    assert sum(rows_ms.values()) + unattributed == pytest.approx(wall)
    assert 0 < unattributed < wall


def test_reconciliation_fails_when_a_row_is_dropped():
    summary = _traced_step()
    rows = {"outer_ms": ("outer",), "inner_ms": ("inner",)}
    rows_ms, unattributed, wall = breakdown(summary, "step", rows)
    del rows_ms["inner_ms"]
    with pytest.raises(ValueError):
        reconcile(rows_ms, unattributed, wall)
    with pytest.raises(ValueError):
        breakdown(summary, "step", {"outer_ms": ("outer",)})


def test_restore_puts_patched_attributes_back():
    class Target:
        def work(self):
            return 7

    original = Target.__dict__["work"]
    tracer = Tracer()
    tracer.patch(Target, "work", "target.work")
    assert Target().work() == 7
    tracer.restore()
    assert Target.__dict__["work"] is original
    assert Summary(tracer.threads()).calls == {"target.work": 1}


# -- the open-loop scheduler ---------------------------------------------

def test_open_loop_charges_a_stall_to_later_requests():
    """One slow answer delays the requests queued behind it, and their
    latency counts from when they were due, not from when they were sent."""
    interval, stall, stalled = 0.01, 0.15, 3

    def make_sender():
        def send(index):
            if index == stalled:
                time.sleep(stall)
            return index
        return send

    offsets = [interval * i for i in range(12)]
    outcomes = loadgen.run_open_loop(offsets, make_sender, concurrency=1)
    assert [o.result for o in outcomes] == list(range(12))
    after = outcomes[stalled + 1]
    # Due 10 ms after the stalled request, sent only once it returned.
    assert after.lag >= stall - interval - 0.005
    assert after.latency >= after.lag
    assert all(o.lag < 0.03 for o in outcomes[:stalled + 1])
    # The generator catches up: the schedule's tail is on time again.
    assert outcomes[-1].lag < after.lag


def test_poisson_schedule_is_seeded():
    import numpy as np

    first = loadgen.poisson_offsets(50.0, 2.0, np.random.default_rng(3))
    again = loadgen.poisson_offsets(50.0, 2.0, np.random.default_rng(3))
    assert (first == again).all()
    assert first.max() < 2.0 and np.all(np.diff(first) > 0)
    assert 60 < len(first) < 140
