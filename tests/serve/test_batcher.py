"""The serving lane against a stub predictor: coalescing by size, per-task
grouping, error propagation, backpressure, drain and a graceful close.
The stub records every batch it receives, so the tests assert on actual
flush boundaries rather than timing.  A lane flushes as soon as it is
free, so the batching tests first hold it busy on one item, then submit
the burst that must coalesce behind it.
"""

import threading

import pytest

from repro.serve import FleetSaturated, FleetUnavailable, MicroBatcher


class StubPredictor:
    """Records batches; optionally blocks until released or raises."""

    def __init__(self, error=None):
        self.batches = []
        self.error = error
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def predict_batch(self, task, instances):
        self.entered.set()
        self.release.wait(timeout=10)
        if self.error is not None:
            raise self.error
        self.batches.append((task, list(instances)))
        return [f"{task}:{instance}" for instance in instances]


def _hold_busy(stub, lane, task="t", instance="first"):
    """Park the lane inside a batch of one, so later submissions queue."""
    stub.release.clear()
    future = lane.submit(task, instance)
    assert stub.entered.wait(timeout=10)
    return future


def test_flush_on_batch_size():
    stub = StubPredictor()
    with MicroBatcher(stub, max_batch_size=3) as lane:
        first = _hold_busy(stub, lane)
        futures = [lane.submit("t", i) for i in range(3)]
        stub.release.set()
        results = [future.result(timeout=10) for future in futures]
        assert first.result(timeout=10) == "t:first"
    assert results == ["t:0", "t:1", "t:2"]
    # the burst coalesced into one batch behind the held item
    assert stub.batches == [("t", ["first"]), ("t", [0, 1, 2])]


def test_idle_lane_answers_a_lone_request_at_once():
    stub = StubPredictor()
    with MicroBatcher(stub, max_batch_size=100) as lane:
        assert lane.submit("t", 7).result(timeout=10) == "t:7"
    assert stub.batches == [("t", [7])]


def test_batches_group_by_task_preserving_order():
    stub = StubPredictor()
    with MicroBatcher(stub, max_batch_size=4) as lane:
        _hold_busy(stub, lane, task="a", instance="first")
        futures = [lane.submit(task, i) for i, task in
                   enumerate(["a", "b", "a", "b"])]
        stub.release.set()
        results = [future.result(timeout=10) for future in futures]
    assert results == ["a:0", "b:1", "a:2", "b:3"]
    # Every flushed batch is single-task, and per-task order is preserved.
    assert stub.batches == [("a", ["first"]), ("a", [0, 2]), ("b", [1, 3])]


def test_oversized_burst_splits_into_max_size_batches():
    stub = StubPredictor()
    with MicroBatcher(stub, max_batch_size=2) as lane:
        _hold_busy(stub, lane)
        futures = [lane.submit("t", i) for i in range(5)]
        stub.release.set()
        assert [f.result(timeout=10) for f in futures] == \
            [f"t:{i}" for i in range(5)]
    assert stub.batches[1:] == [("t", [0, 1]), ("t", [2, 3]), ("t", [4])]


def test_prediction_errors_propagate_to_every_future():
    stub = StubPredictor(error=RuntimeError("boom"))
    with MicroBatcher(stub, max_batch_size=2) as lane:
        _hold_busy(stub, lane)
        futures = [lane.submit("t", i) for i in range(2)]
        stub.release.set()
        for future in futures:
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=10)


def test_close_flushes_pending_and_rejects_new_work():
    stub = StubPredictor()
    lane = MicroBatcher(stub, max_batch_size=100)
    _hold_busy(stub, lane)
    future = lane.submit("t", 1)
    threading.Timer(0.05, stub.release.set).start()
    lane.close()  # waits out the held batch and the queued one
    assert future.done() and future.result() == "t:1"
    with pytest.raises(FleetUnavailable):
        lane.submit("t", 2)
    lane.close()  # idempotent


def test_concurrent_submitters_all_resolve():
    stub = StubPredictor()
    results = {}

    def worker(i):
        results[i] = lane.predict("t", i)

    with MicroBatcher(stub, max_batch_size=4) as lane:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert results == {i: f"t:{i}" for i in range(8)}
    assert sum(len(instances) for _, instances in stub.batches) == 8


def test_full_queue_raises_typed_429_and_keeps_accepted_work():
    stub = StubPredictor()
    with MicroBatcher(stub, max_queue=2, name="lane7") as lane:
        first = _hold_busy(stub, lane)
        queued = [lane.submit("t", i) for i in range(2)]
        assert lane.queue_depth == 3  # 1 in flight + 2 queued
        with pytest.raises(FleetSaturated) as excinfo:
            lane.submit("t", 2)
        assert excinfo.value.status == 429
        stub.release.set()
        assert [f.result(timeout=10) for f in [first] + queued] == \
            ["t:first", "t:0", "t:1"]
    assert lane.served == 3


def test_admit_checks_the_bound_once_per_request():
    stub = StubPredictor()
    with MicroBatcher(stub, max_queue=2) as lane:
        first = _hold_busy(stub, lane)
        with lane.admit():  # one request of 5, past the bound of 2
            futures = [lane.submit("t", i) for i in range(5)]
        with pytest.raises(FleetSaturated):
            with lane.admit():
                lane.submit("t", "refused")
        assert lane.queue_depth == 6
        stub.release.set()
        assert [f.result(timeout=10) for f in [first] + futures] == \
            ["t:first"] + [f"t:{i}" for i in range(5)]
    # the admitted request queued contiguously and flushed as one batch
    assert stub.batches == [("t", ["first"]), ("t", [0, 1, 2, 3, 4])]


def test_a_request_is_never_split_or_overtaken():
    stub = StubPredictor()
    with MicroBatcher(stub, max_batch_size=3) as lane:
        _hold_busy(stub, lane)
        lane.submit("t", 0)
        with lane.admit():  # 4 instances: larger than max_batch_size
            request = [lane.submit("t", i) for i in range(1, 5)]
        lane.submit("t", 5)
        stub.release.set()
        assert [f.result(timeout=10) for f in request] == \
            [f"t:{i}" for i in range(1, 5)]
    # the request did not fit behind 0, so 5 waited behind it
    assert stub.batches[1:] == [("t", [0]), ("t", [1, 2, 3, 4]), ("t", [5])]


def test_drain_parks_intake_and_resume_reopens_it():
    stub = StubPredictor()
    with MicroBatcher(stub) as lane:
        first = _hold_busy(stub, lane)
        queued = lane.submit("t", 1)
        assert not lane.drain(timeout=0.05)  # still busy: not idle yet
        with pytest.raises(FleetUnavailable) as excinfo:
            lane.submit("t", 2)
        assert excinfo.value.status == 503
        stub.release.set()
        assert lane.drain(timeout=10)
        assert first.done() and queued.done()  # nothing accepted was lost
        lane.resume()
        assert lane.predict("t", 3) == "t:3"


def test_rejects_bad_bounds():
    with pytest.raises(ValueError):
        MicroBatcher(StubPredictor(), max_batch_size=0)
    with pytest.raises(ValueError):
        MicroBatcher(StubPredictor(), max_queue=0)
