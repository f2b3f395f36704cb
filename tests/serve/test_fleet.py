"""Fleet stress suite: concurrent parity, backpressure, drain, reload.

The headline assertion: a multi-lane fleet driven by 8 threads of mixed
six-task traffic answers every request bit-identically to the
:class:`Predictor` it was cloned from.  Plus the lifecycle contracts —
typed 429s once a lane's queue is full, typed 503s while draining, no lost
futures on drain/close, and weight reloads only under drain.
"""

import threading

import numpy as np
import pytest

from repro.obs import RunJournal, get_registry, read_journal
from repro.serve import (
    EncodeCache,
    FleetSaturated,
    FleetUnavailable,
    PredictorFleet,
    clone_predictor,
)


@pytest.fixture
def mixed_payloads(bundle):
    """JSON payloads for every task, plus single-worker expected outputs."""
    payloads = {}
    expected = {}
    for task, instances in bundle.examples.items():
        adapter = bundle.predictor.adapter_for(task)
        payloads[task] = [adapter.encode_instance(i) for i in instances]
        expected[task] = bundle.predictor.predict_payloads(task,
                                                           payloads[task])
    return payloads, expected


@pytest.fixture
def fleet(bundle):
    with PredictorFleet(bundle.predictor, workers=3, max_queue=16) as fleet:
        yield fleet


# -- concurrent parity -------------------------------------------------------

def test_fleet_matches_single_worker_under_concurrent_load(fleet,
                                                           mixed_payloads):
    payloads, expected = mixed_payloads
    tasks = sorted(payloads)
    assert len(tasks) == 6  # all six TUBE tasks take part

    requests = []
    rng = np.random.default_rng(42)
    for _ in range(3):  # repeats exercise the per-worker caches
        for task in tasks:
            for index in range(len(payloads[task])):
                requests.append((task, index))
    rng.shuffle(requests)

    mismatches = []
    errors = []

    def drive(worker_requests):
        for task, index in worker_requests:
            try:
                got = fleet.predict_payloads(task, [payloads[task][index]])
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append((task, index, repr(error)))
                continue
            if got != [expected[task][index]]:
                mismatches.append((task, index))

    threads = [threading.Thread(target=drive, args=(requests[i::8],))
               for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    assert mismatches == []


def test_batch_predictions_preserve_request_order(fleet, mixed_payloads):
    payloads, expected = mixed_payloads
    for task in sorted(payloads):
        # One batch spanning several route targets must come back in the
        # caller's order, not the per-worker completion order.
        batch = payloads[task] * 2
        assert fleet.predict_payloads(task, batch) == expected[task] * 2


def test_instance_api_matches_predictor(fleet, bundle):
    for task, instances in sorted(bundle.examples.items()):
        direct = bundle.predictor.predict_batch(task, instances)
        routed = fleet.predict_batch(task, instances)
        assert [p.to_dict() for p in routed] == [p.to_dict() for p in direct]


def test_same_table_always_lands_on_same_worker(fleet, mixed_payloads):
    payloads, _ = mixed_payloads
    for task, task_payloads in payloads.items():
        for payload in task_payloads:
            owners = {fleet.route(task, payload) for _ in range(5)}
            assert len(owners) == 1


def test_single_lane_matches_predictor_without_hashing(bundle, monkeypatch):
    import repro.serve.fleet as fleet_module

    def no_hashing(*args, **kwargs):
        raise AssertionError("a one-lane fleet hashed a table to route it")

    monkeypatch.setattr(fleet_module, "route_key_for", no_hashing)
    with PredictorFleet(bundle.predictor, workers=1) as fleet:
        for task, instances in sorted(bundle.examples.items()):
            direct = bundle.predictor.predict_batch(task, instances)
            routed = fleet.predict_batch(task, instances)
            assert ([p.to_dict() for p in routed]
                    == [p.to_dict() for p in direct])
            payload = fleet.adapter_for(task).encode_instance(instances[0])
            assert fleet.route(task, payload) == "worker0"


def test_unknown_task_raises_key_error(fleet):
    with pytest.raises(KeyError):
        fleet.predict_payloads("no_such_task", [{}])


# -- backpressure ------------------------------------------------------------

def test_saturated_queue_raises_typed_429(bundle):
    with PredictorFleet(bundle.predictor, workers=1, max_queue=2) as fleet:
        worker = fleet._workers["worker0"]
        gate = threading.Event()
        entered = threading.Event()
        original = worker.predictor.predict_batch

        def gated(task, instances):
            entered.set()
            gate.wait(timeout=10)
            return original(task, instances)

        worker.predictor.predict_batch = gated
        task = "schema_augmentation"
        adapter = bundle.predictor.adapter_for(task)
        payload = adapter.encode_instance(bundle.examples[task][0])
        expected = bundle.predictor.predict_payloads(task, [payload])

        results = []
        threads = [threading.Thread(
            target=lambda: results.append(
                fleet.predict_payloads(task, [payload])))
            for _ in range(3)]
        try:
            # First request must be IN FLIGHT (popped off the queue, blocked
            # on the gate) before the next two are queued — otherwise they
            # race the lane thread for the 2 queue slots and one of the
            # setup threads takes the 429 this test wants to provoke below.
            threads[0].start()
            assert entered.wait(timeout=10)
            for thread in threads[1:]:
                thread.start()
            # 1 in flight + 2 queued = a full lane.
            pause = threading.Event()
            for _ in range(500):
                if worker.queue_depth >= 3:
                    break
                pause.wait(0.01)
            assert worker.queue_depth >= 3

            before = get_registry().counter(
                "serve.fleet.rejected.saturated").value
            with pytest.raises(FleetSaturated) as excinfo:
                fleet.predict_payloads(task, [payload])
            assert excinfo.value.status == 429
            assert get_registry().counter(
                "serve.fleet.rejected.saturated").value == before + 1
        finally:
            gate.set()
            for thread in threads:
                thread.join()
        # Every accepted request still resolved, correctly: nothing lost.
        assert results == [expected] * 3


@pytest.mark.parametrize("workers", [1, 2])
def test_request_larger_than_the_queue_bound_is_admitted(bundle,
                                                         mixed_payloads,
                                                         workers):
    """The bound is checked once per request, not once per instance."""
    payloads, expected = mixed_payloads
    task = "schema_augmentation"
    request = payloads[task] * 3  # 12 instances against a bound of 2
    with PredictorFleet(bundle.predictor, workers=workers,
                        max_queue=2) as fleet:
        assert fleet.predict_payloads(task, request) == expected[task] * 3
        assert len(fleet.predict_batch(task, bundle.examples[task] * 3)) == 12


def _gate(lane):
    """Park ``lane`` inside its next batch until the returned event is set."""
    gate, entered = threading.Event(), threading.Event()
    original = lane.predictor.predict_batch

    def gated(task, instances):
        entered.set()
        gate.wait(timeout=10)
        return original(task, instances)

    lane.predictor.predict_batch = gated
    return gate, entered


def test_refused_request_queues_nothing_on_any_lane(bundle, mixed_payloads):
    """Admission is all or nothing across the lanes a request touches."""
    payloads, expected = mixed_payloads
    with PredictorFleet(bundle.predictor, workers=2, max_queue=1) as fleet:
        task, request = next(
            (task, task_payloads) for task, task_payloads
            in sorted(payloads.items())
            if len({fleet.route(task, p) for p in task_payloads}) == 2)
        full_name = fleet.route(task, request[0])
        full = fleet._workers[full_name]
        [other] = [fleet._workers[name] for name in fleet.worker_names
                   if name != full_name]
        gate, entered = _gate(full)
        try:
            [held] = fleet.submit(task, [bundle.examples[task][0]],
                                  [request[0]])
            assert entered.wait(timeout=10)
            [queued] = fleet.submit(task, [bundle.examples[task][0]],
                                    [request[0]])
            assert full.queue_depth == 2  # 1 in flight + 1 queued: full
            with pytest.raises(FleetSaturated):
                fleet.predict_payloads(task, request)
            assert full.queue_depth == 2 and other.queue_depth == 0
            assert other.served == 0
        finally:
            gate.set()
        assert held.result(timeout=10) and queued.result(timeout=10)
        assert fleet.predict_payloads(task, request) == expected[task]


def test_draining_fleet_raises_typed_503(fleet, mixed_payloads):
    payloads, expected = mixed_payloads
    task = sorted(payloads)[0]
    assert fleet.drain(timeout=10)
    with pytest.raises(FleetUnavailable) as excinfo:
        fleet.predict_payloads(task, [payloads[task][0]])
    assert excinfo.value.status == 503
    fleet.resume()
    assert fleet.predict_payloads(task, [payloads[task][0]]) == (
        [expected[task][0]])


# -- drain / shutdown --------------------------------------------------------

def test_drain_completes_all_accepted_futures(bundle, mixed_payloads):
    payloads, expected = mixed_payloads
    task = "schema_augmentation"
    with PredictorFleet(bundle.predictor, workers=2, max_queue=32) as fleet:
        adapter = fleet.adapter_for(task)
        futures = []
        for _ in range(4):
            for index, payload in enumerate(payloads[task]):
                instance = adapter.decode_instance(payload)
                [future] = fleet.submit(task, [instance], [payload])
                futures.append((index, future))
        assert fleet.drain(timeout=30)
        for index, future in futures:
            assert future.done()
            assert (adapter.encode_prediction(future.result())
                    == expected[task][index])


def test_close_is_idempotent_and_final(bundle):
    fleet = PredictorFleet(bundle.predictor, workers=2)
    fleet.close()
    fleet.close()
    with pytest.raises(FleetUnavailable):
        fleet.predict_payloads("schema_augmentation", [{}])


# -- reload ------------------------------------------------------------------

def test_reload_requires_drain(fleet, bundle):
    state = {name: value for name, value in
             bundle.predictor._distinct_models()[0].state_dict().items()}
    with pytest.raises(FleetUnavailable):
        fleet.reload_state(state)


def test_reload_under_drain_clears_caches_and_keeps_parity(bundle,
                                                           mixed_payloads):
    payloads, expected = mixed_payloads
    task = "schema_augmentation"
    with PredictorFleet(bundle.predictor, workers=2, max_queue=32) as fleet:
        fleet.predict_payloads(task, payloads[task])
        assert fleet.cache_stats()["entries"] > 0
        assert fleet.drain(timeout=30)
        model = bundle.predictor._distinct_models()[0]
        fleet.reload_state(model.state_dict())
        stats = fleet.cache_stats()
        assert stats["entries"] == 0  # stale activations dropped
        fleet.resume()
        # Same weights reloaded -> same answers as the single worker.
        assert fleet.predict_payloads(task, payloads[task]) == expected[task]


# -- membership --------------------------------------------------------------

def test_add_and_remove_worker_preserve_parity(bundle, mixed_payloads):
    payloads, expected = mixed_payloads
    task = "schema_augmentation"
    with PredictorFleet(bundle.predictor, workers=2) as fleet:
        assert fleet.predict_payloads(task, payloads[task]) == expected[task]
        added = fleet.add_worker()
        assert added in fleet.worker_names
        assert fleet.predict_payloads(task, payloads[task]) == expected[task]
        fleet.remove_worker(added)
        assert added not in fleet.worker_names
        assert fleet.predict_payloads(task, payloads[task]) == expected[task]


# -- metrics -----------------------------------------------------------------

def test_lanes_write_to_the_fleet_journal(bundle, mixed_payloads, tmp_path):
    payloads, _ = mixed_payloads
    task = "schema_augmentation"
    journal = RunJournal(str(tmp_path / "fleet.jsonl"))
    with PredictorFleet(bundle.predictor, workers=2,
                        journal=journal) as fleet:
        fleet.predict_payloads(task, payloads[task])
    journal.close()
    served = [event for event in read_journal(journal.path)
              if event["event"] == "serve_request"]
    assert sum(event["instances"] for event in served) == len(payloads[task])
    assert {event["task"] for event in served} == {task}


def test_fleet_journal_defaults_to_the_template_journal(bundle, tmp_path):
    journal = RunJournal(str(tmp_path / "template.jsonl"))
    template = clone_predictor(bundle.predictor, "template", journal=journal)
    with PredictorFleet(template, workers=2) as fleet:
        assert fleet.journal is journal
        assert all(lane.predictor.journal is journal
                   for lane in fleet._workers.values())
    journal.close()


def test_cache_stats_aggregate_is_traffic_weighted(fleet, mixed_payloads):
    payloads, _ = mixed_payloads
    for task, task_payloads in payloads.items():
        for _ in range(2):
            fleet.predict_payloads(task, task_payloads)
    stats = fleet.cache_stats()
    per_worker = stats["per_worker"]
    assert sorted(per_worker) == sorted(fleet.worker_names)
    total_hits = sum(s["hits"] for s in per_worker.values())
    total_misses = sum(s["misses"] for s in per_worker.values())
    assert stats["hits"] == total_hits
    assert stats["misses"] == total_misses
    # The rollup rate is summed-hits over summed-lookups, not a mean of
    # per-worker rates (the aggregation bug this API replaces).
    assert stats["hit_rate"] == pytest.approx(
        total_hits / (total_hits + total_misses))
    assert total_hits > 0  # repeats hit the partitioned caches


def test_worker_gauges_are_namespaced(fleet, mixed_payloads):
    payloads, _ = mixed_payloads
    task = "schema_augmentation"
    fleet.predict_payloads(task, payloads[task])
    fleet.predict_payloads(task, payloads[task])
    fleet.cache_stats()
    metrics = get_registry().as_dict()
    for name in fleet.worker_names:
        assert f"serve.{name}.cache.hit_rate" in metrics
    assert "serve.encode_cache.hit_rate" in metrics


def test_aggregate_static_helper():
    stats = EncodeCache.aggregate([
        {"hits": 90, "misses": 10, "entries": 5, "capacity": 8},
        {"hits": 0, "misses": 900, "entries": 8, "capacity": 8},
    ])
    # 90 hits of 1000 lookups: a naive mean of rates would claim 45%.
    assert stats["hit_rate"] == pytest.approx(0.09)
    assert stats["hits"] == 90 and stats["misses"] == 910
    assert stats["entries"] == 13 and stats["capacity"] == 16


# -- cloning -----------------------------------------------------------------

def test_clones_share_weights_but_not_caches(bundle):
    template = bundle.predictor
    first = clone_predictor(template, name="worker_a")
    second = clone_predictor(template, name="worker_b")
    assert first.cache is not second.cache
    params_t = dict(template._distinct_models()[0].named_parameters())
    params_a = dict(first._distinct_models()[0].named_parameters())
    for name, parameter in params_t.items():
        assert params_a[name] is parameter  # zero weight duplication
    assert first._distinct_models()[0] is not template._distinct_models()[0]
