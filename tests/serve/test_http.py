"""HTTP round-trips through the in-process Client: every task answers over
a real loopback socket, error paths return typed statuses, /metrics
reflects traffic, and concurrent clients get deterministic answers — for
a one-lane fleet (``client``) and a two-lane fleet (``fleet_client``).
"""

import http.client
import statistics
import threading

import pytest

from repro.obs.clock import perf_counter
from repro.serve import Client, PredictorFleet

TASKS = ("entity_linking", "column_type", "relation_extraction",
         "row_population", "cell_filling", "schema_augmentation")


@pytest.fixture(scope="module")
def client(predictor):
    with Client(PredictorFleet(predictor, workers=1,
                               max_batch_size=4)) as active:
        yield active


@pytest.fixture(scope="module")
def fleet_client(bundle):
    fleet = PredictorFleet(bundle.predictor, workers=2, max_queue=16)
    with Client(fleet) as active:
        yield active


def test_healthz_reports_all_tasks(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert sorted(health["tasks"]) == sorted(TASKS)


@pytest.mark.parametrize("task", TASKS)
def test_round_trip_matches_in_process_prediction(bundle, client, task):
    adapter = bundle.predictor.adapter_for(task)
    instance = bundle.examples[task][0]
    expected = adapter.predict_one(instance)
    answer = client.predict(task, adapter.encode_instance(instance))
    assert answer == {"task": task, "output": expected.output}


def test_batch_request_round_trips(bundle, client):
    adapter = bundle.predictor.adapter_for("column_type")
    instances = bundle.examples["column_type"][:3]
    payloads = [adapter.encode_instance(instance) for instance in instances]
    answers = client.predict_batch("column_type", payloads)
    expected = adapter.predict_batch(instances)
    assert [a["output"] for a in answers] == [p.output for p in expected]


def test_unknown_task_is_404(client):
    status, body = client.post("no_such_task", {"instance": {}})
    assert status == 404
    assert sorted(body["tasks"]) == sorted(TASKS)


def test_malformed_payload_is_400(client):
    status, body = client.post("entity_linking", {"instance": {"row": 0}})
    assert status == 400 and "bad request" in body["error"]
    status, body = client.post("entity_linking", {"wrong_key": []})
    assert status == 400
    status, body = client.post("entity_linking", {"instances": "not-a-list"})
    assert status == 400


def test_metrics_expose_requests_latency_and_cache(bundle, client):
    adapter = bundle.predictor.adapter_for("schema_augmentation")
    payload = adapter.encode_instance(bundle.examples["schema_augmentation"][0])
    client.predict("schema_augmentation", payload)
    client.predict("schema_augmentation", payload)  # repeat: cache material
    metrics = client.metrics()
    names = metrics["metrics"]
    assert names["serve.requests.schema_augmentation"]["value"] >= 2
    assert names["serve.latency.schema_augmentation"]["count"] >= 2
    assert metrics["encode_cache"]["enabled"] == 1.0
    assert metrics["encode_cache"]["hits"] > 0
    assert 0.0 < metrics["encode_cache"]["hit_rate"] <= 1.0


def test_fleet_healthz_lists_workers(fleet_client):
    health = fleet_client.healthz()
    assert sorted(health["tasks"]) == sorted(TASKS)
    assert health["workers"] == ["worker0", "worker1"]


@pytest.mark.parametrize("task", TASKS)
def test_fleet_round_trip_matches_single_worker(bundle, fleet_client, task):
    adapter = bundle.predictor.adapter_for(task)
    instance = bundle.examples[task][0]
    expected = adapter.predict_one(instance)
    answer = fleet_client.predict(task, adapter.encode_instance(instance))
    assert answer == {"task": task, "output": expected.output}


def test_fleet_error_statuses(fleet_client):
    status, body = fleet_client.post("no_such_task", {"instance": {}})
    assert status == 404
    status, body = fleet_client.post("entity_linking", {"wrong_key": []})
    assert status == 400
    status, body = fleet_client.post("entity_linking",
                                     {"instance": {"row": 0}})
    assert status == 400 and "bad request" in body["error"]


def test_fleet_metrics_expose_per_worker_caches(bundle, fleet_client):
    adapter = bundle.predictor.adapter_for("schema_augmentation")
    payload = adapter.encode_instance(
        bundle.examples["schema_augmentation"][0])
    fleet_client.predict("schema_augmentation", payload)
    fleet_client.predict("schema_augmentation", payload)  # repeat: a hit
    metrics = fleet_client.metrics()
    cache = metrics["encode_cache"]
    assert sorted(cache["per_worker"]) == ["worker0", "worker1"]
    assert cache["hits"] >= 1
    assert cache["hits"] == sum(s["hits"]
                                for s in cache["per_worker"].values())
    text, content_type = fleet_client.metrics_prometheus()
    assert content_type.startswith("text/plain")
    assert "serve_worker0_cache_hit_rate" in text
    assert "serve_worker1_cache_hit_rate" in text
    assert "serve_encode_cache_hit_rate" in text


def test_fleet_draining_returns_503_and_resume_recovers(bundle,
                                                        fleet_client):
    adapter = bundle.predictor.adapter_for("schema_augmentation")
    payload = adapter.encode_instance(
        bundle.examples["schema_augmentation"][0])
    fleet = fleet_client.server.fleet
    assert fleet.drain(timeout=10)
    status, body = fleet_client.post("schema_augmentation",
                                     {"instance": payload})
    assert status == 503
    assert body["error_class"] == "FleetUnavailable"
    fleet.resume()
    assert fleet_client.predict("schema_augmentation", payload)


@pytest.mark.parametrize("workers", [1, 2])
def test_backpressure_statuses(bundle, workers):
    """A full lane answers 429 with Retry-After, a draining fleet 503, and
    every accepted request still gets its 200."""
    adapter = bundle.predictor.adapter_for("schema_augmentation")
    payload = adapter.encode_instance(
        bundle.examples["schema_augmentation"][0])
    fleet = PredictorFleet(bundle.predictor, workers=workers, max_queue=1)
    lane = fleet._workers[fleet.route("schema_augmentation", payload)]
    gate, entered = threading.Event(), threading.Event()
    original = lane.predictor.predict_batch

    def gated(task, instances):
        entered.set()
        gate.wait(timeout=10)
        return original(task, instances)

    lane.predictor.predict_batch = gated
    with Client(fleet) as client:
        statuses = []
        senders = [threading.Thread(target=lambda: statuses.append(
            client.post("schema_augmentation", {"instance": payload})[0]))
            for _ in range(2)]
        try:
            senders[0].start()
            assert entered.wait(timeout=10)
            senders[1].start()
            pause = threading.Event()
            for _ in range(500):  # 1 in flight + 1 queued = a full lane
                if lane.queue_depth >= 2:
                    break
                pause.wait(0.01)
            assert lane.queue_depth >= 2
            status, _, headers = client.post_with_headers(
                "schema_augmentation", {"instance": payload})
            assert status == 429 and headers.get("Retry-After") == "1"
        finally:
            gate.set()
            for sender in senders:
                sender.join(timeout=30)
        assert not any(sender.is_alive() for sender in senders)
        assert statuses == [200, 200]
        assert fleet.drain(timeout=10)
        status, body = client.post("schema_augmentation",
                                   {"instance": payload})
        assert (status, body["error_class"]) == (503, "FleetUnavailable")
        fleet.resume()
        assert client.predict("schema_augmentation", payload)


@pytest.mark.parametrize("workers", [1, 2])
def test_request_larger_than_the_queue_bound_is_200(bundle, workers):
    task = "column_type"
    adapter = bundle.predictor.adapter_for(task)
    instances = bundle.examples[task] * 2  # 8 instances, bound 1
    expected = adapter.predict_batch(instances)
    fleet = PredictorFleet(bundle.predictor, workers=workers, max_queue=1)
    with Client(fleet) as client:
        status, body = client.post(task, {"instances": [
            adapter.encode_instance(instance) for instance in instances]})
    assert status == 200
    assert [p["output"] for p in body["predictions"]] == \
        [p.output for p in expected]


def test_keep_alive_requests_do_not_stall(client):
    """Headers and body leave in two writes; with Nagle on, every response
    on a reused connection waits out the client's delayed ACK (~40 ms)."""
    host, port = client.server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    elapsed = []
    try:
        for _ in range(12):
            begin = perf_counter()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            elapsed.append(perf_counter() - begin)
    finally:
        connection.close()
    assert statistics.median(elapsed) < 0.020


def test_concurrent_requests_are_deterministic(bundle, client):
    """Hammer the server from threads; every answer must equal the serial
    single-threaded prediction for its instance."""
    adapter = bundle.predictor.adapter_for("entity_linking")
    instances = bundle.examples["entity_linking"]
    expected = [p.output for p in adapter.predict_batch(instances)]
    payloads = [adapter.encode_instance(instance) for instance in instances]

    answers = {}
    def worker(i):
        answers[i] = client.predict("entity_linking",
                                    payloads[i % len(payloads)])["output"]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert answers == {i: expected[i % len(expected)] for i in range(12)}
