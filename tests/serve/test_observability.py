"""Serving-layer observability: X-Request-Id correlation, Prometheus
exposition, per-request journal events, and the acceptance guarantee that
one traced request's spans cover >= 95% of its wall time."""

import threading

import pytest

from repro.obs import EVENT_REQUEST, EVENT_TRACE, RunJournal, read_journal
from repro.serve import Client, Predictor, PredictorFleet


@pytest.fixture(scope="module")
def client(predictor):
    with Client(PredictorFleet(predictor, workers=1,
                               max_batch_size=4)) as active:
        yield active


@pytest.fixture()
def journal_client(bundle, tmp_path, request):
    """A server whose fleet streams requests/traces to a journal; the lane
    count is the fixture parameter (default 1).

    Shares the bundle's adapters and encode cache so the session-scoped
    predictor is left exactly as it was."""
    journal = RunJournal(str(tmp_path / "serve.jsonl"))
    predictor = Predictor(list(bundle.predictor.adapters.values()),
                          cache=bundle.predictor.cache)
    fleet = PredictorFleet(predictor, workers=getattr(request, "param", 1),
                           max_batch_size=4, journal=journal)
    with Client(fleet) as active:
        yield active, journal
    journal.close()


def _linking_payload(bundle):
    adapter = bundle.predictor.adapter_for("entity_linking")
    return adapter.encode_instance(bundle.examples["entity_linking"][0])


# -- X-Request-Id correlation -----------------------------------------------

def test_request_id_header_on_success(bundle, client):
    status, body, headers = client.post_with_headers(
        "entity_linking", {"instance": _linking_payload(bundle)})
    assert status == 200
    assert headers.get("X-Request-Id")
    assert body["task"] == "entity_linking"


def test_request_id_header_on_error_paths(client):
    status, _, headers = client.post_with_headers("no_such_task",
                                                  {"instance": {}})
    assert status == 404 and headers.get("X-Request-Id")
    status, _, headers = client.post_with_headers("entity_linking",
                                                  {"wrong_key": []})
    assert status == 400 and headers.get("X-Request-Id")


def test_request_ids_are_unique_per_request(bundle, client):
    payload = {"instance": _linking_payload(bundle)}
    ids = {client.post_with_headers("entity_linking", payload)[2]
           ["X-Request-Id"] for _ in range(3)}
    assert len(ids) == 3


# -- Prometheus exposition ---------------------------------------------------

def test_prometheus_endpoint_content_type_and_families(bundle, client):
    client.predict("entity_linking", _linking_payload(bundle))
    text, content_type = client.metrics_prometheus()
    assert content_type == "text/plain; version=0.0.4"
    assert "# TYPE serve_requests_entity_linking counter\n" in text
    assert "# TYPE serve_latency_entity_linking summary\n" in text
    assert 'serve_latency_entity_linking{quantile="0.99"}' in text
    assert "# TYPE serve_encode_cache_enabled gauge\n" in text
    assert "serve_encode_cache_enabled 1\n" in text
    # JSON /metrics still works alongside the prometheus view
    assert "metrics" in client.metrics()


# -- 500s carry the trace id -------------------------------------------------

def test_500_body_echoes_trace_id(bundle, tmp_path):
    journal = RunJournal(str(tmp_path / "boom.jsonl"))
    fleet = PredictorFleet(bundle.predictor, workers=1, journal=journal)

    def explode(task, instances):
        raise RuntimeError("adapter exploded")

    fleet._workers["worker0"].predictor.predict_batch = explode
    with Client(fleet) as client:
        status, body, headers = client.post_with_headers(
            "entity_linking", {"instance": _linking_payload(bundle)})
    journal.close()
    assert status == 500
    assert "prediction failed" in body["error"]
    assert body["trace_id"] == headers["X-Request-Id"]
    events = read_journal(journal.path)
    request_events = [e for e in events if e["event"] == EVENT_REQUEST]
    assert len(request_events) == 1
    assert request_events[0]["status"] == 500
    assert request_events[0]["trace_id"] == body["trace_id"]


# -- journal events per request ----------------------------------------------

def _journaled(journal, kind, count):
    """The journal once it holds ``count`` events of ``kind``.

    Traces and request summaries are journaled AFTER the response bytes
    reach the client (they record the final status and wall time), so
    give the handler thread a moment to finish writing."""
    pause = threading.Event()
    for _ in range(200):
        events = read_journal(journal.path)
        if sum(e["event"] == kind for e in events) >= count:
            break
        pause.wait(0.01)
    return events


def test_each_request_journals_summary_and_trace(bundle, journal_client):
    client, journal = journal_client
    payload = _linking_payload(bundle)
    client.predict("entity_linking", payload)
    status, _ = client.post("no_such_task", {"instance": {}})
    assert status == 404
    events = _journaled(journal, EVENT_REQUEST, 2)
    requests = [e for e in events if e["event"] == EVENT_REQUEST]
    traces = [e for e in events if e["event"] == EVENT_TRACE]
    assert [(e["task"], e["status"], e["instances"]) for e in requests] == [
        ("entity_linking", 200, 1), ("no_such_task", 404, 0)]
    for event in requests:
        assert event["seconds"] > 0
        assert event["trace_id"]
    assert [t["name"] for t in traces] == ["serve/entity_linking",
                                           "serve/no_such_task"]
    # request summaries and traces correlate through the trace id
    assert {e["trace_id"] for e in requests} == \
        {t["trace_id"] for t in traces}


# -- acceptance: spans cover >= 95% of the request wall time ------------------

def _root_coverage(trace_event):
    intervals = sorted(
        (span["start"], span["end"]) for span in trace_event["spans"]
        if span["parent"] == -1)
    covered = cursor = 0.0
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered / trace_event["wall_seconds"]


@pytest.mark.parametrize("journal_client", [1, 2], indirect=True)
def test_entity_linking_trace_covers_request_wall_time(bundle, journal_client):
    client, journal = journal_client
    client.predict("entity_linking", _linking_payload(bundle))
    (trace_event,) = [e for e in _journaled(journal, EVENT_TRACE, 1)
                      if e["event"] == EVENT_TRACE]
    spans = trace_event["spans"]
    by_name = {span["name"]: span for span in spans}
    assert {"serve/decode", "serve/wait", "serve/respond",
            "serve/queue", "serve/predict"} <= set(by_name)
    wait_index = spans.index(by_name["serve/wait"])
    assert by_name["serve/queue"]["parent"] == wait_index
    assert by_name["serve/predict"]["parent"] == wait_index
    assert _root_coverage(trace_event) >= 0.95
