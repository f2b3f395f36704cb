"""Stdlib JSON-over-HTTP endpoint in front of a :class:`PredictorFleet`.

Routes:

- ``POST /v1/<task>`` — body ``{"instances": [payload, ...]}`` (or
  ``{"instance": {...}}``); each payload carries a ``Table.to_dict`` blob
  plus the task's fields.  Responds ``{"task": ..., "predictions": [...]}``.
- ``GET /healthz`` — liveness plus the served task list and lane names.
- ``GET /metrics`` — the ``repro.obs`` metrics registry and encode-cache
  counters (fleet rollup plus ``per_worker``) as JSON;
  ``GET /metrics?format=prometheus`` — the same registry in Prometheus
  text exposition (``text/plain; version=0.0.4``).

Every ``/v1`` request runs under its own trace context: the response
carries an ``X-Request-Id`` header with the trace id, the completed trace
streams to the fleet's journal as an ``EVENT_TRACE`` record (spans:
``serve/decode`` → ``serve/wait`` with the lane-attributed
``serve/queue`` / ``serve/predict`` children → ``serve/respond``), one
``EVENT_REQUEST`` journal event summarizes (task, status, latency,
trace id), and 500 bodies echo the trace id for correlation.

Requests are handled on :class:`ThreadingHTTPServer` threads.  The
handler decodes payloads on its own thread (malformed input is a 400),
then submits the request to its content-routed lanes with
:meth:`PredictorFleet.submit`, which admits it whole or refuses it whole;
lanes coalesce queued instances into task batches and are the only threads that run the model, so concurrent
clients get deterministic, data-race-free answers.  Typed backpressure
surfaces as 429 (lane saturated, with ``Retry-After``) or 503 (fleet
draining/stopped).  ``PredictorFleet(template, workers=1)`` is the
single-predictor deployment.  :class:`Client` boots a server on an
ephemeral port inside the process — the test and smoke harness.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import (
    EVENT_REQUEST,
    NullRegistry,
    enable_metrics,
    format_prometheus,
    get_registry,
    start_trace,
    trace,
)
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.serve.batcher import FleetError
from repro.serve.fleet import PredictorFleet

API_PREFIX = "/v1/"


class PredictionServer:
    """Own the HTTP server plus the fleet feeding it predictions."""

    def __init__(self, fleet: PredictorFleet, host: str = "127.0.0.1",
                 port: int = 0):
        self.fleet = fleet
        if isinstance(get_registry(), NullRegistry):
            # /metrics is part of the contract; make sure it records.
            enable_metrics()
        self._http = ThreadingHTTPServer((host, port), _build_handler(fleet))
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._http.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block and serve until :meth:`shutdown` (the CLI path)."""
        self._http.serve_forever()

    def start(self) -> "PredictionServer":
        """Serve on a background thread (the in-process / test path)."""
        self._thread = threading.Thread(target=self._http.serve_forever,
                                        daemon=True, name="repro-serve-http")
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop a background-threaded server (the :meth:`start` path)."""
        self._http.shutdown()
        self.close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def close(self) -> None:
        """Release the socket and drain the fleet.  For the foreground
        :meth:`serve_forever` path, call this after the loop exits (e.g.
        on ``KeyboardInterrupt``) — ``shutdown()`` would deadlock there."""
        self._http.server_close()
        self.fleet.close()


def _build_handler(fleet: PredictorFleet):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in two writes; with Nagle on, a
        # keep-alive client waits out its delayed ACK on every response.
        disable_nagle_algorithm = True

        # -- plumbing -----------------------------------------------------
        def log_message(self, format: str, *args: Any) -> None:
            pass  # metrics + journal carry the signal; stderr stays quiet

        def _respond(self, status: int, payload: Dict[str, Any],
                     trace_id: Optional[str] = None,
                     extra_headers: Optional[Dict[str, str]] = None) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if trace_id is not None:
                self.send_header("X-Request-Id", trace_id)
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _respond_text(self, status: int, text: str,
                          content_type: str) -> None:
            body = text.encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        # -- routes -------------------------------------------------------
        def do_GET(self) -> None:
            parsed = urllib.parse.urlsplit(self.path)
            if parsed.path == "/healthz":
                self._respond(200, {"status": "ok", "tasks": fleet.tasks,
                                    "workers": fleet.worker_names})
            elif parsed.path == "/metrics":
                stats = fleet.cache_stats()
                query = urllib.parse.parse_qs(parsed.query)
                if query.get("format", [""])[0] == "prometheus":
                    registry = get_registry()
                    for key, value in stats.items():
                        if key == "per_worker":
                            for worker, worker_stats in value.items():
                                for wkey, wvalue in worker_stats.items():
                                    registry.gauge(
                                        f"serve.{worker}.cache.{wkey}"
                                    ).set(wvalue)
                            continue
                        registry.gauge(f"serve.encode_cache.{key}").set(value)
                    self._respond_text(200, format_prometheus(registry),
                                       PROMETHEUS_CONTENT_TYPE)
                    return
                self._respond(200, {
                    "metrics": get_registry().as_dict(),
                    "encode_cache": stats,
                })
            else:
                self._respond(404, {"error": f"unknown path {self.path}"})

        def do_POST(self) -> None:
            if not self.path.startswith(API_PREFIX):
                self._respond(404, {"error": f"unknown path {self.path}"})
                return
            task = self.path[len(API_PREFIX):].strip("/")
            with start_trace(f"serve/{task}",
                             journal=fleet.journal) as context:
                status, n_instances = self._predict_route(task,
                                                          context.trace_id)
            if fleet.journal is not None:
                fleet.journal.event(EVENT_REQUEST, task=task, status=status,
                                    seconds=context.wall_seconds,
                                    trace_id=context.trace_id,
                                    instances=n_instances)

        def _predict_route(self, task: str,
                           trace_id: str) -> Tuple[int, int]:
            """Serve one ``/v1/<task>`` request; returns (status, n)."""
            try:
                adapter = fleet.adapter_for(task)
            except KeyError:
                self._respond(404, {"error": f"unknown task {task!r}",
                                    "tasks": fleet.tasks}, trace_id)
                return 404, 0
            length = int(self.headers.get("Content-Length", 0))
            try:
                with trace("serve/decode"):
                    request = json.loads(self.rfile.read(length) or b"{}")
                    payloads = self._payloads_of(request)
                    instances = [adapter.decode_instance(p)
                                 for p in payloads]
            except (ValueError, KeyError, TypeError) as error:
                self._respond(400, {"error": f"bad request: {error}"},
                              trace_id)
                return 400, 0
            try:
                with trace("serve/wait"):
                    futures = fleet.submit(task, instances, payloads)
                    predictions = [future.result() for future in futures]
            except FleetError as error:
                headers = ({"Retry-After": "1"}
                           if error.status == 429 else None)
                self._respond(error.status,
                              {"error": str(error),
                               "error_class": type(error).__name__},
                              trace_id, extra_headers=headers)
                return error.status, len(instances)
            except Exception as error:  # any failure -> 500, keep serving
                self._respond(500, {"error": f"prediction failed: {error}",
                                    "trace_id": trace_id}, trace_id)
                return 500, len(instances)
            with trace("serve/respond"):
                self._respond(200, {
                    "task": task,
                    "predictions": [adapter.encode_prediction(p)
                                    for p in predictions],
                }, trace_id)
            return 200, len(instances)

        @staticmethod
        def _payloads_of(request: Dict[str, Any]) -> List[Dict[str, Any]]:
            if "instances" in request:
                payloads = request["instances"]
                if not isinstance(payloads, list):
                    raise ValueError("'instances' must be a list")
                return payloads
            if "instance" in request:
                return [request["instance"]]
            raise ValueError("body must carry 'instance' or 'instances'")

    return Handler


class Client:
    """In-process client: boots a :class:`PredictionServer` and speaks its
    JSON protocol over a real socket (loopback, ephemeral port)."""

    def __init__(self, fleet: PredictorFleet):
        self.server = PredictionServer(fleet).start()

    # -- HTTP plumbing ----------------------------------------------------
    def _request_raw(self, path: str, body: Optional[Dict[str, Any]] = None
                     ) -> Tuple[int, bytes, Dict[str, str]]:
        url = self.server.url + path
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request) as response:
                return (response.status, response.read(),
                        dict(response.headers))
        except urllib.error.HTTPError as error:
            return error.code, error.read() or b"{}", dict(error.headers)

    def _request(self, path: str, body: Optional[Dict[str, Any]] = None
                 ) -> Tuple[int, Dict[str, Any]]:
        status, payload, _ = self._request_raw(path, body)
        return status, json.loads(payload)

    # -- API --------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("/healthz")[1]

    def metrics(self) -> Dict[str, Any]:
        return self._request("/metrics")[1]

    def predict(self, task: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        status, response = self._request(API_PREFIX + task,
                                         {"instance": payload})
        if status != 200:
            raise RuntimeError(f"predict({task!r}) -> {status}: {response}")
        return response["predictions"][0]

    def predict_batch(self, task: str, payloads: List[Dict[str, Any]]
                      ) -> List[Dict[str, Any]]:
        status, response = self._request(API_PREFIX + task,
                                         {"instances": payloads})
        if status != 200:
            raise RuntimeError(f"predict_batch({task!r}) -> {status}: {response}")
        return response["predictions"]

    def post(self, task: str, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Raw POST for tests that assert on error statuses."""
        return self._request(API_PREFIX + task, body)

    def post_with_headers(self, task: str, body: Dict[str, Any]
                          ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """POST returning (status, body, response headers) — for asserting
        on ``X-Request-Id`` correlation."""
        status, payload, headers = self._request_raw(API_PREFIX + task, body)
        return status, json.loads(payload), headers

    def metrics_prometheus(self) -> Tuple[str, str]:
        """``GET /metrics?format=prometheus``; returns (text, content type)."""
        status, payload, headers = self._request_raw(
            "/metrics?format=prometheus")
        if status != 200:
            raise RuntimeError(f"metrics?format=prometheus -> {status}")
        return payload.decode(), headers.get("Content-Type", "")

    def close(self) -> None:
        self.server.shutdown()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
