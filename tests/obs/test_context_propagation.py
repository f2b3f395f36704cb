"""Trace-context propagation through a serving lane.

The guarantee: a request traced through ``Client -> MicroBatcher`` lane
threads yields one connected trace, and concurrent
requests never interleave each other's span stacks — even under a
threaded stress load."""

import threading

from repro.obs import start_trace, trace
from repro.serve.batcher import MicroBatcher


class _EchoPredictor:
    """Stands in for Predictor: returns instances tagged with the task."""

    def predict_batch(self, task, instances):
        return [{"task": task, "instance": instance}
                for instance in instances]


class _GatedEchoPredictor(_EchoPredictor):
    """Records each batch; blocks inside it until ``release`` is set."""

    def __init__(self):
        self.batches = []
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def predict_batch(self, task, instances):
        self.entered.set()
        self.release.wait(timeout=10)
        self.batches.append(list(instances))
        return super().predict_batch(task, instances)


def test_single_request_yields_one_connected_trace():
    predictor = _EchoPredictor()
    with MicroBatcher(predictor, max_batch_size=4) as batcher:
        with start_trace("serve/entity_linking") as context:
            with trace("serve/wait"):
                result = batcher.submit("entity_linking", {"row": 0}).result()
    assert result["task"] == "entity_linking"
    by_name = {span.name: span for span in context.spans}
    # the lane thread attributed its spans back into the request trace
    assert {"serve/wait", "serve/queue", "serve/predict"} <= set(by_name)
    wait_index = context.spans.index(by_name["serve/wait"])
    assert by_name["serve/queue"].parent == wait_index
    assert by_name["serve/predict"].parent == wait_index
    # predict happens strictly after the queue wait begins
    assert by_name["serve/predict"].start >= by_name["serve/queue"].start


def test_batched_requests_each_get_their_own_spans():
    """Hold the lane busy on one item, release 4 traced requests behind it:
    they run as one batch of 4, and each trace gets exactly its own
    ``serve/queue`` and ``serve/predict`` spans."""
    predictor = _GatedEchoPredictor()
    contexts = {}
    barrier = threading.Barrier(4)

    def request(i):
        barrier.wait()
        with start_trace(f"serve/task{i}") as context:
            with trace("serve/wait"):
                batcher.submit("entity_linking", i).result()
        contexts[i] = context

    with MicroBatcher(predictor, max_batch_size=4) as batcher:
        predictor.release.clear()
        held = batcher.submit("entity_linking", "held")
        assert predictor.entered.wait(timeout=10)
        threads = [threading.Thread(target=request, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        pause = threading.Event()
        for _ in range(500):  # all 4 queued behind the held item
            if batcher.queue_depth == 5:
                break
            pause.wait(0.01)
        assert batcher.queue_depth == 5
        predictor.release.set()
        for thread in threads:
            thread.join()
        held.result(timeout=10)
    assert [sorted(batch) for batch in predictor.batches[1:]] == [
        [0, 1, 2, 3]]
    assert len(contexts) == 4
    for i, context in contexts.items():
        names = sorted(span.name for span in context.spans)
        assert names == ["serve/predict", "serve/queue", "serve/wait"], (
            f"request {i} got foreign or missing spans: {names}")
        wait_index = [span.name for span in context.spans].index(
            "serve/wait")
        assert all(span.parent == wait_index for span in context.spans
                   if span.name != "serve/wait")


def test_threaded_stress_never_interleaves_span_stacks():
    """32 concurrent traced requests x several rounds: every trace ends up
    with exactly its own three spans, correctly parented, and every future
    resolves to its own payload."""
    predictor = _EchoPredictor()
    errors = []

    def request(round_index, i):
        try:
            with start_trace(f"serve/stress{i}") as context:
                with trace("serve/wait"):
                    result = batcher.submit(
                        f"task{i % 3}", (round_index, i)).result()
            assert result["instance"] == (round_index, i)
            by_name = {span.name: span for span in context.spans}
            assert set(by_name) == {"serve/wait", "serve/queue",
                                    "serve/predict"}, sorted(by_name)
            wait_index = context.spans.index(by_name["serve/wait"])
            assert by_name["serve/queue"].parent == wait_index
            assert by_name["serve/predict"].parent == wait_index
        except Exception as error:  # surface in the main thread
            errors.append(error)

    with MicroBatcher(predictor, max_batch_size=8) as batcher:
        for round_index in range(3):
            threads = [
                threading.Thread(target=request, args=(round_index, i))
                for i in range(32)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    assert errors == []


def test_untraced_submitters_are_untouched():
    predictor = _EchoPredictor()
    with MicroBatcher(predictor, max_batch_size=2) as batcher:
        result = batcher.predict("entity_linking", {"row": 1})
    assert result["instance"] == {"row": 1}
