#!/usr/bin/env python
"""End-to-end smoke test for the serving stack.

Boots the HTTP prediction server against a (tiny) pre-trained
checkpoint, sends one request per task over a real loopback socket,
repeats one request, and asserts that ``/metrics`` reports nonzero
encode-cache hits. Exits nonzero on any failure, so CI can gate on it.

Usage:
    PYTHONPATH=src python tools/serve_smoke.py --checkpoint /tmp/ckpt \
        --tables 40 --scale 0.25
"""

import argparse
import sys

from repro.core.linearize import Linearizer
from repro.core.pretrain import load_checkpoint
from repro.data.preprocessing import filter_relational, partition_corpus
from repro.data.synthesis import SynthesisConfig, build_corpus
from repro.kb.generator import WorldConfig, generate_world
from repro.serve import Client, PredictorFleet, build_serving_bundle

TASKS = ("entity_linking", "column_type", "relation_extraction",
         "row_population", "cell_filling", "schema_augmentation")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tables", type=int, default=40)
    args = parser.parse_args(argv)

    model, tokenizer, entity_vocab = load_checkpoint(args.checkpoint)
    kb = generate_world(WorldConfig(seed=args.seed).scaled(args.scale))
    corpus = filter_relational(build_corpus(
        kb, SynthesisConfig(seed=args.seed + 1, n_tables=args.tables)))
    splits = partition_corpus(corpus, seed=args.seed)
    linearizer = Linearizer(tokenizer, entity_vocab, model.config)
    bundle = build_serving_bundle(model, linearizer, kb, splits,
                                  seed=args.seed, n_examples=1)

    failures = []
    with Client(PredictorFleet(bundle.predictor, workers=1)) as client:
        health = client.healthz()
        if health.get("status") != "ok":
            failures.append(f"healthz not ok: {health}")
        if sorted(health.get("tasks", [])) != sorted(TASKS):
            failures.append(f"healthz task list wrong: {health.get('tasks')}")

        for task in TASKS:
            examples = bundle.examples.get(task, [])
            if not examples:
                failures.append(f"{task}: no test-split example to serve")
                continue
            adapter = bundle.predictor.adapter_for(task)
            payload = adapter.encode_instance(examples[0])
            answer = client.predict(task, payload)
            if answer.get("task") != task or "output" not in answer:
                failures.append(f"{task}: malformed answer {answer!r}")
                continue
            print(f"ok   POST /v1/{task}")

        # A repeated request must be served out of the encode cache.
        task = "schema_augmentation"
        adapter = bundle.predictor.adapter_for(task)
        payload = adapter.encode_instance(bundle.examples[task][0])
        first = client.predict(task, payload)
        second = client.predict(task, payload)
        if first != second:
            failures.append("repeated request not deterministic")

        metrics = client.metrics()
        cache = metrics.get("encode_cache", {})
        if cache.get("enabled") != 1.0:
            failures.append(f"encode cache not enabled: {cache}")
        elif not cache.get("hits", 0) > 0:
            failures.append(f"no encode-cache hits after a repeat: {cache}")
        else:
            print(f"ok   encode cache: {cache['hits']:.0f} hits, "
                  f"hit rate {cache['hit_rate']:.2f}")
        requests = metrics.get("metrics", {}).get(f"serve.requests.{task}", {})
        if requests.get("value", 0) < 3:
            failures.append(f"request counter did not advance: {requests}")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
