#!/usr/bin/env python
"""Soak/stress harness for the serving fleet, at any number of lanes.

Boots a :class:`PredictorFleet` behind the HTTP server against a (tiny)
pre-trained checkpoint, then drives a seeded mixed-task workload over a
real loopback socket from ``--concurrency`` driver threads.  Table picks
follow a long-tail (Zipf-like) repeat distribution, so a handful of hot
tables dominate — the regime content-routed per-worker caches are built
for.  Every response is checked bit-for-bit against the template
predictor's in-process answer for that payload.

Reports p50/p99 latency, throughput, per-status-class counts, per-worker
cache hit rates and the fleet rollup as JSON (``--json``), and enforces
thresholds (``--p99-budget-ms``, zero 5xx, zero mismatches, cache hits
on every routed worker) so CI can gate on the exit code.

Usage:
    PYTHONPATH=src python tools/serve_soak.py --checkpoint /tmp/ckpt \
        --requests 100000 --workers 4
    # CI smoke variant:
    PYTHONPATH=src python tools/serve_soak.py --checkpoint /tmp/ckpt \
        --requests 2000 --workers 2 --tables 40 --scale 0.25
"""

import argparse
import json
import sys
import threading

import numpy as np

from repro.core.linearize import Linearizer
from repro.core.pretrain import load_checkpoint
from repro.data.preprocessing import filter_relational, partition_corpus
from repro.data.synthesis import SynthesisConfig, build_corpus
from repro.kb.generator import WorldConfig, generate_world
from repro.obs.clock import perf_counter
from repro.serve import Client, PredictorFleet, build_serving_bundle

TASKS = ("entity_linking", "column_type", "relation_extraction",
         "row_population", "cell_filling", "schema_augmentation")


def build_workload(bundle, n_requests: int, seed: int, zipf_s: float):
    """A seeded (task, payload index) schedule with a long-tail repeat law.

    Within each task the k-th distinct payload is drawn with probability
    proportional to ``1 / (k + 1) ** zipf_s`` — the head payloads repeat
    constantly (cache-hot), the tail trickles (cache-cold).
    """
    payloads = {}
    expected = {}
    for task in TASKS:
        adapter = bundle.predictor.adapter_for(task)
        task_payloads = [adapter.encode_instance(instance)
                         for instance in bundle.examples[task]]
        if not task_payloads:
            raise SystemExit(f"{task}: no test-split examples to serve")
        payloads[task] = task_payloads
        expected[task] = bundle.predictor.predict_payloads(task,
                                                           task_payloads)

    rng = np.random.default_rng(seed)
    schedule = []
    for task in TASKS:
        ranks = np.arange(len(payloads[task]))
        weights = 1.0 / (ranks + 1.0) ** zipf_s
        weights /= weights.sum()
        picks = rng.choice(ranks, size=n_requests // len(TASKS) + 1,
                          p=weights)
        schedule.extend((task, int(index)) for index in picks)
    rng.shuffle(schedule)
    return payloads, expected, schedule[:n_requests]


def drive(client, payloads, expected, schedule, concurrency: int):
    """Fan the schedule over ``concurrency`` synchronous driver threads."""
    latencies = [[] for _ in range(concurrency)]
    statuses = [{} for _ in range(concurrency)]
    mismatches = [0] * concurrency

    def worker(slot: int) -> None:
        for task, index in schedule[slot::concurrency]:
            begin = perf_counter()
            status, body = client.post(task,
                                       {"instance": payloads[task][index]})
            latencies[slot].append(perf_counter() - begin)
            statuses[slot][status] = statuses[slot].get(status, 0) + 1
            if status == 200:
                if body["predictions"][0] != expected[task][index]:
                    mismatches[slot] += 1

    threads = [threading.Thread(target=worker, args=(slot,), daemon=True)
               for slot in range(concurrency)]
    begin = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = perf_counter() - begin

    merged_status = {}
    for per_thread in statuses:
        for status, count in per_thread.items():
            merged_status[status] = merged_status.get(status, 0) + count
    flat = np.array([value for chunk in latencies for value in chunk])
    return flat, merged_status, sum(mismatches), wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--requests", type=int, default=100_000)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument("--concurrency", type=int, default=8,
                        help="synchronous driver threads (bounds in-flight)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tables", type=int, default=40)
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="draw served tables from a `repro.cli "
                             "synthesize` sharded corpus instead of "
                             "synthesizing in-process (--tables is then "
                             "ignored; --seed/--scale still shape the KB)")
    parser.add_argument("--n-examples", type=int, default=4,
                        help="distinct payloads per task (tail length)")
    parser.add_argument("--zipf-s", type=float, default=1.2,
                        help="long-tail exponent for table repeats")
    parser.add_argument("--p99-budget-ms", type=float, default=250.0)
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the full soak report to this path")
    args = parser.parse_args(argv)

    model, tokenizer, entity_vocab = load_checkpoint(args.checkpoint,
                                                     mmap="auto")
    kb = generate_world(WorldConfig(seed=args.seed).scaled(args.scale))
    if args.corpus:
        from repro.data.shards import ShardedDataset

        splits = ShardedDataset(args.corpus).splits()
    else:
        corpus = filter_relational(build_corpus(
            kb, SynthesisConfig(seed=args.seed + 1, n_tables=args.tables)))
        splits = partition_corpus(corpus, seed=args.seed)
    linearizer = Linearizer(tokenizer, entity_vocab, model.config)
    bundle = build_serving_bundle(model, linearizer, kb, splits,
                                  seed=args.seed, n_examples=args.n_examples)
    fleet = PredictorFleet(bundle.predictor, workers=args.workers,
                           max_queue=args.max_queue)

    payloads, expected, schedule = build_workload(bundle, args.requests,
                                                  args.seed, args.zipf_s)
    print(f"soak: {len(schedule)} requests, {args.workers} workers, "
          f"{args.concurrency} driver threads, zipf_s={args.zipf_s}")

    with Client(fleet) as client:
        latencies, status_counts, mismatches, wall = drive(
            client, payloads, expected, schedule, args.concurrency)
        metrics = client.metrics()
        cache = metrics["encode_cache"]

    ok = len(latencies) > 0
    p50_ms = float(np.percentile(latencies, 50) * 1e3) if ok else float("nan")
    p99_ms = float(np.percentile(latencies, 99) * 1e3) if ok else float("nan")
    n_5xx = sum(count for status, count in status_counts.items()
                if status >= 500)
    per_worker_hits = {name: stats.get("hits", 0.0)
                       for name, stats in cache.get("per_worker", {}).items()}
    per_worker_requests = {
        name: metrics["metrics"].get(f"serve.{name}.requests",
                                     {}).get("value", 0)
        for name in per_worker_hits}
    routed = [name for name, count in per_worker_requests.items()
              if count > 0]

    checks = {
        "all_requests_answered": len(latencies) == len(schedule),
        "p99_within_budget": ok and p99_ms <= args.p99_budget_ms,
        "zero_5xx": n_5xx == 0,
        "zero_mismatches": mismatches == 0,
        # With a small distinct-table pool the ring may leave a worker
        # without keyspace; demand hits from every worker that actually
        # received traffic, and that traffic spread beyond one lane.
        "every_routed_worker_served_cache_hits": (
            bool(routed)
            and all(per_worker_hits[name] > 0 for name in routed)),
        "routing_spread_across_workers": (
            len(routed) >= min(2, args.workers)),
    }
    report = {
        "requests": len(schedule),
        "workers": args.workers,
        "concurrency": args.concurrency,
        "seed": args.seed,
        "zipf_s": args.zipf_s,
        "wall_seconds": wall,
        "throughput_rps": len(latencies) / wall if wall else 0.0,
        "latency_ms": {"p50": p50_ms, "p99": p99_ms,
                       "budget_p99": args.p99_budget_ms},
        "status_counts": {str(k): v for k, v in sorted(status_counts.items())},
        "mismatches": mismatches,
        "cache": {"hit_rate": cache.get("hit_rate"),
                  "per_worker_hits": per_worker_hits,
                  "per_worker_requests": per_worker_requests},
        "checks": checks,
    }
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    print(f"soak: {report['throughput_rps']:.0f} req/s, "
          f"p50 {p50_ms:.2f} ms, p99 {p99_ms:.2f} ms, "
          f"hit rate {cache.get('hit_rate', 0.0):.2f}")
    for name in sorted(per_worker_hits):
        print(f"soak: {name} requests={per_worker_requests[name]:.0f} "
              f"hits={per_worker_hits[name]:.0f}")
    failures = [name for name, passed in checks.items() if not passed]
    for name in failures:
        print(f"FAIL {name}", file=sys.stderr)
    if failures:
        return 1
    print("serve soak passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
