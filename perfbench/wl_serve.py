"""``serve_zipf`` and ``serve_unique``: open-loop HTTP load on the server.

The server runs as its own process, started with ``python -m repro.cli
serve`` (or, for a traced run, through ``serve_launcher.py``), so the load
generator does not share its interpreter lock.  Payloads and the expected
answers come from this process: the same KB seed, the same checkpoint and
the same task resources, through the in-process template ``Predictor``.

Each run offers two fixed Poisson rates in turn, ``light`` (under a fifth
of capacity) and ``heavy`` (about a third), and reads the server's CPU time
around them: requests per server CPU-second measure capacity.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import loadgen
import probes
from common import (WORK_DIR, WORLD_SEED, fresh_dir, median, metric, nproc,
                    percentile, process_cpu_seconds, process_peak_rss_mb,
                    timed_setups)
from spans import Summary

TASKS = ("entity_linking", "column_type", "relation_extraction",
         "row_population", "cell_filling", "schema_augmentation")
#: The server's ``--tables``: the corpus behind its task resources.
SERVER_TABLES = 300
#: Gated tail percentile (p99 is reported beside it).
TAIL = 95.0
#: Slices of a rung whose statistics are reported as medians.
WINDOWS = 5
SETUP_REPEATS = 3
HEALTH_TIMEOUT_S = 120.0


#: Distinct payloads per task in the Zipf pool, and the Zipf exponent.
POOL_PER_TASK = 30
ZIPF_S = 1.0
#: Fresh-table requests sent before timing starts, to warm the server.
UNIQUE_WARM = 24


@dataclass(frozen=True)
class Mode:
    """How one serve workload runs the server and draws its payloads."""

    #: ``--workers`` for the server; ``None`` keeps the single-worker
    #: default (``Predictor`` + ``MicroBatcher``).
    workers: Optional[int]
    #: requests per second at the light and heavy rungs
    rates: Tuple[float, float]
    #: p99 limit a rung must meet to count toward ``serve.max_rate_rps``
    limit_ms: float
    #: draw every request from a fresh table (else Zipf over a small pool)
    unique: bool


MODES = {
    "serve_zipf": Mode(workers=nproc(), rates=(60.0, 120.0), limit_ms=50.0,
                       unique=False),
    "serve_unique": Mode(workers=None, rates=(25.0, 50.0), limit_ms=150.0,
                         unique=True),
}


# -- the server process --------------------------------------------------

class Server:
    """A ``repro.cli serve`` child process, up once ``/healthz`` answers."""

    def __init__(self, argv: List[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        stdin=subprocess.DEVNULL, text=True,
                                        env=env)
        try:
            self.host, self.port = self._address()
            self._wait_healthy()
        except BaseException:
            self.close()
            raise

    def _address(self) -> Tuple[str, int]:
        while True:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("server exited before it started serving")
            if line.startswith("serving on http://"):
                host, port = line.split()[2][len("http://"):].split(":")
                return host, int(port)

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + HEALTH_TIMEOUT_S
        while True:
            try:
                if self.get("/healthz")["status"] == "ok":
                    return
            except (OSError, ValueError):
                pass
            if (time.perf_counter() > deadline
                    or self.process.poll() is not None):
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def get(self, path: str) -> Dict[str, Any]:
        url = f"http://{self.host}:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return json.loads(response.read())

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def cpu_seconds(self) -> float:
        return process_cpu_seconds(self.process.pid)

    def close(self) -> None:
        """Interrupt the server (it drains and exits) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


# -- payloads ------------------------------------------------------------

class PayloadSource:
    """Builds one-table task payloads from fresh synthetic tables."""

    def __init__(self, kb, splits, seed: int):
        from repro.kb.lookup import LookupService
        from repro.tasks.schema_augmentation import build_header_vocabulary

        self.kb = kb
        self.seed = seed
        self.lookup = LookupService(kb)
        self.vocabulary = build_header_vocabulary(splits.train, min_tables=2)
        self._tables: List[Any] = []
        self._seen = set()
        self._chunk = 0

    def _more_tables(self) -> None:
        from repro.data.preprocessing import filter_relational
        from repro.data.synthesis import SynthesisConfig, build_corpus

        self._chunk += 1
        corpus = filter_relational(build_corpus(self.kb, SynthesisConfig(
            seed=self.seed * 1000 + self._chunk, n_tables=400)))
        for table in corpus:
            content = table.to_dict()
            content.pop("table_id")
            key = json.dumps(content, sort_keys=True)
            if key not in self._seen:
                self._seen.add(key)
                self._tables.append(table)

    def instance(self, task: str, table):
        """One ``task`` instance on ``table``, or None if it has none."""
        from repro.tasks.cell_filling import build_filling_instances
        from repro.tasks.column_type import ColumnInstance, column_types
        from repro.tasks.entity_linking import LinkingInstance
        from repro.tasks.relation_extraction import (RelationInstance,
                                                     column_pair_relations)
        from repro.tasks.row_population import build_population_instances
        from repro.tasks.schema_augmentation import build_schema_instances

        subject = table.subject_column
        others = [c for c in table.entity_columns() if c != subject]
        if task == "entity_linking":
            for row, col, cell in table.all_entity_cells():
                if cell.is_linked:
                    results = self.lookup.lookup(cell.mention, k=50)
                    return LinkingInstance(
                        table, row, col, cell.mention, cell.entity_id,
                        [r.entity_id for r in results],
                        [r.score for r in results])
            return None
        if task == "column_type":
            col = others[0] if others else subject
            return ColumnInstance(table, col,
                                  column_types(table, col, self.kb) or set())
        if task == "relation_extraction":
            if not others:
                return None
            relations = column_pair_relations(table, subject, others[0],
                                              self.kb)
            return RelationInstance(table, subject, others[0],
                                    relations or set())
        if task == "row_population":
            built = build_population_instances([table], n_seed=1,
                                               min_subject_entities=3)
        elif task == "cell_filling":
            built = build_filling_instances([table])
        else:
            built = build_schema_instances([table], self.vocabulary, n_seed=1)
        return built[0] if built else None

    def take(self, tasks: List[str]) -> List[Any]:
        """One instance per requested task, each on a table never used
        before."""
        out = []
        for task in tasks:
            while True:
                if not self._tables:
                    self._more_tables()
                instance = self.instance(task, self._tables.pop(0))
                if instance is not None:
                    out.append(instance)
                    break
        return out


def _body(payload: Dict[str, Any]) -> bytes:
    return json.dumps({"instance": payload}).encode()


# -- set-up --------------------------------------------------------------

class State:
    """World, checkpoint, template predictor, payloads and the server."""

    def __init__(self, seed: int, mode: Mode, spans_path: Optional[str]):
        from repro.config import TURLConfig
        from repro.core.context import build_context
        from repro.core.linearize import Linearizer
        from repro.core.pretrain import load_checkpoint, save_checkpoint
        from repro.data.synthesis import SynthesisConfig
        from repro.kb.generator import WorldConfig, generate_world
        from repro.serve import build_serving_bundle

        self.seed, self.mode = seed, mode
        world = WorldConfig(seed=WORLD_SEED)
        kb = generate_world(world)
        # The server rebuilds this corpus and its splits from --seed and
        # --tables, exactly as here: the deployment is fixed, the run's
        # seed draws the traffic.
        context = build_context(
            world,
            SynthesisConfig(seed=WORLD_SEED + 1, n_tables=SERVER_TABLES),
            TURLConfig(), pretrain_epochs=0, seed=WORLD_SEED, kb=kb)
        checkpoint = fresh_dir("serve", "checkpoint")
        save_checkpoint(checkpoint, context.model, context.tokenizer,
                        context.entity_vocab)
        model, tokenizer, entity_vocab = load_checkpoint(checkpoint)
        linearizer = Linearizer(tokenizer, entity_vocab, model.config)
        bundle = build_serving_bundle(model, linearizer, kb, context.splits,
                                      seed=WORLD_SEED,
                                      n_examples=POOL_PER_TASK)
        self.template = bundle.predictor
        self.rng = np.random.default_rng([seed, 7])
        if mode.unique:
            self.source = PayloadSource(kb, context.splits, seed)
        else:
            self.pool = [(task, bundle.predictor.adapter_for(task)
                          .encode_instance(instance))
                         for task in TASKS
                         for instance in bundle.examples[task]]
            missing = set(TASKS) - {task for task, _ in self.pool}
            if missing:
                raise RuntimeError(f"no pool payloads for {sorted(missing)}")
            self.pool_bodies = [_body(payload) for _, payload in self.pool]
            # Tasks are drawn uniformly; within a task, payloads repeat on
            # a Zipf law over their order in the pool.  The popularity
            # ranking belongs to the fixed deployment: cached requests
            # cost 0.4-5 ms by payload, so a seeded ranking would make
            # the hottest payloads, not the program, set a run's numbers.
            self.ranked = {}
            for task in TASKS:
                members = [i for i, (name, _) in enumerate(self.pool)
                           if name == task]
                weights = 1.0 / np.arange(1.0, len(members) + 1) ** ZIPF_S
                self.ranked[task] = (members, weights / weights.sum())

        argv = ["serve", "--checkpoint", checkpoint, "--seed", str(WORLD_SEED),
                "--tables", str(SERVER_TABLES), "--port", "0"]
        if mode.workers is not None:
            # A Zipf pool larger than one lane's encode cache that fits in
            # the fleet's total cache.
            argv += ["--workers", str(mode.workers),
                     "--cache-size", str(max(1, (3 * len(self.pool)) // 4))]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli"] + argv
        else:
            command = [sys.executable,
                       os.path.join(os.path.dirname(__file__),
                                    "serve_launcher.py"), spans_path] + argv
        self.server = Server(command)

    def requests(self, n: int) -> List[Tuple[str, Dict[str, Any], bytes]]:
        """The next ``n`` (task, payload, body) requests."""
        if self.mode.unique:
            tasks = [TASKS[int(i)] for i in self.rng.integers(len(TASKS),
                                                               size=n)]
            instances = self.source.take(tasks)
            out = []
            for task, instance in zip(tasks, instances):
                payload = self.template.adapter_for(task).encode_instance(
                    instance)
                out.append((task, payload, _body(payload)))
            return out
        out = []
        for task_index in self.rng.integers(len(TASKS), size=n):
            members, weights = self.ranked[TASKS[int(task_index)]]
            index = members[int(self.rng.choice(len(members), p=weights))]
            task, payload = self.pool[index]
            out.append((task, payload, self.pool_bodies[index]))
        return out

    def warm_requests(self):
        """Zipf: every pool payload once, so the caches start full."""
        if self.mode.unique:
            return self.requests(UNIQUE_WARM)
        return [(task, payload, body) for (task, payload), body
                in zip(self.pool, self.pool_bodies)]

    def close(self) -> None:
        self.server.close()


# -- running rungs -------------------------------------------------------

@dataclass
class Rung:
    name: str
    rate: float
    seconds: float
    requests: List[Tuple[str, Dict[str, Any], bytes]]
    offsets: np.ndarray
    outcomes: Optional[List[loadgen.Outcome]] = None


def plan_rung(state: State, name: str, rate: float, seconds: float) -> Rung:
    offsets = loadgen.poisson_offsets(rate, seconds, state.rng)
    return Rung(name, rate, seconds, state.requests(len(offsets)), offsets)


def drive(state: State, rung: Rung) -> Rung:
    server = state.server
    paths = ["/v1/" + task for task, _, _ in rung.requests]
    bodies = [body for _, _, body in rung.requests]
    rung.outcomes = loadgen.run_open_loop(
        rung.offsets,
        lambda: loadgen.HttpSender(server.host, server.port, paths, bodies,
                                   timeout=10.0),
        concurrency=nproc())
    return rung


def sequential(state: State, requests) -> Rung:
    """Send ``requests`` one after another (the warm-up prefix)."""
    rung = Rung("warm", 0.0, 0.0, requests, np.zeros(len(requests)))
    server = state.server
    sender = loadgen.HttpSender(server.host, server.port,
                                ["/v1/" + task for task, _, _ in requests],
                                [body for _, _, body in requests])
    rung.outcomes = [loadgen.Outcome(due=0.0) for _ in requests]
    try:
        for index, outcome in enumerate(rung.outcomes):
            outcome.due = outcome.sent = time.perf_counter()
            outcome.result = sender(index)
            outcome.done = time.perf_counter()
    finally:
        sender.close()
    return rung


def verify(state: State, rungs: List[Rung]) -> Tuple[int, int, Dict[int, int],
                                                      List[str]]:
    """(attempted, failed, status counts, problems) over every sent request.

    A request fails unless it got a 200 whose prediction equals the
    in-process template ``Predictor``'s answer for the same payload.
    """
    expected: Dict[int, Any] = {}
    attempted = failed = 0
    statuses: Dict[int, int] = {}
    problems: List[str] = []
    for rung in rungs:
        for (task, payload, body), outcome in zip(rung.requests,
                                                  rung.outcomes):
            attempted += 1
            status, answer = outcome.result
            statuses[status] = statuses.get(status, 0) + 1
            if status != 200:
                failed += 1
                continue
            key = id(body)
            if key not in expected:
                prediction = state.template.predict_payloads(task,
                                                             [payload])[0]
                expected[key] = json.loads(json.dumps(prediction))
            if json.loads(answer)["predictions"][0] != expected[key]:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{rung.name}/{task}: answer differs from "
                                    "the template predictor")
    if failed:
        problems.append(f"{failed} of {attempted} requests failed: statuses "
                        f"{dict(sorted(statuses.items()))}")
    return attempted, failed, statuses, problems


def rung_stats(rung: Rung, mode: Mode) -> Dict[str, Any]:
    """Latency from due time, backlog and whether the rung passed.

    ``p50_ms`` is the median over ``WINDOWS`` equal slices of the rung, so
    a short stall on a shared host moves one slice, not the result.
    """
    sent = rung.outcomes
    latency = [1e3 * o.latency for o in sent]
    ok = [o.result[0] == 200 for o in sent]
    start = rung.outcomes[0].due - float(rung.offsets[0])
    end = start + rung.seconds
    # Requests due inside the window that were not answered by its end:
    # a backlog larger than the in-flight limit means it was growing.
    backlog = sum(1 for o in rung.outcomes
                  if o.due < end and (o.done is None or o.done > end))
    width = rung.seconds / WINDOWS
    slices = [[1e3 * o.latency for o in sent
               if start + k * width <= o.due < start + (k + 1) * width]
              for k in range(WINDOWS)]
    stats = {
        "requests": len(sent),
        "p50_ms": median([percentile(part, 50) for part in slices if part]),
        f"p{TAIL:g}_ms": percentile(latency, TAIL),
        "p99_ms": percentile(latency, 99),
        "backlog": backlog,
    }
    stats["passed"] = (all(ok) and stats["p99_ms"] <= mode.limit_ms
                       and backlog <= 2 * nproc())
    return stats


def cache_counters(state: State) -> Dict[str, float]:
    answer = state.server.get("/metrics")
    cache = answer["encode_cache"]
    counters = {"hits": cache.get("hits", 0.0),
                "misses": cache.get("misses", 0.0)}
    for name, value in answer["metrics"].items():
        if name.startswith("serve.worker") and name.endswith(".requests"):
            counters[name] = value["value"]
    return counters


# -- the workload --------------------------------------------------------

def run(seed: int, seconds: float, trace: bool,
        mode_name: str) -> Dict[str, Any]:
    mode = MODES[mode_name]
    spans_path = (os.path.join(WORK_DIR, "serve", "spans.json") if trace
                  else None)
    setup_s, state = timed_setups(lambda: State(seed, mode, spans_path),
                                  SETUP_REPEATS)
    light_rate, heavy_rate = mode.rates
    try:
        warm = sequential(state, state.warm_requests())
        if trace:
            rungs, counters = _traced(state, seconds / 3)
        else:
            before = cache_counters(state)
            cpu_before = state.server.cpu_seconds()
            rungs = [drive(state, plan_rung(state, "light", light_rate,
                                            seconds / 2)),
                     drive(state, plan_rung(state, "heavy", heavy_rate,
                                            seconds / 2))]
            cpu_s = state.server.cpu_seconds() - cpu_before
            counters = {"before": before, "after": cache_counters(state)}
            peak_rss = state.server.peak_rss_mb()
    finally:
        state.close()
    attempted, failed, statuses, problems = verify(state, [warm] + rungs)
    stats = {rung.name: rung_stats(rung, mode) for rung in rungs}
    report = {}
    for name, rung_stat in stats.items():
        for key in ("p50_ms", f"p{TAIL:g}_ms", "p99_ms"):
            report[f"serve.{name}.{key}"] = metric(rung_stat[key], "ms")
        report[f"serve.{name}.requests"] = metric(rung_stat["requests"],
                                                  "count")
        report[f"serve.{name}.backlog"] = metric(rung_stat["backlog"], "count")
    report["serve.cache.hit_rate"] = metric(_hit_rate(counters), "ratio")
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "problems": problems, "report": report}
    if trace:
        result["per_layer"] = _per_layer(load_dump(spans_path), rungs,
                                         statuses, counters)
        return result
    passing = [rung.rate for rung in rungs if stats[rung.name]["passed"]]
    report["serve.max_rate_rps"] = metric(max(passing, default=0.0), "req/s")
    # Requests per server CPU-second: the server is bound by one
    # interpreter lock, so this is its capacity on a dedicated core, and
    # CPU time, unlike wall time, excludes what a shared host steals.
    answered = sum(stat["requests"] for stat in stats.values())
    report["serve.requests_per_cpu_s"] = metric(answered / cpu_s, "req/s")
    result["metrics"] = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "rate_per_s": metric(answered / cpu_s, "1/s"),
    }
    return result


def _hit_rate(counters) -> float:
    before, after = counters["before"], counters["after"]
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def _traced(state: State, seconds: float):
    """An untraced light rung; then, with the server's wrappers switched on
    by SIGUSR1, the same light schedule again and a heavy rung."""
    light_rate, heavy_rate = state.mode.rates
    untraced = drive(state, plan_rung(state, "light-untraced", light_rate,
                                      seconds))
    requests = (state.requests(len(untraced.offsets)) if state.mode.unique
                else untraced.requests)
    traced = Rung("light", light_rate, seconds, requests, untraced.offsets)
    before = cache_counters(state)
    state.server.signal(signal.SIGUSR1)
    time.sleep(0.2)  # the server's main thread runs the handler
    drive(state, traced)
    heavy = drive(state, plan_rung(state, "heavy", heavy_rate, seconds))
    counters = {"before": before, "after": cache_counters(state)}
    return [untraced, traced, heavy], counters


def load_dump(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def _per_layer(dump: Dict[str, Any], rungs: List[Rung], statuses,
               counters) -> Dict[str, float]:
    """Rows per request over the traced rungs, from the server's spans."""
    summary = Summary(dump["threads"])
    untraced, traced = rungs[0], rungs[1:]
    sent = [o for rung in traced for o in rung.outcomes]
    n = len(sent)
    client_ms = 1e3 * float(np.mean([o.done - o.sent for o in sent]))
    tier_ms = summary.total_ms("serve.tier") / n
    predictor_ms = 1e3 * summary.item_time["serve.predictor"] / n
    collate = probes.CollateStats()
    vars(collate).update(dump["collate"])
    visibility = dump["visibility"]
    lookups = visibility["hits"] + visibility["misses"]
    after, before = counters["after"], counters["before"]
    per_worker = [after[name] - before.get(name, 0.0) for name in after
                  if name.startswith("serve.worker")]
    calls = summary.calls["serve.predictor"]

    def mean_latency(rung: Rung) -> float:
        return float(np.mean([o.latency for o in rung.outcomes]))

    return {
        "serve.http.overhead_ms": client_ms - tier_ms,
        "serve.queue.wait_ms": tier_ms - predictor_ms,
        "serve.batch.size": summary.count["serve.predictor"] / calls
        if calls else 0.0,
        "serve.adapters.decode_ms": summary.total_ms("serve.adapters.decode")
        / n,
        "serve.adapters.predict_ms": summary.self_ms("serve.adapters.predict")
        / n,
        "kb.lookup_ms": summary.total_ms("kb.lookup") / n,
        "core.model.encode_ms": summary.total_ms("core.model.encode") / n,
        "core.model.encode_calls_per_req": summary.calls["core.model.encode"]
        / n,
        "core.model.embed_ms": summary.self_ms("core.model.encode") / n,
        "nn.attention.forward_ms": summary.self_ms("nn.attention") / n,
        "nn.ffn.forward_ms": summary.self_ms("nn.block") / n,
        "core.linearize.encode_ms": summary.self_ms("core.linearize.encode")
        / n,
        "text.tokenizer.encode_ms": summary.total_ms("text.tokenizer.encode")
        / n,
        "core.batching.collate_ms": summary.total_ms("core.batching.collate")
        / n,
        "core.batching.padding_frac": collate.padding_frac,
        "core.batching.tokens_per_table": collate.tokens_per_table,
        "core.visibility.hit_rate": (visibility["hits"] / lookups
                                     if lookups else 0.0),
        "serve.cache.hit_rate": _hit_rate(counters),
        "serve.fleet.imbalance": (max(per_worker) / float(np.mean(per_worker))
                                  if per_worker and sum(per_worker) else 1.0),
        "serve.rejected": float(sum(statuses.get(code, 0)
                                    for code in loadgen.REFUSED)),
        "loadgen.lag_ms.p99": percentile([1e3 * o.lag for o in sent], 99),
        "obs.trace_overhead_frac": mean_latency(traced[0])
        / mean_latency(untraced) - 1.0,
    }
