"""``pretrain``: closed loop, one trainer, eagerly linearized tables.

A round pre-trains a fresh model for one epoch with ``Pretrainer.train``
at the default ``TURLConfig`` (2 blocks, d=64, batch 8,
``shuffle="flat"``).  Rounds repeat until the run's seconds are spent;
each round draws its own epoch order and masks, so the step times cover
many batch compositions, while round 0 (and so ``pretrain.loss_final``)
depends on the seed alone.  Model forward, backward and the optimizer take
almost all of a step; shards and serving never run.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Tuple

import numpy as np

import probes
from common import (WORLD_SEED, median, metric, own_peak_rss_mb, percentile,
                    timed_setups)
from spans import Summary, Tracer, breakdown

#: Tables synthesized per run (~360 relational train tables, ~45 steps).
N_TABLES = 450
#: Steps averaged for the first and final loss windows.
LOSS_WINDOW = 10
SETUP_REPEATS = 3
#: Step-time tail percentile, and the rounds that give it at least ten
#: samples beyond it (5 x ~46 steps).
TAIL = 95.0
MIN_ROUNDS = 5

#: Per-step rows inside ``train.step``: metric name -> span names whose
#: self time it sums.
STEP_ROWS = {
    "core.batching.collate_ms": ("core.batching.collate",),
    "core.masking.apply_ms": ("core.masking.apply",),
    "core.model.embed_ms": ("core.model.encode",),
    "nn.attention.forward_ms": ("nn.attention",),
    "nn.ffn.forward_ms": ("nn.block",),
    "core.model.heads_ms": ("core.model.heads",),
    "core.candidates.build_ms": ("core.candidates.build",),
    "nn.backward_ms": ("nn.backward",),
    "nn.optim.clip_ms": ("nn.optim.clip",),
    "nn.optim.adam_ms": ("nn.optim.adam",),
}


class State:
    def __init__(self, seed: int):
        from repro.config import TURLConfig
        from repro.core.context import build_context
        from repro.data.synthesis import SynthesisConfig
        from repro.kb.generator import WorldConfig, generate_world

        world = WorldConfig(seed=WORLD_SEED)
        self.seed = seed
        self.context = build_context(
            world, SynthesisConfig(seed=seed + 1, n_tables=N_TABLES),
            TURLConfig(), pretrain_epochs=0, seed=seed,
            kb=generate_world(world))
        self.instances = [self.context.linearizer.encode(table)
                          for table in self.context.splits.train]


def train_round(state: State, round_index: int):
    """One epoch from a fresh model; returns ``PretrainStats``."""
    from repro.core.pretrain import Pretrainer

    context = state.context
    model = context.fresh_model(seed=state.seed)
    pretrainer = Pretrainer(model, state.instances, context.candidate_builder,
                            context.config,
                            seed=state.seed * 1000 + round_index,
                            shuffle="flat")
    return pretrainer.train(n_epochs=1)


def check_losses(rounds: List[List[float]]) -> Tuple[bool, int, List[str]]:
    """(correct, failed steps, problems) for the rounds' loss curves."""
    problems = []
    failed = sum(1 for losses in rounds for loss in losses
                 if not math.isfinite(loss))
    if failed:
        problems.append(f"{failed} non-finite step losses")
    for index, losses in enumerate(rounds):
        if not np.mean(losses[-LOSS_WINDOW:]) < np.mean(losses[:LOSS_WINDOW]):
            problems.append(f"round {index}: final loss window is not below "
                            "the first")
    return not problems, failed, problems


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.core.visibility import visibility_cache_stats
    from repro.train.engine import Trainer

    setup_s, state = timed_setups(lambda: State(seed), SETUP_REPEATS)
    step_timer = Tracer()
    if not trace:
        step_timer.patch(Trainer, "run_step", "train.step")
    tracer = Tracer()
    collate_stats = probes.CollateStats()
    losses: List[List[float]] = []
    walls = {False: [], True: []}
    visibility = {"hits": 0, "misses": 0}
    begin = time.perf_counter()
    try:
        # Traced runs alternate untraced and traced rounds, so drift over
        # the run cancels out of the tracing overhead.
        while (time.perf_counter() - begin < seconds
               or len(losses) < MIN_ROUNDS):
            traced = trace and len(losses) % 2 == 1
            if traced:
                probes.install_collate(tracer, collate_stats)
                probes.install_model(tracer)
                probes.install_training(tracer)
                before = visibility_cache_stats()
            try:
                # A traced round repeats the untraced round before it.
                stats = train_round(state, len(losses) // 2 if trace
                                    else len(losses))
            finally:
                tracer.restore()
            if traced:
                after = visibility_cache_stats()
                for key in visibility:
                    visibility[key] += after[key] - before[key]
            losses.append(list(stats.losses))
            walls[traced].append(stats.wall_seconds)
    finally:
        step_timer.restore()
    correct, failed, problems = check_losses(losses)
    steps = sum(len(curve) for curve in losses)
    tables_per_s = median([len(state.instances) / wall
                           for wall in walls[False]])
    report = {
        "pretrain.tables_per_s": metric(tables_per_s, "tables/s"),
        "pretrain.loss_final": metric(np.mean(losses[0][-LOSS_WINDOW:]),
                                      "nats"),
        "pretrain.steps": metric(steps, "count"),
        "pretrain.rounds": metric(len(losses), "count"),
    }
    result = {"correct": correct, "attempted": steps, "failed": failed,
              "problems": problems, "report": report}
    if not trace:
        step_ms = [1e3 * (end - start) for spans in step_timer.threads()
                   for _, start, end, _, _ in spans]
        p50, tail = percentile(step_ms, 50), percentile(step_ms, TAIL)
        report["pretrain.step_ms.p50"] = metric(p50, "ms")
        report[f"pretrain.step_ms.p{TAIL:g}"] = metric(tail, "ms")
        result["metrics"] = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(own_peak_rss_mb(), "MB"),
            "rate_per_s": metric(tables_per_s, "1/s"),
        }
        return result

    summary = Summary(tracer.threads())
    rows, unattributed, wall = breakdown(summary, "train.step", STEP_ROWS)
    n_steps = summary.calls["train.step"]
    lookups = visibility["hits"] + visibility["misses"]
    result["per_layer"] = {
        "train.step_ms": wall,
        **rows,
        "train.unattributed_ms": unattributed,
        "core.batching.padding_frac": collate_stats.padding_frac,
        "core.batching.tokens_per_table": collate_stats.tokens_per_table,
        "core.candidates.per_step": summary.calls["core.candidates.build"]
        / n_steps,
        "core.visibility.hit_rate": (visibility["hits"] / lookups
                                     if lookups else 0.0),
        "obs.trace_overhead_frac": median(walls[True]) / median(walls[False])
        - 1.0,
    }
    return result
