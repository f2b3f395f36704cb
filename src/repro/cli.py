"""Command-line interface.

Usage::

    python -m repro.cli world --seed 1                   # generate + describe a world
    python -m repro.cli corpus --tables 300 --out c.jsonl
    python -m repro.cli synthesize --tables 5000 --shards 8 --workers 4 --out corpus/
    python -m repro.cli pretrain --tables 300 --epochs 8 --out ckpt/ --journal run.jsonl
    python -m repro.cli pretrain --corpus corpus/ --shuffle shard --epochs 8 --out ckpt/
    python -m repro.cli finetune --task column_type --checkpoint ckpt/ --epochs 3
    python -m repro.cli probe --checkpoint ckpt/ --tables 300
    python -m repro.cli report --journal run.jsonl       # loss / timing summary
    python -m repro.cli registry                         # experiment index
    python -m repro.cli lint src tests                   # static analysis
    python -m repro.cli bench --json BENCH_dev.json      # hot-path benchmarks
    python -m repro.cli bench --compare-to BENCH_pr5.json  # regression gate
    python -m repro.cli profile --memory                 # per-layer cost
    python -m repro.cli serve --checkpoint ckpt/         # JSON HTTP endpoint

``pretrain`` and ``finetune`` accept ``--sanitize`` to run every training
step under the autograd sanitizer (NaN/Inf guards, in-place mutation
detection); seeded results are bit-identical with it on or off.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

#: SynthesisConfig fields that the shared argument group does NOT expose
#: verbatim: ``seed`` is derived from the world seed (``--seed + 1``, the
#: historical convention) and ``n_tables`` is spelled ``--tables``.
_SYNTHESIS_SPECIAL = {"seed": None, "n_tables": "tables"}


def add_synthesis_arguments(parser: argparse.ArgumentParser,
                            tables_default: int = 300) -> None:
    """Install the corpus-synthesis argument group on ``parser``.

    Every flag except ``--seed``/``--scale``/``--tables`` is derived from
    :class:`repro.data.synthesis.SynthesisConfig` by reflection, so a config
    field added there shows up here (and in ``synthesize``) automatically —
    the two subcommands can never drift apart.
    """
    import dataclasses

    from repro.data.synthesis import SynthesisConfig

    group = parser.add_argument_group(
        "synthesis", "corpus synthesis (shared by corpus/synthesize/pretrain)")
    group.add_argument("--seed", type=int, default=1,
                       help="world seed; tables use seed+1")
    group.add_argument("--scale", type=float, default=1.0,
                       help="world size multiplier")
    group.add_argument("--tables", type=int, default=tables_default,
                       help="number of tables to synthesize")
    for field in dataclasses.fields(SynthesisConfig):
        if field.name in _SYNTHESIS_SPECIAL:
            continue
        flag = "--" + field.name.replace("_", "-")
        if field.type == "bool" or isinstance(field.default, bool):
            group.add_argument(flag, action=argparse.BooleanOptionalAction,
                               default=field.default,
                               help=f"SynthesisConfig.{field.name}")
        else:
            kind = float if isinstance(field.default, float) else int
            group.add_argument(flag, type=kind, default=field.default,
                               help=f"SynthesisConfig.{field.name}")


def synthesis_config_from_args(args: argparse.Namespace):
    """The :class:`SynthesisConfig` an :func:`add_synthesis_arguments`
    namespace describes (synthesis seed = world seed + 1, as always)."""
    import dataclasses

    from repro.data.synthesis import SynthesisConfig

    values = {"seed": args.seed + 1, "n_tables": args.tables}
    for field in dataclasses.fields(SynthesisConfig):
        if field.name in _SYNTHESIS_SPECIAL:
            continue
        values[field.name] = getattr(args, field.name)
    return SynthesisConfig(**values)


def _cmd_world(args: argparse.Namespace) -> int:
    from repro.kb.generator import WorldConfig, generate_world

    config = WorldConfig(seed=args.seed).scaled(args.scale)
    kb = generate_world(config)
    print(f"entities : {len(kb)}")
    print(f"facts    : {len(kb.facts)}")
    by_type = {}
    for entity in kb.entities.values():
        for type_name in entity.types:
            by_type[type_name] = by_type.get(type_name, 0) + 1
    for type_name in sorted(by_type):
        print(f"  {type_name:16s} {by_type[type_name]}")
    if args.out:
        kb.save(args.out)
        print(f"saved to {args.out}")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.data.preprocessing import filter_relational, partition_corpus
    from repro.data.statistics import format_statistics, splits_statistics
    from repro.data.synthesis import build_corpus
    from repro.kb.generator import WorldConfig, generate_world

    kb = generate_world(WorldConfig(seed=args.seed).scaled(args.scale))
    corpus = filter_relational(build_corpus(kb, synthesis_config_from_args(args)))
    splits = partition_corpus(corpus, seed=args.seed)
    print(f"tables: {len(corpus)} (train/dev/test = {splits.sizes})")
    print(format_statistics(splits_statistics(splits)))
    if args.out:
        corpus.save_jsonl(args.out)
        print(f"saved to {args.out}")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.data.shards import write_sharded_corpus
    from repro.kb.generator import WorldConfig, generate_world

    kb = generate_world(WorldConfig(seed=args.seed).scaled(args.scale))
    dataset = write_sharded_corpus(kb, synthesis_config_from_args(args),
                                   args.out, n_shards=args.shards,
                                   workers=args.workers)
    meta = dataset.metadata
    print(f"records : {len(dataset)} across {meta.extra['n_shards']} shard(s)")
    print(f"splits  : {meta.split_sizes}")
    for strategy in sorted(meta.strategy_counts):
        print(f"  {strategy:20s} {meta.strategy_counts[strategy]}")
    print(f"fingerprint: {meta.extra['fingerprint']}")
    print(f"written to {args.out}")
    return 0


def _cmd_pretrain(args: argparse.Namespace) -> int:
    from repro.config import TURLConfig
    from repro.core.context import build_context, pretrain_streaming
    from repro.core.pretrain import save_checkpoint
    from repro.data.shards import ShardedDataset, ShardFormatError
    from repro.kb.generator import WorldConfig
    from repro.obs import RunJournal

    journal = None
    if args.journal:
        try:
            journal = RunJournal(args.journal)
        except OSError as error:
            print(f"cannot open journal {args.journal}: {error}")
            return 1
    try:
        if args.corpus:
            try:
                dataset = ShardedDataset(args.corpus)
            except ShardFormatError as error:
                print(f"cannot open sharded corpus {args.corpus}: {error}")
                return 1
            model, tokenizer, entity_vocab, stats = pretrain_streaming(
                dataset, TURLConfig(), pretrain_epochs=args.epochs,
                seed=args.seed, journal=journal, sanitize=args.sanitize,
                shuffle=args.shuffle)
        else:
            context = build_context(
                WorldConfig(seed=args.seed).scaled(args.scale),
                synthesis_config_from_args(args),
                TURLConfig(), pretrain_epochs=args.epochs, seed=args.seed,
                journal=journal, sanitize=args.sanitize, shuffle=args.shuffle)
            model, tokenizer, entity_vocab = (context.model, context.tokenizer,
                                              context.entity_vocab)
            stats = context.pretrain_stats
    finally:
        if journal is not None:
            journal.close()
    print(f"steps: {len(stats.losses)}  final loss: {stats.losses[-1]:.3f}")
    print(f"wall: {stats.wall_seconds:.2f}s  "
          f"throughput: {stats.throughput:.2f} steps/s")
    save_checkpoint(args.out, model, tokenizer, entity_vocab)
    print(f"checkpoint written to {args.out}")
    if journal is not None:
        print(f"journal written to {args.journal}")
    return 0


FINETUNE_TASKS = ("column_type", "relation_extraction", "entity_linking",
                  "row_population", "schema_augmentation")


def _build_finetune_task(name: str, model, linearizer, kb, splits, seed: int):
    """Build ``(task, evaluate)`` for one fine-tuning task name.

    ``task`` is a :class:`repro.train.TrainableTask`; ``evaluate`` returns the
    task's headline test metric as ``(metric_name, value)``.
    """
    if name == "column_type":
        from repro.tasks.column_type import (TURLColumnTypeAnnotator,
                                             build_column_type_dataset)

        dataset = build_column_type_dataset(kb, splits.train, splits.validation,
                                            splits.test, min_type_instances=5)
        head = TURLColumnTypeAnnotator(model, linearizer,
                                       len(dataset.type_names), seed=seed)
        return (head.training_task(dataset),
                lambda: ("test F1", head.evaluate(dataset.test, dataset).f1))
    if name == "relation_extraction":
        from repro.tasks.relation_extraction import (TURLRelationExtractor,
                                                     build_relation_dataset)

        dataset = build_relation_dataset(kb, splits.train, splits.validation,
                                         splits.test, min_relation_instances=5)
        head = TURLRelationExtractor(model, linearizer,
                                     len(dataset.relation_names), seed=seed)
        return (head.training_task(dataset),
                lambda: ("test F1", head.evaluate(dataset.test, dataset).f1))
    if name == "entity_linking":
        from repro.kb.lookup import LookupService
        from repro.kb.schema import all_types
        from repro.tasks.entity_linking import (TURLEntityLinker,
                                                build_linking_dataset)

        lookup = LookupService(kb)
        train = build_linking_dataset(splits.train, lookup, require_truth=True)
        test = build_linking_dataset(splits.test, lookup)
        head = TURLEntityLinker(model, linearizer, kb, all_types(), seed=seed)
        return (head.training_task(train),
                lambda: ("test F1", head.evaluate(test).f1))
    if name == "row_population":
        from repro.tasks.row_population import (PopulationCandidateGenerator,
                                                TURLRowPopulator,
                                                build_population_instances)

        generator = PopulationCandidateGenerator(splits.train)
        train = build_population_instances(splits.train, n_seed=1,
                                           min_subject_entities=3)
        test = build_population_instances(splits.test, n_seed=1,
                                          min_subject_entities=3)
        head = TURLRowPopulator(model, linearizer, seed=seed)
        return (head.training_task(train, generator),
                lambda: ("test MAP",
                         head.evaluate(test, generator).primary_value))
    if name == "schema_augmentation":
        from repro.tasks.schema_augmentation import (TURLSchemaAugmenter,
                                                     build_header_vocabulary,
                                                     build_schema_instances)

        vocabulary = build_header_vocabulary(splits.train, min_tables=2)
        train = build_schema_instances(splits.train, vocabulary, n_seed=1)
        test = build_schema_instances(splits.test, vocabulary, n_seed=1)
        head = TURLSchemaAugmenter(model, linearizer, vocabulary, seed=seed)
        return (head.training_task(train),
                lambda: ("test MAP", head.evaluate(test).primary_value))
    raise ValueError(f"unknown fine-tuning task {name!r}")


def _cmd_finetune(args: argparse.Namespace) -> int:
    from repro.core.linearize import Linearizer
    from repro.core.pretrain import load_checkpoint
    from repro.data.preprocessing import filter_relational, partition_corpus
    from repro.data.synthesis import SynthesisConfig, build_corpus
    from repro.kb.generator import WorldConfig, generate_world
    from repro.obs import RunJournal
    from repro.train import Trainer, TrainSpec

    model, tokenizer, entity_vocab = load_checkpoint(args.checkpoint)
    kb = generate_world(WorldConfig(seed=args.seed).scaled(args.scale))
    corpus = filter_relational(build_corpus(
        kb, SynthesisConfig(seed=args.seed + 1, n_tables=args.tables)))
    splits = partition_corpus(corpus, seed=args.seed)
    linearizer = Linearizer(tokenizer, entity_vocab, model.config)
    task, evaluate = _build_finetune_task(args.task, model, linearizer, kb,
                                          splits, args.seed)

    # The paper's fine-tuning recipe: Adam + linear decay + gradient clipping.
    spec = TrainSpec(epochs=args.epochs, learning_rate=args.learning_rate,
                     schedule="linear", gradient_clip=model.config.gradient_clip,
                     seed=args.seed, max_items=args.max_instances,
                     sanitize=args.sanitize)
    journal = None
    if args.journal:
        try:
            journal = RunJournal(args.journal)
        except OSError as error:
            print(f"cannot open journal {args.journal}: {error}")
            return 1
    try:
        trainer = Trainer(task, spec, journal=journal)
        stats = trainer.fit()
    finally:
        if journal is not None:
            journal.close()
    print(f"task: {args.task}  steps: {stats.steps}")
    for epoch, loss in enumerate(stats.epoch_losses, start=1):
        print(f"epoch {epoch}: loss {loss:.4f}")
    metric_name, value = evaluate()
    print(f"{metric_name}: {value:.3f}")
    if args.save_state:
        trainer.save(args.save_state)
        print(f"training state written to {args.save_state}")
    if journal is not None:
        print(f"journal written to {args.journal}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.linearize import Linearizer
    from repro.core.pretrain import load_checkpoint
    from repro.data.preprocessing import filter_relational, partition_corpus
    from repro.data.synthesis import SynthesisConfig, build_corpus
    from repro.kb.generator import WorldConfig, generate_world
    from repro.obs import RunJournal
    from repro.serve import (PredictionServer, PredictorFleet,
                             build_serving_bundle)

    model, tokenizer, entity_vocab = load_checkpoint(
        args.checkpoint, mmap="auto" if args.workers > 1 else False)
    kb = generate_world(WorldConfig(seed=args.seed).scaled(args.scale))
    corpus = filter_relational(build_corpus(
        kb, SynthesisConfig(seed=args.seed + 1, n_tables=args.tables)))
    splits = partition_corpus(corpus, seed=args.seed)
    linearizer = Linearizer(tokenizer, entity_vocab, model.config)

    journal = None
    if args.journal:
        try:
            journal = RunJournal(args.journal)
        except OSError as error:
            print(f"cannot open journal {args.journal}: {error}")
            return 1
    bundle = build_serving_bundle(
        model, linearizer, kb, splits, seed=args.seed,
        finetune_epochs=args.finetune_epochs,
        finetune_max_instances=args.max_instances,
        enable_cache=not args.no_cache, cache_size=args.cache_size,
        journal=journal)
    fleet = PredictorFleet(bundle.predictor, workers=args.workers,
                           max_queue=args.max_queue,
                           max_batch_size=args.max_batch_size,
                           journal=journal)
    server = PredictionServer(fleet, host=args.host, port=args.port)
    host, port = server.address
    print(f"serving on http://{host}:{port}  "
          f"({args.workers} worker lane(s), "
          f"cache {'off' if args.no_cache else 'on'})")
    for task in bundle.predictor.tasks:
        print(f"  POST /v1/{task}")
    print("  GET  /healthz")
    print("  GET  /metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
        if journal is not None:
            journal.close()
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.core.candidates import CandidateBuilder
    from repro.core.linearize import Linearizer
    from repro.core.pretrain import evaluate_object_prediction, load_checkpoint
    from repro.data.preprocessing import filter_relational, partition_corpus
    from repro.data.synthesis import SynthesisConfig, build_corpus
    from repro.kb.generator import WorldConfig, generate_world

    model, tokenizer, entity_vocab = load_checkpoint(args.checkpoint)
    kb = generate_world(WorldConfig(seed=args.seed).scaled(args.scale))
    corpus = filter_relational(build_corpus(
        kb, SynthesisConfig(seed=args.seed + 1, n_tables=args.tables)))
    splits = partition_corpus(corpus, seed=args.seed)
    linearizer = Linearizer(tokenizer, entity_vocab, model.config)
    builder = CandidateBuilder(splits.train, entity_vocab, model.config)
    instances = [linearizer.encode(t) for t in splits.validation.tables[:args.max_tables]]
    accuracy = evaluate_object_prediction(model, builder, instances)
    print(f"object-entity recovery accuracy: {accuracy:.3f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs import format_journal_summary, read_journal, summarize_journal

    try:
        events = read_journal(args.journal)
    except OSError as error:
        print(f"cannot read journal {args.journal}: {error}")
        return 1
    except json.JSONDecodeError as error:
        print(f"journal {args.journal} is not valid JSONL: {error}")
        return 1
    if not events:
        print(f"journal {args.journal} is empty")
        return 1
    print(f"journal  : {args.journal}  ({len(events)} events)")
    print(format_journal_summary(summarize_journal(events)))
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    from repro.evaluation.registry import format_registry

    print(format_registry())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import (compare_reports, default_cases,
                             format_comparison, format_report, report_to_dict,
                             run_cases, write_report)

    baseline, per_case = None, {}
    if args.compare_to:
        # Validate the gate's inputs before spending minutes on the cases.
        try:
            with open(args.compare_to) as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read baseline {args.compare_to}: {error}")
            return 1
        if not (isinstance(baseline, dict)
                and isinstance(baseline.get("cases"), list)):
            print(f"cannot read baseline {args.compare_to}: not a bench "
                  "report (no 'cases' list)")
            return 1
        for entry in args.case_tolerance or []:
            name, _, value = entry.partition("=")
            try:
                per_case[name] = float(value)
            except ValueError:
                print(f"bad --case-tolerance {entry!r} (want NAME=FRACTION)")
                return 1
    cases = default_cases()
    if args.only:
        known = {case.name for case in cases}
        missing = [name for name in args.only if name not in known]
        if missing:
            print(f"unknown bench case(s): {', '.join(missing)}")
            print(f"available: {', '.join(sorted(known))}")
            return 1
        cases = [case for case in cases if case.name in set(args.only)]
    results = run_cases(cases, warmup=args.warmup, repeat=args.repeat,
                        progress=print)
    print(format_report(results))
    if args.json:
        write_report(args.json, args.name, results, args.warmup, args.repeat)
        print(f"report written to {args.json}")
    if baseline is not None:
        payload = report_to_dict(args.name, results, args.warmup, args.repeat)
        comparison = compare_reports(payload, baseline,
                                     tolerance=args.tolerance,
                                     per_case=per_case)
        print(format_comparison(comparison))
        if args.compare_json:
            with open(args.compare_json, "w") as handle:
                json.dump(comparison.to_dict(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            print(f"comparison written to {args.compare_json}")
        if not comparison.ok:
            return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.config import TURLConfig
    from repro.core.candidates import CandidateBuilder
    from repro.core.linearize import Linearizer
    from repro.core.model import TURLModel
    from repro.core.pretrain import Pretrainer
    from repro.data.preprocessing import filter_relational
    from repro.data.synthesis import SynthesisConfig, build_corpus
    from repro.kb.generator import WorldConfig, generate_world
    from repro.obs import format_layer_table, format_profile_tree, profile
    from repro.text.tokenizer import WordPieceTokenizer
    from repro.text.vocab import EntityVocabulary

    config = TURLConfig(num_layers=args.layers, dim=32, intermediate_dim=64,
                        num_heads=2, batch_size=8)
    kb = generate_world(WorldConfig(seed=args.seed))
    corpus = filter_relational(build_corpus(
        kb, SynthesisConfig(seed=args.seed + 1, n_tables=args.tables)))
    tokenizer = WordPieceTokenizer.train(corpus.metadata_texts(),
                                         vocab_size=1200)
    entity_vocab = EntityVocabulary.build_from_counts(corpus.entity_counts(),
                                                      min_frequency=2)
    linearizer = Linearizer(tokenizer, entity_vocab, config)
    instances = [linearizer.encode(table) for table in corpus]
    instances = instances[:args.max_tables]
    builder = CandidateBuilder(corpus, entity_vocab, config)
    model = TURLModel(len(tokenizer.vocab), len(entity_vocab), config,
                      seed=args.seed)
    pretrainer = Pretrainer(model, instances, builder, config, seed=args.seed)
    with profile(model, memory=args.memory) as profiler:
        stats = pretrainer.train(n_epochs=1)
    print(f"profiled {stats.steps} pre-training steps "
          f"over {len(instances)} tables "
          f"({config.num_layers}-layer d={config.dim} model)")
    print()
    print(format_profile_tree(profiler))
    print()
    print(format_layer_table(profiler, stats.wall_seconds, limit=args.top))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.__main__ import main as lint_main

    argv = list(args.paths)
    if args.format != "text":
        argv += ["--format", args.format]
    if args.invariants:
        argv.append("--invariants")
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="TURL reproduction CLI")
    commands = parser.add_subparsers(dest="command", required=True)

    world = commands.add_parser("world", help="generate a synthetic world")
    world.add_argument("--seed", type=int, default=1)
    world.add_argument("--scale", type=float, default=1.0)
    world.add_argument("--out", default=None)
    world.set_defaults(handler=_cmd_world)

    corpus = commands.add_parser("corpus", help="synthesize a table corpus")
    add_synthesis_arguments(corpus)
    corpus.add_argument("--out", default=None)
    corpus.set_defaults(handler=_cmd_corpus)

    synthesize = commands.add_parser(
        "synthesize", help="write a sharded memory-mappable corpus")
    add_synthesis_arguments(synthesize)
    synthesize.add_argument("--out", required=True,
                            help="directory for meta.json/index.bin/shard-*.bin")
    synthesize.add_argument("--shards", type=int, default=4,
                            help="number of payload shards")
    synthesize.add_argument("--workers", type=int, default=1,
                            help="parallel synthesis processes; output bytes "
                                 "are identical for any worker count")
    synthesize.set_defaults(handler=_cmd_synthesize)

    pretrain = commands.add_parser("pretrain", help="pre-train a TURL model")
    add_synthesis_arguments(pretrain)
    pretrain.add_argument("--corpus", default=None, metavar="DIR",
                          help="stream from a `synthesize --out DIR` sharded "
                               "corpus instead of synthesizing in-process "
                               "(synthesis flags are then ignored)")
    pretrain.add_argument("--epochs", type=int, default=8)
    pretrain.add_argument("--out", required=True)
    pretrain.add_argument("--journal", default=None,
                          help="write a JSONL run journal to this path")
    pretrain.add_argument("--sanitize", action="store_true",
                          help="run steps under the autograd sanitizer")
    pretrain.add_argument("--shuffle", choices=("flat", "bucket", "shard"),
                          default="flat",
                          help="epoch order: flat (bit-identical historical "
                               "order), bucket (length-bucketed batches, "
                               "no padding waste) or shard (shard-local "
                               "bucketing; pairs with --corpus)")
    pretrain.set_defaults(handler=_cmd_pretrain)

    finetune = commands.add_parser(
        "finetune", help="fine-tune a pre-trained checkpoint on a task")
    finetune.add_argument("--task", required=True, choices=FINETUNE_TASKS)
    finetune.add_argument("--checkpoint", required=True,
                          help="directory written by `pretrain --out`")
    finetune.add_argument("--seed", type=int, default=1)
    finetune.add_argument("--scale", type=float, default=1.0)
    finetune.add_argument("--tables", type=int, default=300)
    finetune.add_argument("--epochs", type=int, default=3)
    finetune.add_argument("--learning-rate", type=float, default=1e-3)
    finetune.add_argument("--max-instances", type=int, default=None,
                          help="subsample the training set (whole tables)")
    finetune.add_argument("--journal", default=None,
                          help="write a JSONL run journal to this path")
    finetune.add_argument("--save-state", default=None,
                          help="write a resumable training checkpoint here")
    finetune.add_argument("--sanitize", action="store_true",
                          help="run steps under the autograd sanitizer")
    finetune.set_defaults(handler=_cmd_finetune)

    serve = commands.add_parser(
        "serve", help="serve all six task heads over JSON HTTP")
    serve.add_argument("--checkpoint", required=True,
                       help="directory written by `pretrain --out`")
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--scale", type=float, default=1.0)
    serve.add_argument("--tables", type=int, default=300)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="0 picks an ephemeral port")
    serve.add_argument("--finetune-epochs", type=int, default=0,
                       help="fine-tune each trainable head this many epochs "
                            "before serving (0 = serve pre-trained weights)")
    serve.add_argument("--max-instances", type=int, default=None,
                       help="subsample each task's fine-tuning set")
    serve.add_argument("--workers", type=int, default=1,
                       help="serving lanes; >1 routes requests by "
                            "table-content key over cache-partitioned "
                            "lanes (memory-mapped weights when the "
                            "checkpoint allows)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="per-lane bound on queued instances; a request "
                            "arriving at a full lane gets a 429")
    serve.add_argument("--max-batch-size", type=int, default=8,
                       help="most instances a lane coalesces into one batch "
                            "(a larger request runs whole)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the shared encode cache")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="encode-cache capacity (distinct batches)")
    serve.add_argument("--journal", default=None,
                       help="write serve_request events to this JSONL path")
    serve.set_defaults(handler=_cmd_serve)

    probe = commands.add_parser("probe", help="run the recovery probe")
    probe.add_argument("--checkpoint", required=True)
    probe.add_argument("--seed", type=int, default=1)
    probe.add_argument("--scale", type=float, default=1.0)
    probe.add_argument("--tables", type=int, default=300)
    probe.add_argument("--max-tables", type=int, default=25)
    probe.set_defaults(handler=_cmd_probe)

    report = commands.add_parser("report", help="summarize a run journal")
    report.add_argument("--journal", required=True)
    report.set_defaults(handler=_cmd_report)

    registry = commands.add_parser("registry", help="print the experiment index")
    registry.set_defaults(handler=_cmd_registry)

    bench = commands.add_parser(
        "bench", help="run the hot-path benchmark suite")
    bench.add_argument("--warmup", type=int, default=1,
                       help="untimed repetitions before measuring")
    bench.add_argument("--repeat", type=int, default=3,
                       help="timed repetitions per case (best is reported)")
    bench.add_argument("--only", nargs="*", default=None,
                       help="run only these case names")
    bench.add_argument("--name", default="dev",
                       help="bench name recorded in the JSON report")
    bench.add_argument("--json", default=None,
                       help="write a BENCH_<name>.json report to this path")
    bench.add_argument("--compare-to", default=None,
                       help="diff this run against a committed BENCH_*.json "
                            "baseline; exit non-zero on regression")
    bench.add_argument("--tolerance", type=float, default=0.05,
                       help="allowed fractional regression per case "
                            "(default 0.05 = 5%%)")
    bench.add_argument("--case-tolerance", action="append", default=None,
                       metavar="NAME=FRACTION",
                       help="override the tolerance for one case, e.g. "
                            "pretrain_steps=0.02 (repeatable); "
                            "sub-millisecond kernels need wider bands "
                            "than end-to-end cases")
    bench.add_argument("--compare-json", default=None,
                       help="also write the comparison verdict as JSON")
    bench.set_defaults(handler=_cmd_bench)

    prof = commands.add_parser(
        "profile", help="per-layer forward/backward cost of a small "
                        "pre-training run")
    prof.add_argument("--seed", type=int, default=7)
    prof.add_argument("--tables", type=int, default=120,
                      help="corpus size to synthesize")
    prof.add_argument("--max-tables", type=int, default=24,
                      help="tables actually trained on (one epoch)")
    prof.add_argument("--layers", type=int, default=2)
    prof.add_argument("--memory", action="store_true",
                      help="also attribute peak traced-allocation bytes "
                           "per layer (tracemalloc)")
    prof.add_argument("--top", type=int, default=0,
                      help="limit the flat table to the N costliest layers")
    prof.set_defaults(handler=_cmd_profile)

    lint = commands.add_parser("lint", help="run the repo's static analyzer")
    lint.add_argument("paths", nargs="*", default=["src"])
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--invariants", action="store_true",
                      help="also run runtime structural invariant checks")
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
