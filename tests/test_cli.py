"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_world_command(capsys, tmp_path):
    out = str(tmp_path / "kb.json")
    assert main(["world", "--seed", "3", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "entities" in captured
    assert "facts" in captured
    import os
    assert os.path.exists(out)


def test_corpus_command(capsys, tmp_path):
    out = str(tmp_path / "corpus.jsonl")
    assert main(["corpus", "--seed", "3", "--tables", "40", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "train/dev/test" in captured
    from repro.data.corpus import TableCorpus
    assert len(TableCorpus.load_jsonl(out)) > 0


def test_registry_command(capsys):
    assert main(["registry"]) == 0
    captured = capsys.readouterr().out
    assert "Table 4" in captured
    assert "Figure 7b" in captured


def test_pretrain_and_probe_commands(capsys, tmp_path):
    checkpoint = str(tmp_path / "ckpt")
    assert main(["pretrain", "--seed", "3", "--tables", "40", "--epochs", "1",
                 "--out", checkpoint]) == 0
    assert main(["probe", "--checkpoint", checkpoint, "--seed", "3",
                 "--tables", "40", "--max-tables", "5"]) == 0
    captured = capsys.readouterr().out
    assert "recovery accuracy" in captured
    assert "throughput" in captured


def test_pretrain_journal_and_report_commands(capsys, tmp_path):
    from repro.obs import read_journal

    checkpoint = str(tmp_path / "ckpt")
    journal = str(tmp_path / "run.jsonl")
    assert main(["pretrain", "--seed", "3", "--tables", "40", "--epochs", "1",
                 "--out", checkpoint, "--journal", journal]) == 0
    events = read_journal(journal)
    kinds = [event["event"] for event in events]
    assert kinds[0] == "header"
    assert "step" in kinds
    assert kinds[-1] == "probe"

    assert main(["report", "--journal", journal]) == 0
    captured = capsys.readouterr().out
    assert "steps/s" in captured
    assert "forward" in captured
    assert "backward" in captured
    assert "optimizer" in captured
    assert "probe" in captured


def test_finetune_command(capsys, tmp_path):
    from repro.obs import read_journal

    checkpoint = str(tmp_path / "ckpt")
    journal = str(tmp_path / "finetune.jsonl")
    state = str(tmp_path / "state")
    assert main(["pretrain", "--seed", "3", "--tables", "40", "--epochs", "1",
                 "--out", checkpoint]) == 0
    assert main(["finetune", "--task", "schema_augmentation",
                 "--checkpoint", checkpoint, "--seed", "3", "--tables", "40",
                 "--epochs", "1", "--max-instances", "10",
                 "--journal", journal, "--save-state", state]) == 0
    captured = capsys.readouterr().out
    assert "task: schema_augmentation" in captured
    assert "epoch 1" in captured
    assert "test MAP" in captured

    events = read_journal(journal)
    kinds = [event["event"] for event in events]
    assert kinds[0] == "header"
    assert "step" in kinds
    assert events[0]["task"] == "task/schema_augmentation"

    import os
    assert os.path.exists(os.path.join(state, "trainer.json"))
    assert os.path.exists(os.path.join(state, "optimizer.npz"))


def test_finetune_rejects_unknown_task(tmp_path):
    with pytest.raises(SystemExit):
        main(["finetune", "--task", "nope", "--checkpoint", "x"])


def test_report_empty_journal_fails(tmp_path, capsys):
    journal = str(tmp_path / "empty.jsonl")
    open(journal, "w").close()
    assert main(["report", "--journal", journal]) == 1
    assert "empty" in capsys.readouterr().out


def test_bench_command_writes_report(capsys, tmp_path):
    import json

    out = str(tmp_path / "BENCH_test.json")
    assert main(["bench", "--warmup", "0", "--repeat", "1",
                 "--only", "visibility_construct",
                 "--name", "test", "--json", out]) == 0
    captured = capsys.readouterr().out
    assert "visibility_construct" in captured
    assert "speedup" in captured
    with open(out) as handle:
        payload = json.load(handle)
    assert payload["bench"] == "test"
    assert payload["cases"][0]["name"] == "visibility_construct"
    assert payload["cases"][0]["speedup"] > 1.0


def test_bench_command_rejects_unknown_case(capsys):
    assert main(["bench", "--only", "nope"]) == 1
    assert "unknown bench case" in capsys.readouterr().out


@pytest.fixture
def tiny_bench(monkeypatch):
    """Register one millisecond-scale case in place of the default suite.

    The gate plumbing does not need the full-size cases; CI's bench-gate
    job still runs those against the committed baseline.  Returns the
    list of case names whose ``run`` executed, in order."""
    from repro.bench import BenchCase

    ran = []

    def run(_):
        ran.append("tiny_sum")
        return float(sum(range(200_000)))

    def reference(_):
        total = 0
        for value in range(200_000):
            total += value
        return float(total)

    case = BenchCase(name="tiny_sum", setup=lambda: None, run=run,
                     reference=reference, unit="sums",
                     description="builtin sum vs. a Python loop")
    monkeypatch.setattr("repro.bench.default_cases", lambda: [case])
    return ran


def test_bench_compare_gate(capsys, tmp_path, tiny_bench):
    import json

    out = str(tmp_path / "BENCH_run.json")
    assert main(["bench", "--warmup", "0", "--repeat", "1",
                 "--only", "tiny_sum",
                 "--name", "run", "--json", out]) == 0
    capsys.readouterr()
    # comparing a run against itself passes and writes the verdict JSON
    # (wide tolerance: this asserts the compare plumbing, not the
    # run-to-run stability of a best-of-1 millisecond measurement)
    verdict = str(tmp_path / "comparison.json")
    assert main(["bench", "--warmup", "0", "--repeat", "1",
                 "--only", "tiny_sum", "--name", "again",
                 "--compare-to", out, "--tolerance", "0.9",
                 "--compare-json", verdict]) == 0
    captured = capsys.readouterr().out
    assert "bench compare: again vs baseline run" in captured
    with open(verdict) as handle:
        assert json.load(handle)["cases"][0]["name"] == "tiny_sum"
    # an impossible baseline regresses -> exit 1 (the CI gate contract)
    doctored = json.load(open(out))
    doctored["cases"][0]["speedup"] *= 100.0
    rigged = str(tmp_path / "BENCH_rigged.json")
    json.dump(doctored, open(rigged, "w"))
    assert main(["bench", "--warmup", "0", "--repeat", "1",
                 "--only", "tiny_sum",
                 "--compare-to", rigged]) == 1
    assert "REGRESS" in capsys.readouterr().out
    # ... unless a per-case tolerance grants the headroom
    assert main(["bench", "--warmup", "0", "--repeat", "1",
                 "--only", "tiny_sum", "--compare-to", rigged,
                 "--case-tolerance", "tiny_sum=0.999"]) == 0
    # malformed NAME=FRACTION entries fail fast, before any case runs
    runs = len(tiny_bench)
    assert main(["bench", "--warmup", "0", "--repeat", "1",
                 "--only", "tiny_sum", "--compare-to", out,
                 "--case-tolerance", "tiny_sum=lots"]) == 1
    assert "bad --case-tolerance" in capsys.readouterr().out
    assert len(tiny_bench) == runs


def test_bench_compare_unreadable_baseline(capsys, tmp_path, tiny_bench):
    assert main(["bench", "--warmup", "0", "--repeat", "1",
                 "--only", "tiny_sum",
                 "--compare-to", str(tmp_path / "missing.json")]) == 1
    assert "cannot read baseline" in capsys.readouterr().out
    not_a_report = tmp_path / "list.json"
    not_a_report.write_text("[1, 2, 3]")
    assert main(["bench", "--only", "tiny_sum",
                 "--compare-to", str(not_a_report)]) == 1
    assert "not a bench report" in capsys.readouterr().out
    assert tiny_bench == []  # the baseline is checked before any case runs


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve", "--checkpoint", "ckpt"])
    assert args.handler is not None
    assert (args.host, args.port) == ("127.0.0.1", 8080)
    assert (args.workers, args.max_queue, args.max_batch_size) == (1, 64, 8)
    assert args.no_cache is False and args.cache_size == 256
    assert args.finetune_epochs == 0


def test_serve_requires_checkpoint():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve"])


def test_pretrain_bucket_shuffle(capsys, tmp_path):
    checkpoint = str(tmp_path / "ckpt")
    assert main(["pretrain", "--seed", "3", "--tables", "40", "--epochs", "1",
                 "--out", checkpoint, "--shuffle", "bucket"]) == 0
    assert "throughput" in capsys.readouterr().out


def test_synthesize_command(capsys, tmp_path):
    corpus = str(tmp_path / "corpus")
    assert main(["synthesize", "--seed", "3", "--tables", "40",
                 "--shards", "2", "--workers", "2", "--out", corpus]) == 0
    captured = capsys.readouterr().out
    assert "across 2 shard(s)" in captured
    assert "splits" in captured
    assert "fingerprint" in captured

    from repro.data.shards import ShardedDataset
    dataset = ShardedDataset(corpus)
    assert len(dataset) > 0
    assert dataset.metadata.extra["n_shards"] == 2


def test_pretrain_from_sharded_corpus(capsys, tmp_path):
    corpus = str(tmp_path / "corpus")
    checkpoint = str(tmp_path / "ckpt")
    assert main(["synthesize", "--seed", "3", "--tables", "40",
                 "--shards", "2", "--out", corpus]) == 0
    assert main(["pretrain", "--corpus", corpus, "--epochs", "1",
                 "--shuffle", "shard", "--out", checkpoint]) == 0
    captured = capsys.readouterr().out
    assert "throughput" in captured
    assert main(["probe", "--checkpoint", checkpoint, "--seed", "3",
                 "--tables", "20", "--max-tables", "5"]) == 0
    assert "recovery accuracy" in capsys.readouterr().out


def test_pretrain_rejects_a_broken_corpus(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["pretrain", "--corpus", str(empty), "--epochs", "1",
                 "--out", str(tmp_path / "ckpt")]) == 1
    assert "not a shard directory" in capsys.readouterr().out
