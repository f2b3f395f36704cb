"""JSONL journal round-trip and the report summarizer."""

import json
import sys
import threading

import pytest

from repro.obs import (
    EVENT_HEADER,
    EVENT_PROBE,
    EVENT_STEP,
    RunJournal,
    format_journal_summary,
    read_journal,
    summarize_journal,
)


def _write_run(path, n_steps=4):
    with RunJournal(str(path)) as journal:
        journal.header(config={"dim": 32, "num_layers": 2}, seed=7)
        for step in range(1, n_steps + 1):
            journal.step(step, loss=10.0 - step, mlm=5.0, mer=4.0 - step / 2,
                         lr=1e-3 / step, grad_norm=2.0, tokens=200,
                         seconds=0.5, tokens_per_second=400.0,
                         forward_seconds=0.3, backward_seconds=0.15,
                         optimizer_seconds=0.05)
        journal.probe(n_steps, accuracy=0.25, seconds=0.1)
    return str(path)


def test_journal_round_trip(tmp_path):
    path = _write_run(tmp_path / "run.jsonl")
    events = read_journal(path)
    assert [e["event"] for e in events] == (
        [EVENT_HEADER] + [EVENT_STEP] * 4 + [EVENT_PROBE])
    assert events[0]["config"]["dim"] == 32
    assert events[0]["seed"] == 7
    assert events[1]["step"] == 1
    assert events[-1]["accuracy"] == 0.25
    # Every line of the file is independently parseable JSON.
    with open(path) as handle:
        for line in handle:
            assert json.loads(line)["event"] in (EVENT_HEADER, EVENT_STEP,
                                                 EVENT_PROBE)


def test_header_written_once(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunJournal(path) as journal:
        journal.header(config={"dim": 32}, seed=1)
        journal.header(config={"dim": 64}, seed=2)
    events = read_journal(path)
    assert len(events) == 1
    assert events[0]["config"]["dim"] == 32


def test_write_after_close_raises(tmp_path):
    journal = RunJournal(str(tmp_path / "run.jsonl"))
    journal.close()
    with pytest.raises(ValueError):
        journal.step(1, loss=1.0)


def test_concurrent_writers_never_interleave_lines(tmp_path):
    """Serving handler threads and lanes share one journal."""
    path = str(tmp_path / "shared.jsonl")
    payload = "x" * 512  # long lines widen the window for a torn write
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with RunJournal(path) as journal:
            def write(writer):
                for index in range(500):
                    journal.event("serve_request", writer=writer,
                                  index=index, payload=payload)

            threads = [threading.Thread(target=write, args=(writer,))
                       for writer in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert journal.n_events == 4000
    finally:
        sys.setswitchinterval(interval)
    with open(path) as handle:
        lines = handle.read().splitlines()
    events = [json.loads(line) for line in lines]  # every line parses
    assert len(events) == 4000
    for writer in range(8):
        assert [e["index"] for e in events if e["writer"] == writer] == \
            list(range(500))


def test_summary_math(tmp_path):
    events = read_journal(_write_run(tmp_path / "run.jsonl"))
    summary = summarize_journal(events)
    assert summary.n_steps == 4
    assert summary.first_loss == pytest.approx(9.0)
    assert summary.last_loss == pytest.approx(6.0)
    assert summary.mean_loss == pytest.approx(7.5)
    assert summary.wall_seconds == pytest.approx(2.0)
    assert summary.steps_per_second == pytest.approx(2.0)
    assert summary.tokens_per_second == pytest.approx(400.0)
    assert summary.final_lr == pytest.approx(1e-3 / 4)
    assert summary.phases["forward"].count == 4
    assert summary.phases["forward"].total_seconds == pytest.approx(1.2)
    assert summary.phases["backward"].mean_seconds == pytest.approx(0.15)
    assert summary.probe_steps == [4]
    assert summary.probe_accuracies == [0.25]


def test_format_summary_mentions_phases_and_probe(tmp_path):
    events = read_journal(_write_run(tmp_path / "run.jsonl"))
    text = format_journal_summary(summarize_journal(events))
    for needle in ("steps", "loss", "forward", "backward", "optimizer",
                   "probe", "seed=7"):
        assert needle in text


def test_summarize_empty_journal(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    RunJournal(path).close()
    summary = summarize_journal(read_journal(path))
    assert summary.n_steps == 0
    assert summary.first_loss is None
    assert "steps    : 0" in format_journal_summary(summary)
