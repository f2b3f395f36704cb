"""JSONL run journal.

A :class:`RunJournal` appends one JSON object per line to a file: a single
``header`` event carrying the run configuration and seed, one ``step``
event per optimization step (losses, learning rate, gradient norm,
tokens/sec, per-phase seconds) and one ``probe`` event per evaluation
probe.  The file is append-only and flushed per event, so a crashed run
still leaves a readable prefix, and it can be replayed later for
convergence plots or the ``repro.cli report`` summary.

:func:`read_journal` parses a journal back into event dictionaries and
:func:`summarize_journal` / :func:`format_journal_summary` reduce one to
the loss/throughput/per-phase report printed by the CLI.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Sequence

from repro.obs.clock import wall_time
from repro.obs.metrics import percentile

EVENT_HEADER = "header"
EVENT_STEP = "step"
EVENT_PROBE = "probe"
EVENT_TRACE = "trace"
EVENT_REQUEST = "http_request"

PHASES = ("forward", "backward", "optimizer")


class RunJournal:
    """Append-only JSONL event log for one training / evaluation run.

    :meth:`event` is thread-safe: serving handler threads and lanes write
    to one journal concurrently, one whole line per event."""

    def __init__(self, path: str):
        self.path = path
        self._handle: Optional[IO[str]] = open(path, "w")
        self._lock = threading.Lock()
        self._header_written = False
        self.n_events = 0

    # -- writers -----------------------------------------------------------
    def event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the record that was written."""
        record: Dict[str, Any] = {"event": kind, "time": wall_time()}
        record.update(fields)
        line = json.dumps(record) + "\n"
        with self._lock:
            if self._handle is None:
                raise ValueError(f"journal {self.path} is closed")
            self._handle.write(line)
            self._handle.flush()
            self.n_events += 1
        return record

    def header(self, config: Optional[Dict[str, Any]] = None,
               seed: Optional[int] = None, **fields: Any) -> None:
        """Write the run-header event once; later calls are ignored."""
        if self._header_written:
            return
        self._header_written = True
        self.event(EVENT_HEADER, config=config or {}, seed=seed, **fields)

    def step(self, step: int, **fields: Any) -> None:
        self.event(EVENT_STEP, step=step, **fields)

    def probe(self, step: int, accuracy: float, **fields: Any) -> None:
        self.event(EVENT_PROBE, step=step, accuracy=accuracy, **fields)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL journal back into a list of event dictionaries."""
    events: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


@dataclass
class PhaseTiming:
    """Per-phase (forward/backward/optimizer) timing aggregate."""

    count: int = 0
    total_seconds: float = 0.0
    p50_seconds: float = 0.0
    p95_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class JournalSummary:
    """Loss / throughput / per-phase reduction of one run journal."""

    n_steps: int = 0
    wall_seconds: float = 0.0
    steps_per_second: float = 0.0
    tokens_per_second: float = 0.0
    first_loss: Optional[float] = None
    last_loss: Optional[float] = None
    mean_loss: float = 0.0
    mean_mlm_loss: float = 0.0
    mean_mer_loss: float = 0.0
    final_lr: Optional[float] = None
    phases: Dict[str, PhaseTiming] = field(default_factory=dict)
    probe_steps: List[int] = field(default_factory=list)
    probe_accuracies: List[float] = field(default_factory=list)
    header: Optional[Dict[str, Any]] = None


def summarize_journal(events: Sequence[Dict[str, Any]]) -> JournalSummary:
    """Reduce journal events to the summary behind ``repro.cli report``."""
    summary = JournalSummary()
    steps = [e for e in events if e.get("event") == EVENT_STEP]
    probes = [e for e in events if e.get("event") == EVENT_PROBE]
    headers = [e for e in events if e.get("event") == EVENT_HEADER]
    if headers:
        summary.header = headers[0]

    summary.n_steps = len(steps)
    if steps:
        losses = [float(e.get("loss", 0.0)) for e in steps]
        summary.first_loss = losses[0]
        summary.last_loss = losses[-1]
        summary.mean_loss = sum(losses) / len(losses)
        summary.mean_mlm_loss = sum(float(e.get("mlm", 0.0)) for e in steps) / len(steps)
        summary.mean_mer_loss = sum(float(e.get("mer", 0.0)) for e in steps) / len(steps)
        summary.wall_seconds = sum(float(e.get("seconds", 0.0)) for e in steps)
        if summary.wall_seconds > 0:
            summary.steps_per_second = summary.n_steps / summary.wall_seconds
            total_tokens = sum(float(e.get("tokens", 0.0)) for e in steps)
            summary.tokens_per_second = total_tokens / summary.wall_seconds
        last_lr = steps[-1].get("lr")
        summary.final_lr = float(last_lr) if last_lr is not None else None
        for phase in PHASES:
            key = f"{phase}_seconds"
            samples = [float(e[key]) for e in steps if key in e]
            if samples:
                summary.phases[phase] = PhaseTiming(
                    count=len(samples),
                    total_seconds=sum(samples),
                    p50_seconds=percentile(samples, 50),
                    p95_seconds=percentile(samples, 95),
                )

    summary.probe_steps = [int(e.get("step", 0)) for e in probes]
    summary.probe_accuracies = [float(e.get("accuracy", 0.0)) for e in probes]
    return summary


def format_journal_summary(summary: JournalSummary) -> str:
    """Plain-text report (``repro.evaluation.reporting`` style)."""
    lines: List[str] = []
    if summary.header is not None:
        seed = summary.header.get("seed")
        config = summary.header.get("config") or {}
        described = " ".join(f"{k}={config[k]}" for k in sorted(config)
                             if isinstance(config[k], (int, float, str, bool)))
        lines.append(f"run      : seed={seed} {described}".rstrip())
    lines.append(f"steps    : {summary.n_steps}  wall {summary.wall_seconds:.2f}s  "
                 f"{summary.steps_per_second:.2f} steps/s  "
                 f"{summary.tokens_per_second:.0f} tokens/s")
    if summary.first_loss is not None:
        lines.append(f"loss     : first {summary.first_loss:.4f}  "
                     f"last {summary.last_loss:.4f}  mean {summary.mean_loss:.4f}  "
                     f"(mlm {summary.mean_mlm_loss:.4f}, mer {summary.mean_mer_loss:.4f})")
    if summary.final_lr is not None:
        lines.append(f"final lr : {summary.final_lr:.6g}")
    if summary.phases:
        lines.append(f"{'Phase':12s}{'Count':>8s}{'Total s':>12s}"
                     f"{'Mean s':>12s}{'P50 s':>12s}{'P95 s':>12s}")
        for phase in PHASES:
            timing = summary.phases.get(phase)
            if timing is None:
                continue
            lines.append(f"{phase:12s}{timing.count:8d}{timing.total_seconds:12.4f}"
                         f"{timing.mean_seconds:12.4f}{timing.p50_seconds:12.4f}"
                         f"{timing.p95_seconds:12.4f}")
    for step, accuracy in zip(summary.probe_steps, summary.probe_accuracies):
        lines.append(f"probe    : step {step}  accuracy {accuracy:.3f}")
    return "\n".join(lines)
