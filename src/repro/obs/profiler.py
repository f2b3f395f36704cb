"""Opt-in per-layer profiler over the ``repro.nn`` module tree.

:class:`LayerProfiler` installs itself into the two hook points exported by
:mod:`repro.nn.hooks`:

- the **forward hook** wraps every ``Module.__call__``, attributing wall
  time to the module's slash path (``model/encoder/blocks/3/attention``)
  with both *cumulative* (including children) and *self* (children
  subtracted) seconds, plus — when ``memory=True`` — the peak traced
  allocation bytes observed while the layer ran (``tracemalloc`` windows,
  which include NumPy ndarray buffers);
- the **tape hook** tags every autograd tape node with the layer that
  created it and times each backward closure, so ``loss.backward()`` cost
  is attributed to the same per-layer paths.

The profiler only reads the monotonic clock (through the
:mod:`repro.obs.clock` gateway) and the allocation counters — never a
random number generator — so seeded results are bit-identical with
profiling on or off.

Rendering: :func:`format_profile_tree` prints a flame-style indented tree
in model definition order; :func:`format_layer_table` prints a flat table
sorted by cumulative forward time, as shares of the run's measured wall
time with an ``unattributed`` remainder row.  ``repro.cli profile`` drives
both over a small pre-training run.
"""

from __future__ import annotations

import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.obs.clock import perf_counter


@dataclass
class LayerStats:
    """Accumulated cost for one module path."""

    path: str
    depth: int
    calls: int = 0
    #: forward wall seconds including children
    forward_seconds: float = 0.0
    #: forward wall seconds with instrumented children subtracted
    forward_self_seconds: float = 0.0
    #: backward wall seconds for tape nodes this layer created
    backward_seconds: float = 0.0
    #: number of tape-node backward closures attributed to this layer
    backward_ops: int = 0
    #: peak traced allocation bytes while this layer was on the stack
    peak_bytes: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "calls": self.calls,
            "forward_seconds": self.forward_seconds,
            "forward_self_seconds": self.forward_self_seconds,
            "backward_seconds": self.backward_seconds,
            "backward_ops": self.backward_ops,
            "peak_bytes": self.peak_bytes,
        }


class _Frame:
    """One open ``Module.__call__`` on the per-thread stack."""

    __slots__ = ("path", "start", "child_seconds", "mem_peak")

    def __init__(self, path: str, start: float):
        self.path = path
        self.start = start
        self.child_seconds = 0.0
        #: running max of tracemalloc windows belonging to this frame
        self.mem_peak = 0


class LayerProfiler:
    """Attributes forward/backward time and peak memory per layer path.

    ``install(model)`` maps every submodule to its path and claims the
    global forward/tape hooks; ``uninstall()`` (or the ``with profile(...)``
    helper) releases them.  Safe to drive models from several threads at
    once — the frame stack is thread-local and the stats table is
    lock-protected — but only one profiler may be installed at a time.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self._paths: Dict[int, str] = {}
        self._order: List[str] = []
        self._stats: Dict[str, LayerStats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed = False
        self._started_tracemalloc = False

    # -- lifecycle ---------------------------------------------------------
    def install(self, root: Any, name: str = "model") -> "LayerProfiler":
        """Instrument ``root`` (a ``repro.nn`` Module tree) under ``name``."""
        from repro.nn.hooks import FORWARD_HOOK, TAPE_HOOK

        if self._installed:
            raise RuntimeError("profiler is already installed")
        for dotted, module in root.named_modules():
            path = name if not dotted else f"{name}/{dotted.replace('.', '/')}"
            self._paths[id(module)] = path
            self._order.append(path)
            self._stats[path] = LayerStats(path, depth=path.count("/"))
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        FORWARD_HOOK.install(self._enter, self._exit)
        TAPE_HOOK.install(self._tag, self._run_backward)
        self._installed = True
        return self

    def uninstall(self) -> None:
        from repro.nn.hooks import FORWARD_HOOK, TAPE_HOOK

        if not self._installed:
            return
        FORWARD_HOOK.uninstall()
        TAPE_HOOK.uninstall()
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False
        self._installed = False

    # -- forward hook ------------------------------------------------------
    def _stack(self) -> List[Optional[_Frame]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _enter(self, module: Any) -> None:
        stack = self._stack()
        path = self._paths.get(id(module))
        if path is None:
            # A module outside the instrumented tree (e.g. another model on
            # this thread): transparent — its time folds into the caller.
            stack.append(None)
            return
        if self.memory:
            # Close the parent's current tracemalloc window before opening
            # ours, so each frame's windows cover exactly its self regions.
            window_peak = tracemalloc.get_traced_memory()[1]
            for frame in reversed(stack):
                if frame is not None:
                    if window_peak > frame.mem_peak:
                        frame.mem_peak = window_peak
                    break
            tracemalloc.reset_peak()
        stack.append(_Frame(path, perf_counter()))

    def _exit(self, module: Any) -> None:
        stack = self._stack()
        frame = stack.pop()
        if frame is None:
            return
        elapsed = perf_counter() - frame.start
        peak = 0
        if self.memory:
            window_peak = tracemalloc.get_traced_memory()[1]
            peak = max(frame.mem_peak, window_peak)
            tracemalloc.reset_peak()
        for parent in reversed(stack):
            if parent is not None:
                parent.child_seconds += elapsed
                if peak > parent.mem_peak:
                    parent.mem_peak = peak
                break
        with self._lock:
            stats = self._stats[frame.path]
            stats.calls += 1
            stats.forward_seconds += elapsed
            stats.forward_self_seconds += max(0.0, elapsed - frame.child_seconds)
            if peak > stats.peak_bytes:
                stats.peak_bytes = peak

    # -- tape hook ---------------------------------------------------------
    def _tag(self) -> Optional[str]:
        stack = getattr(self._local, "stack", None)
        if stack:
            frame = stack[-1]
            if frame is not None:
                return frame.path
        return None

    def _run_backward(self, tag: str, backward_fn: Callable, grad: Any) -> None:
        start = perf_counter()
        backward_fn(grad)
        elapsed = perf_counter() - start
        with self._lock:
            stats = self._stats.get(tag)
            if stats is not None:
                stats.backward_seconds += elapsed
                stats.backward_ops += 1

    # -- reductions --------------------------------------------------------
    def stats(self) -> Dict[str, LayerStats]:
        """Snapshot of the per-path stats table."""
        with self._lock:
            return dict(self._stats)

    def active_paths(self) -> List[str]:
        """Paths that ran at least once, in model definition order."""
        stats = self.stats()
        return [path for path in self._order
                if stats[path].calls or stats[path].backward_ops]

    def top_paths(self) -> List[str]:
        """Top-most paths that ran: no instrumented ancestor ran.

        A model driven through a method that bypasses ``Module.__call__``
        (``TURLModel.encode``) never enters its root path, so its top-most
        rows are children such as ``model/encoder``.
        """
        stats = self.stats()
        ran = {path for path in self._order if stats[path].calls}
        return [path for path in self._order if path in ran
                and not any(path.startswith(other + "/") for other in ran)]

    def total_forward_seconds(self) -> float:
        """Cumulative forward seconds of the top-most paths that ran."""
        stats = self.stats()
        return sum(stats[path].forward_seconds for path in self.top_paths())

    def total_backward_seconds(self) -> float:
        """Backward seconds attributed to any layer (self time, so the
        per-path values add without double counting)."""
        return sum(s.backward_seconds for s in self.stats().values())

    def to_dict(self) -> Dict[str, Any]:
        stats = self.stats()
        return {"memory": self.memory,
                "layers": [stats[p].to_dict() for p in self.active_paths()]}


def _mb(n_bytes: int) -> str:
    return f"{n_bytes / 1e6:10.2f}" if n_bytes else f"{'-':>10s}"


def _name_width(labels: Iterable[str]) -> int:
    """Name column wide enough for every printed label plus a gap."""
    return max(len(label) for label in labels) + 2


def format_profile_tree(profiler: LayerProfiler) -> str:
    """Flame-style tree: indentation mirrors the module hierarchy, each row
    shows cumulative and self forward seconds, backward seconds, calls."""
    stats = profiler.stats()
    rows = [(stats[path], "  " * stats[path].depth + path.rsplit("/", 1)[-1])
            for path in profiler.active_paths()]
    name_width = _name_width(["Layer"] + [label for _, label in rows])
    header = (f"{'Layer':{name_width}s}{'Calls':>7s}{'Fwd s':>10s}"
              f"{'Self s':>10s}{'Bwd s':>10s}")
    if profiler.memory:
        header += f"{'Peak MB':>10s}"
    lines = [header]
    for s, label in rows:
        row = (f"{label:{name_width}s}{s.calls:7d}{s.forward_seconds:10.4f}"
               f"{s.forward_self_seconds:10.4f}{s.backward_seconds:10.4f}")
        if profiler.memory:
            row += _mb(s.peak_bytes)
        lines.append(row)
    return "\n".join(lines)


def format_layer_table(profiler: LayerProfiler, wall_seconds: float,
                       limit: int = 0) -> str:
    """Flat per-layer table sorted by cumulative forward seconds.

    ``Fwd %`` is each layer's share of ``wall_seconds``, the measured wall
    time of the profiled run.  A closing ``unattributed`` row holds the
    wall time outside every top-level forward and attributed backward
    (collate, masking, loss, optimizer, ...), so the top-level rows'
    ``Fwd %``, the backward share and ``unattributed`` add up to 100.
    """
    stats = profiler.stats()
    ordered = sorted((stats[p] for p in profiler.active_paths()),
                     key=lambda s: s.forward_seconds, reverse=True)
    if limit:
        ordered = ordered[:limit]
    name_width = _name_width(["Layer", "unattributed"]
                             + [s.path for s in ordered])
    header = (f"{'Layer':{name_width}s}{'Calls':>7s}{'Fwd s':>10s}"
              f"{'Fwd %':>8s}{'Bwd s':>10s}{'Ops':>7s}")
    if profiler.memory:
        header += f"{'Peak MB':>10s}"
    lines = [header]
    for s in ordered:
        row = (f"{s.path:{name_width}s}{s.calls:7d}{s.forward_seconds:10.4f}"
               f"{100.0 * s.forward_seconds / wall_seconds:8.1f}"
               f"{s.backward_seconds:10.4f}{s.backward_ops:7d}")
        if profiler.memory:
            row += _mb(s.peak_bytes)
        lines.append(row)
    unattributed = (wall_seconds - profiler.total_forward_seconds()
                    - profiler.total_backward_seconds())
    lines.append(f"{'unattributed':{name_width}s}{'':7s}{unattributed:10.4f}"
                 f"{100.0 * unattributed / wall_seconds:8.1f}")
    return "\n".join(lines)


@contextmanager
def profile(model: Any, name: str = "model", memory: bool = False):
    """Profile every ``model`` call inside the block::

        with profile(model, memory=True) as prof:
            trainer.run_step(...)
        print(format_profile_tree(prof))
    """
    profiler = LayerProfiler(memory=memory)
    profiler.install(model, name=name)
    try:
        yield profiler
    finally:
        profiler.uninstall()
