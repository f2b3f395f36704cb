"""Shared helpers: statistics, the environment record and the result line."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Scratch space for shards, checkpoints and span dumps, under the
#: checkout the benchmark runs in.
WORK_DIR = ".perfbench-work"

#: The knowledge base every workload draws from, like a deployment's.  The
#: run's seed draws the tables, epoch orders, masks, arrival times and
#: payload choices; a seeded world would add differences between worlds
#: (table shapes move step time by ~10%) to every run-to-run spread.
WORLD_SEED = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK_DIR, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def timed_setups(setup: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Run ``setup`` ``repeats`` times; return (median seconds, last result).

    Each earlier result is released (``close()`` if it has one) before the
    next set-up starts.
    """
    seconds: List[float] = []
    result = None
    for _ in range(repeats):
        if result is not None and hasattr(result, "close"):
            result.close()
        begin = time.perf_counter()
        result = setup()
        seconds.append(time.perf_counter() - begin)
    return median(seconds), result


def own_peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another live process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a live process has used, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def source_digest(root: str = "src") -> str:
    """Content digest of the program's source, which identifies the code
    when the checkout is not a git repository."""
    digest = hashlib.blake2b(digest_size=12)
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit() -> str:
    """HEAD of the checkout's own git repository, if it is one."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> Dict[str, Any]:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "commit": commit(),
        "source_digest": source_digest(),
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}
