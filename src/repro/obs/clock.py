"""The repo's single gateway to the system clocks.

Lint rule CLK001 forbids ``time.time()`` / ``time.perf_counter()`` /
``datetime.now()`` everywhere outside this module: seeded compute must be
clock-free so results are reproducible, and all timing flows through these
two functions so instrumentation has one choke point.  Program code times
a region with a :func:`repro.obs.trace` span rather than a pair of
:func:`perf_counter` reads.
"""

from __future__ import annotations

import time


def wall_time() -> float:
    """Seconds since the epoch (for journal timestamps)."""
    return time.time()


def perf_counter() -> float:
    """Monotonic high-resolution counter (for durations)."""
    return time.perf_counter()
