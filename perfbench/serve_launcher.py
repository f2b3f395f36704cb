"""Run ``repro.cli serve`` with the benchmark's timing wrappers installed.

Usage::

    python perfbench/serve_launcher.py SPANS.json serve --checkpoint ...

The wrappers start switched off; each SIGUSR1 toggles them.  When the
server exits (SIGINT), the spans recorded while switched on, the collate
padding counts and the visibility-cache hits and misses over the same
window are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probes  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv) -> int:
    from repro.cli import main as cli_main
    from repro.core.visibility import visibility_cache_stats

    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.active = False
    collate_stats = probes.CollateStats()
    probes.install_collate(tracer, collate_stats)
    probes.install_model(tracer)
    probes.install_data(tracer)
    probes.install_serving(tracer)
    visibility = {"hits": 0, "misses": 0}
    opened = {}

    def toggle(signum, frame) -> None:
        stats = visibility_cache_stats()
        if tracer.active:
            for key in visibility:
                visibility[key] += stats[key] - opened[key]
        else:
            opened.update(stats)
        tracer.active = not tracer.active

    signal.signal(signal.SIGUSR1, toggle)
    try:
        return cli_main(cli_argv)
    finally:
        if tracer.active:
            toggle(None, None)
        with open(spans_path, "w") as handle:
            json.dump({"threads": tracer.threads(),
                       "collate": vars(collate_stats),
                       "visibility": visibility}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
