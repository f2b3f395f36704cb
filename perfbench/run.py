"""The repo benchmark: one command per workload, run from a checkout's root.

Usage::

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 \
        --trace 0

Workloads: ``pretrain``, ``corpus``, ``serve_zipf``, ``serve_unique`` (see
``BENCHMARK.json`` and the ``wl_*.py`` modules).  The program is imported
from ``src/`` under the current directory; without it the command exits
with status 2 and prints no result.

``--trace 0`` measures with no per-layer wrappers and reports the
end-to-end metrics; ``--trace 1`` installs timing wrappers around the
boundaries in ``layers.py`` and reports the per-layer metrics instead.
Either way the outputs are checked.  The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a report with the environment, the checks and every
workload-specific number under its own name.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads, here and in the
# server processes that inherit this environment: the thread count changes
# the arithmetic, and the cores are shared by server lanes and the load
# generator.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("pretrain", "corpus", "serve_zipf", "serve_unique")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    # A shell that starts this command in the background ignores SIGINT,
    # and child processes inherit that.  Servers stop on SIGINT, so take
    # the default handler back (it becomes SIG_DFL in each child).
    signal.signal(signal.SIGINT, signal.default_int_handler)

    import layers
    from common import WORK_DIR, environment

    trace = bool(args.trace)
    # Any integer seed maps onto 1..1000, which every seed derivation in
    # the workloads (seed * 1000 + round, seed + 1, ...) accepts.
    seed = 1 + args.seed % 1000
    try:
        if args.workload == "pretrain":
            import wl_pretrain
            result = wl_pretrain.run(seed, args.seconds, trace)
        elif args.workload == "corpus":
            import wl_corpus
            result = wl_corpus.run(seed, args.seconds, trace)
        else:
            import wl_serve
            result = wl_serve.run(seed, args.seconds, trace, args.workload)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    if trace:
        metrics = layers.per_layer_metrics(result.pop("per_layer"))
    else:
        metrics = result.pop("metrics")
    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed),
              "ops_attempted": result["attempted"],
              "ops_failed": result["failed"],
              "problems": result["problems"],
              "report": result["report"]}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
