"""Production-path benchmark of the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload batch_fit --seed 1 --seconds 25 --trace 0

Workloads: ``batch_fit``, ``stream`` and ``serve`` (see README.md).  The
program is imported from ``src/`` next to this directory; there is
nothing to build.  The run prints a readable report, the run's
fingerprint, and as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of the timed
pass; with ``--trace 1`` the same work is replayed with every layer
wrapped and the metrics are the per-layer ones.  Exit codes: 0 on a
finished run (``correct`` says whether every check passed), 1 when the
program cannot be imported, 2 on bad arguments, 3 when a timed pass
would not run production code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Column width of metric names in the readable report.
_NAME_WIDTH = 34


def _pin_threads_and_cpu() -> None:
    """One BLAS thread (before numpy loads) and one CPU for the process.

    On the shared two-core reference machine a BLAS pool beside the
    serve workload's two Python threads oversubscribed the cores, and
    GIL handoffs between threads on different cores made serve latency
    and throughput swing by about 30% from run to run.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _import_program() -> None:
    """Put ``src/`` and this directory on the path and import the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("batch_fit", "stream", "serve")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None, *, sizes=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    start = time.perf_counter()
    _import_program()
    import env
    import workloads
    from repro.exceptions import ConvergenceWarning

    import_s = time.perf_counter() - start
    # Convergence notes are part of normal fits, not failures.
    warnings.simplefilter("ignore", ConvergenceWarning)
    try:
        env.check_production_path()
        outcome = workloads.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            sizes=sizes or workloads.FULL,
            import_s=import_s,
        )
    except env.NotProductionPath as exc:
        print(f"perfbench: aborted, not the production path: {exc}", file=sys.stderr)
        return 3

    ledger = outcome.ledger
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}")
    for name, value, unit, note in outcome.report:
        print(f"  {name:<{_NAME_WIDTH}} {value:14.6g} {unit:<9} {note}")
    for what in ledger.failures[:20]:
        print(f"  failed: {what}")
    metrics = outcome.per_layer if args.trace else outcome.e2e
    if args.trace:
        print("per layer (traced replay of the same work):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<{_NAME_WIDTH}} {value:14.6g} {unit}")
    print("fingerprint " + json.dumps(env.fingerprint(ROOT), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    _pin_threads_and_cpu()
    sys.exit(main())
