"""Benchmark of the spinsens command line, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload analyze-chain12 --seed 12 --seconds 45 --trace 0

Workloads (see ``workloads.py``): analyze-chain12 and verify-threads2,
which BENCHMARK.json declares, and synth-ring4, which it does not (see
``WORKLOADS``) but which runs the same way. Each calls
``spinsens.cli.main(argv)`` in this process,
with the BLAS pinned to one thread. ``--trace 0`` times the invocations
with tracing off and reports the end-to-end metrics; ``--trace 1`` wraps
the public functions of every spinsens module and reports the per-layer
metrics. ``--smoke`` shrinks every workload to a few seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller report,
the run's environment and (traced runs) the spans are written under
``.bench_out/`` in the checkout. Without ``src/spinsens`` next to this
directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time to spend on timed invocations (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for testing the benchmark itself")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinsens" / "__init__.py").is_file():
        print(f"bench: no spinsens source at {SRC / 'spinsens'}", file=sys.stderr)
        return 2
    # the pins must be set before numpy is first imported
    for var in BLAS_PINS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import spinsens.cli
    if Path(spinsens.cli.__file__).resolve().parent != SRC / "spinsens":
        print(f"bench: imported spinsens from {spinsens.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness
    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
