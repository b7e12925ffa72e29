"""One command for the end-to-end containment benchmark.

    python3 perfbench/run.py --workload decide_cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The line before it, prefixed
``perfbench``, holds the run's details: sample counts, the tail
percentile used, the answer mix, and every check's counts.

See README.md for the workloads, the metrics and the known faults.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common

WORKLOADS = ("decide_cold", "serve_fresh", "serve_replay")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the replicas it started (their
    # ``finally`` blocks run on SystemExit).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        common.import_program()
        if args.workload == "decide_cold":
            from perfbench import decide

            return decide.run(args.seed, args.seconds, bool(args.trace))
        from perfbench import serve

        return serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.SetupError as exc:
        common.warn(f"perfbench: cannot run: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
