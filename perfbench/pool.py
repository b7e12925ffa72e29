"""The recorded pool of random draws that ``decide_cold`` picks from.

    python3 perfbench/pool.py [--candidates 60] [--keep-s 0.25] [--cap-s 3]

Draw *k* of a fragment and mode is
``random_omq_pair(fragment, random.Random(f"{fragment}/{mode}/{k}"), mode)``.
This script decides candidates k = 0 … ``--candidates``−1 once each,
alone, with the caches cleared, and writes ``perfbench/draws.json``: the
draws it leaves out, with how long they took past ``--keep-s`` or that
they were still running at ``--cap-s``; every other candidate is kept.  A run's seed then picks
its draws from the kept ones only, so a run's inputs depend on its seed
alone, never on how fast the host is while it runs.

Fault F1 makes about one random guarded draw in ten run for seconds to
minutes; a seed-dependent hang cannot be counted as the same share of
failed operations in every run, so such draws are left out here, once,
and named in ``draws.json``.  The timed phase never substitutes a draw:
a kept draw that reaches the decision cap counts as failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import signal
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common

POOL_PATH = common.BENCH_DIR / "draws.json"

#: The modes decide_cold draws random pairs in.
MODES = ("independent", "specialized", "alpha")


def draw(fragment: str, mode: str, k: int):
    """``(q1, q2, expected)`` of draw *k*."""
    from repro.generators import random_omq_pair

    return random_omq_pair(fragment, random.Random(f"{fragment}/{mode}/{k}"), mode)


def load():
    """The kept draws: ``{"fragment/mode": [k, ...]}``."""
    from repro.generators import FRAGMENTS

    doc = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    return {
        key: [k for k in range(doc["candidates"]) if str(k) not in doc["left_out"].get(key, {})]
        for key in (f"{fragment}/{mode}" for fragment in FRAGMENTS for mode in MODES)
    }


def build(candidates: int, keep_s: float, cap_s: float) -> dict:
    from perfbench import decide

    repro = common.import_program()
    from repro.generators import FRAGMENTS

    signal.signal(signal.SIGALRM, decide._alarm)
    left_out = {}
    for fragment in FRAGMENTS:
        for mode in MODES:
            key = f"{fragment}/{mode}"
            left_out[key] = {}
            for k in range(candidates):
                q1, q2, _ = draw(fragment, mode, k)
                repro.clear_caches()
                t0 = time.perf_counter()
                _, cap = decide.capped(cap_s, lambda: repro.contains(q1, q2))
                elapsed = time.perf_counter() - t0
                if cap is not None:
                    left_out[key][str(k)] = (
                        f"still running at {cap_s:g} s in "
                        + decide._capped_layer(cap.__traceback__)
                    )
                    cap = None
                elif elapsed > keep_s:
                    left_out[key][str(k)] = f"decided in {elapsed:.2f} s"
            print(f"{key}: left out {len(left_out[key])} of {candidates}", file=sys.stderr)
    return {
        "draw": "random_omq_pair(fragment, random.Random(f'{fragment}/{mode}/{k}'), mode)",
        "candidates": candidates,
        "keep_s": keep_s,
        "cap_s": cap_s,
        "recorded_on": {"usable_cores": common.usable_cores(),
                        "python": platform.python_version()},
        "left_out": {k: v for k, v in left_out.items() if v},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--candidates", type=int, default=60)
    parser.add_argument("--keep-s", type=float, default=0.25)
    parser.add_argument("--cap-s", type=float, default=3.0)
    args = parser.parse_args(argv)
    doc = build(args.candidates, args.keep_s, args.cap_s)
    POOL_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
