"""Steadiness mode: how much each end-to-end metric moves between runs.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--first-seed 1] \
        [--seconds S] [--workload NAME ...]

Runs ``run.py`` once per seed (seeds first-seed … first-seed+runs−1) for
each workload, one run at a time, and prints for every end-to-end metric
the median, the first and third quartiles, and the spread — the quartile
distance as a share of the median — against the metric's bound in
BENCHMARK.json, with the attempted and failed counts.  ``setup_s`` is
reported but, like any set-up time, only its median is held to the bound
between two sets of runs.  A spread above a third of its bound is
flagged: the bound then leaves too little room to tell a regression from
noise.  With ``--sets 2`` it runs a second set on the next seeds and
prints how far each median moved, against the bound, and whether the
failed shares of all runs are identical — the check two sets of runs
must pass.  Used to set the bounds, and to show that two sets agree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common


def run_set(workload: str, seeds, seconds: float):
    """One ``--trace 0`` run per seed; returns their result lines."""
    rows = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=str(common.ROOT), capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
            )
        rows.append(json.loads(lines[-1]))
        print(f"{workload} seed {seed}: " + json.dumps(rows[-1]), flush=True)
    return rows


def summarize(workload: str, rows, metrics) -> bool:
    """Print one set's table; True when every spread is inside a third
    of its bound (setup_s excepted, as for the acceptance check)."""
    attempted = [r["attempted"] for r in rows]
    failed = [r["failed"] for r in rows]
    shares = sorted({f / a for f, a in zip(failed, attempted)})
    print(f"\n{workload}: {len(rows)} runs, correct={all(r['correct'] for r in rows)}, "
          f"attempted {min(attempted)}–{max(attempted)}, failed {min(failed)}–{max(failed)}, "
          f"failed shares {shares}")
    print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    steady = True
    for m in metrics:
        s = common.spread([r["metrics"][m["name"]]["value"] for r in rows])
        flag = ""
        if m["name"] != "setup_s" and s["spread"] > m["bound"] / 3:
            flag = "  <-- above a third of the bound"
            steady = False
        print(f"  {m['name']:18s} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
              f"{s['spread']:8.3f} {m['bound']:6.2f}{flag}")
    return steady


def compare(workload: str, first, second, metrics) -> bool:
    """Print how far the second set's medians moved from the first's;
    True when none is worse by more than its bound and the failed shares
    are identical."""
    ok = True
    print(f"\n{workload}: second set against the first")
    for m in metrics:
        a = common.median(r["metrics"][m["name"]]["value"] for r in first)
        b = common.median(r["metrics"][m["name"]]["value"] for r in second)
        worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
        flag = "" if worse <= m["bound"] else "  <-- worse than the bound"
        ok = ok and not flag
        print(f"  {m['name']:18s} {a:12.4f} {b:12.4f} worse by {worse:+.3f} (bound {m['bound']:.2f}){flag}")
    shares = {r["failed"] / r["attempted"] for r in first + second}
    print(f"  failed shares across both sets: {sorted(shares)}")
    return ok and len(shares) == 1


def main(argv=None) -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    status = 0
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            first = args.first_seed + k * args.runs
            rows = run_set(workload, range(first, first + args.runs), args.seconds)
            status |= not summarize(workload, rows, metrics)
            sets.append(rows)
        if len(sets) == 2:
            status |= not compare(workload, sets[0], sets[1], metrics)
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
