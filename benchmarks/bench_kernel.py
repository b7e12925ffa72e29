"""Kernel benchmark: the delta chase and the cost-based join planner.

Three scenarios are measured, and each is checked before its timing is
trusted:

* **chase workloads** — the semi-naive chase on the largest linear and
  guarded workloads.  Each run must equal the kernel-free chase by rounds
  of ``tests/oracle.py`` in instance, steps, log, levels and termination;
* **skewed join** — a huge binary relation joined with a tiny 4-ary one,
  the shape where an order that counts unbound slots scans the huge
  relation whole.  The planned search must find the oracle's matches and
  scan at most ``n_wide + matches`` candidates (``kernel.hom.candidates``):
  one pass over the tiny relation, then one indexed lookup per match;
* **repeated batch** — the same OMQ evaluated over the same database again
  and again, as the batch engine does.  After the first evaluation every
  join order must come from the plan cache; a zero hit rate fails the run.

Run as a script — not through pytest::

    PYTHONPATH=src python benchmarks/bench_kernel.py          # full
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick  # CI smoke

Writes ``BENCH_kernel.json`` (see ``--out``) with per-workload timings,
step counts, and kernel counter deltas.  ``--trace-out PATH`` re-runs one
untimed pass of each chase workload under ``obs`` tracing and writes the
per-phase Chrome trace there (the CI ``perf-profile`` artifact).  Exits
non-zero if any check above fails.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracle  # noqa: E402
import repro  # noqa: E402
from repro import obs  # noqa: E402
from repro.chase.engine import chase  # noqa: E402
from repro.core.atoms import atom, fact  # noqa: E402
from repro.core.instance import Instance  # noqa: E402
from repro.core.terms import Variable  # noqa: E402
from repro.engine.canon import hash_instance  # noqa: E402
from repro.evaluation import evaluate_omq  # noqa: E402
from repro.generators.databases import chain_database, random_database  # noqa: E402
from repro.generators.ontologies import (  # noqa: E402
    guarded_reachability,
    linear_chain,
)
from repro.generators.random_omqs import random_omq  # noqa: E402
from repro.kernel import (  # noqa: E402
    KERNEL_METRICS,
    WorkingInstance,
    compiled_search,
    kernel_snapshot,
)
from repro.obs.export import write_chrome_trace  # noqa: E402

MAX_STEPS = 1_000_000


def linear_workload(length: int, chain: int):
    """Inclusion chain of *length* hops over a *chain*-edge database."""
    omq = linear_chain(length)
    return f"linear_chain_{length}_db{chain}", chain_database("R_0", chain), omq.sigma


def guarded_workload(chain: int):
    """Guarded reachability seeded at one end of a *chain*-edge path."""
    omq = guarded_reachability()
    atoms = list(chain_database("E", chain).atoms) + [fact("S", "n0")]
    return f"guarded_reach_db{chain}", Instance.of(atoms), omq.sigma


def skewed_instance(n_big: int, n_wide: int) -> WorkingInstance:
    """The planner's target family: huge binary × tiny 4-ary relation.

    ``Big`` has *n_big* facts whose second column is low-cardinality;
    ``Wide`` has *n_wide* facts sharing ``Big``'s join column.  Counting
    unbound slots would start at ``Big`` and scan it whole; the cost
    planner starts at ``Wide`` and drives the join through the positional
    index.
    """
    atoms = [fact("Big", f"a{i}", f"b{i % 5}") for i in range(n_big)]
    atoms += [
        fact("Wide", f"a{i * (n_big // max(n_wide, 1))}", f"p{i}", f"q{i}", f"r{i}")
        for i in range(n_wide)
    ]
    return WorkingInstance(atoms)


SKEWED_BODY = (
    atom("Big", Variable("x"), Variable("y")),
    atom(
        "Wide", Variable("x"), Variable("w1"), Variable("w2"), Variable("w3")
    ),
)


def _match_key(h):
    return tuple(sorted((str(k), str(v)) for k, v in h.items()))


def run_chase_workload(name, db, sigma, repeats: int):
    """Best-of-*repeats* delta chase time, checked against the oracle."""
    matches_oracle = oracle.run_of(chase(db, sigma, max_steps=MAX_STEPS)) == (
        oracle.run_of(oracle.chase(db, sigma, max_steps=MAX_STEPS))
    )
    KERNEL_METRICS.reset()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = chase(db, sigma, max_steps=MAX_STEPS)
        best = min(best, time.perf_counter() - t0)
    counters = kernel_snapshot()
    return {
        "workload": name,
        "db_atoms": len(db.atoms),
        "chase_atoms": len(result.instance.atoms),
        "steps": result.steps,
        "delta_s": round(best, 6),
        "matches_oracle": matches_oracle,
        "instance_hash": hash_instance(result.instance),
        "kernel_counters": {
            k: v for k, v in counters.items() if isinstance(v, int)
        },
    }


def run_skewed_workload(n_big: int, n_wide: int, repeats: int):
    """Full join enumeration over the skewed family: time, matches and the
    candidates one planned search scans."""
    work = skewed_instance(n_big, n_wide)
    search = compiled_search(SKEWED_BODY)
    want = sorted(
        _match_key(h) for h in oracle.homomorphisms(SKEWED_BODY, work.snapshot())
    )
    best = float("inf")
    for _ in range(repeats):
        KERNEL_METRICS.reset()
        t0 = time.perf_counter()
        hits = sorted(_match_key(h) for h in search.search(work))
        best = min(best, time.perf_counter() - t0)
    candidates = KERNEL_METRICS.snapshot().get("kernel.hom.candidates", 0)
    return {
        "workload": f"skewed_join_big{n_big}_wide{n_wide}",
        "db_atoms": len(work),
        "matches": len(hits),
        "candidates": candidates,
        "candidate_bound": n_wide + len(hits),
        "cost_s": round(best, 6),
        "matches_oracle": hits == want,
    }


def run_repeated_batch(repeats: int):
    """The plan-cache scenario: one OMQ evaluated over one database N times.

    This is the batch engine's steady state — same bodies, same statistics
    regime — so after the first evaluation every join order must come from
    the plan cache.  Reports the planner's hit rate.
    """
    rng = random.Random(20_18)
    omq = random_omq("linear", rng, n_rules=4, n_query_atoms=3)
    db = random_database(omq.data_schema, 8, 30, seed=4)
    repro.clear_caches()
    answers = None
    for _ in range(repeats):
        got = evaluate_omq(omq, db).answers
        assert answers is None or got == answers
        answers = got
    snap = KERNEL_METRICS.snapshot()
    hits = snap.get("kernel.plan.hits", 0)
    misses = snap.get("kernel.plan.misses", 0)
    return {
        "workload": f"repeated_batch_x{repeats}",
        "plan_hits": hits,
        "plan_misses": misses,
        "plan_hit_rate": round(hits / (hits + misses), 4)
        if hits + misses
        else 0.0,
    }


def write_trace(workloads, path: str) -> None:
    """One untimed traced pass per chase workload → Chrome trace JSON."""
    obs.drain()
    with obs.tracing("always"):
        for name, db, sigma in workloads:
            with obs.span("bench.workload", workload=name):
                chase(db, sigma, max_steps=MAX_STEPS)
    write_chrome_trace(obs.drain(), path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small workloads, one repeat (CI smoke)",
    )
    parser.add_argument(
        "--out", default=str(ROOT / "BENCH_kernel.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="also write a Chrome trace of one traced pass per workload",
    )
    args = parser.parse_args(argv)

    if args.quick:
        workloads = [linear_workload(8, 20), guarded_workload(60)]
        skewed = (4_000, 6)
        repeats, batch_repeats = 1, 4
    else:
        workloads = [linear_workload(16, 40), guarded_workload(150)]
        skewed = (40_000, 8)
        repeats, batch_repeats = 3, 6

    rows = [run_chase_workload(*w, repeats=repeats) for w in workloads]
    skewed_row = run_skewed_workload(*skewed, repeats=repeats)
    batch_row = run_repeated_batch(batch_repeats)
    report = {
        "benchmark": "bench_kernel",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "workloads": rows,
        "skewed": skewed_row,
        "repeated_batch": batch_row,
    }
    Path(args.out).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    ok = True
    for row in rows:
        status = "ok"
        if not row["matches_oracle"]:
            status, ok = "ORACLE MISMATCH", False
        print(
            f"{row['workload']:>28}: delta {row['delta_s']*1000:8.1f} ms  "
            f"steps {row['steps']:6d}  [{status}]"
        )

    status = "ok"
    if not skewed_row["matches_oracle"]:
        status, ok = "ORACLE MISMATCH", False
    elif skewed_row["candidates"] > skewed_row["candidate_bound"]:
        status, ok = f"candidates > {skewed_row['candidate_bound']}", False
    print(
        f"{skewed_row['workload']:>28}: cost {skewed_row['cost_s']*1000:8.3f} ms  "
        f"candidates {skewed_row['candidates']:6d}  [{status}]"
    )

    status = "ok"
    if batch_row["plan_hit_rate"] <= 0.0:
        # Enforced in every mode: this is the CI perf-profile guard.
        status, ok = "plan cache never hit", False
    print(
        f"{batch_row['workload']:>28}: hits {batch_row['plan_hits']:5d}  "
        f"misses {batch_row['plan_misses']:5d}  "
        f"hit rate {batch_row['plan_hit_rate']:.2%}  [{status}]"
    )

    if args.trace_out:
        write_trace(workloads, args.trace_out)
        print(f"chrome trace written to {args.trace_out}")
    print(f"report written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
