"""ENG: the batch containment engine — cold vs warm, 1 vs N workers.

Unlike the Table 1 benches, this one measures the *harness* rather than a
paper claim: the engine's worker pool must overlap independent containment
checks, and its canonical-hash cache must turn a warm re-run into (almost)
pure lookups.  It keeps the scenarios that perfbench, with one request in
flight and one tenant, does not measure; perfbench's ``serve_replay`` and
``serve_fresh`` time the catalog and witness rungs end to end.

Scenarios:

* containment — 16 independent CONTAINED checks over per-task-renamed
  linear path OMQs (``P``-path under ``E ⊑ P`` vs the plain ``E``-path),
  cold serial, cold parallel and warm.  The pairs are built so the
  entailment check cannot prove them and the full small-witness
  procedure runs.
* overlap — blocking tasks (stand-ins for checks that spend their time
  waiting) where the pool's per-worker overlap wins even on one core.
* scheduler — α-renamed duplicates coalesce, and streaming delivers the
  first verdict before the batch drains.
* priority — a HIGH submission overtakes a saturating LOW backlog.
* serial vs parallel — the pool preserves verdicts.

The overlap speedup, the warm-cache hit rate and equal verdicts across
pool widths are asserted; host noise cannot flip them.  The CPU-bound
parallel speedup is recorded, not asserted: it depends on how many cores
are usable and how busy they are (on a shared 2-core host it reads above
1 in some runs and below in others), so ``BENCH_engine.json`` stores it
beside ``usable_cores``.  Results land in ``BENCH_engine.json`` at the repo
root, one section per scenario.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_batch.py -s
"""

import json
import os
import time
from pathlib import Path

from conftest import print_table
from repro import OMQ, Schema, clear_caches, parse_cq
from repro.containment import Verdict
from repro.core.parser import parse_tgds
from repro.engine import BatchEngine, ContainmentJob
from repro.engine.jobs import SleepJob

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_engine.json"

N_TASKS = 16
WORKERS = 4
OVERLAP_TASKS = 12
OVERLAP_SLEEP = 0.2


def _record(**sections) -> None:
    """Merge *sections* into ``BENCH_engine.json`` (read, merge, write)."""
    try:
        payload = json.loads(ARTIFACT.read_text())
    except (OSError, ValueError):
        payload = {"bench": "engine_batch"}
    payload.update(sections)
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _containment_job(tag: int, size: int) -> ContainmentJob:
    """One CONTAINED check that must run the small-witness procedure.

    q1 is a ``P``-path whose ``P`` is derivable from the data relation
    ``E`` (one linear hop); q2 is the plain ``E``-path.  They are
    equivalent over ``E``-databases, but Σ(q2) = ∅ does not entail
    ``E ⊑ P``, so the entailment check cannot answer and q1 gets fully
    rewritten.
    Per-task predicate names keep the 16 tasks cache-independent.
    """
    e, p = f"E{tag}", f"P{tag}"
    schema = Schema.of(**{e: 2})
    sigma = tuple(parse_tgds(f"{e}(x, y) -> {p}(x, y)"))
    hops = [
        (f"v{i}", f"v{i + 1}") for i in range(size)
    ]
    p_body = ", ".join(f"{p}({a}, {b})" for a, b in hops)
    e_body = ", ".join(f"{e}({a}, {b})" for a, b in hops)
    q1 = OMQ(schema, sigma, parse_cq(f"q() :- {p_body}"), f"ppath_{tag}")
    q2 = OMQ(schema, (), parse_cq(f"q() :- {e_body}"), f"epath_{tag}")
    return ContainmentJob(q1, q2)


def _containment_jobs():
    # Half the tasks one size up, so the batch mixes ~40ms and ~200ms work.
    return [_containment_job(tag, 4 + tag % 2) for tag in range(N_TASKS)]


def _timed_batch(engine: BatchEngine, jobs):
    start = time.perf_counter()
    results = engine.run_batch(jobs)
    return time.perf_counter() - start, results


def test_engine_cold_warm_and_workers(benchmark, tmp_path):
    """The headline scenario: cold serial vs cold parallel vs warm."""

    def _scenario():
        jobs = _containment_jobs()

        clear_caches()
        with BatchEngine(cache_dir=str(tmp_path / "serial"), workers=1) as eng:
            cold_serial, results = _timed_batch(eng, jobs)
        assert all(
            r.ok and r.value.verdict is Verdict.CONTAINED for r in results
        )

        clear_caches()
        with BatchEngine(
            cache_dir=str(tmp_path / "parallel"), workers=WORKERS
        ) as eng:
            cold_parallel, presults = _timed_batch(eng, jobs)
        assert [r.value.verdict for r in presults] == [
            r.value.verdict for r in results
        ]

        # Warm: a fresh engine over the serial run's cache directory.
        clear_caches()
        with BatchEngine(cache_dir=str(tmp_path / "serial"), workers=1) as eng:
            warm_serial, wresults = _timed_batch(eng, jobs)
            hit_rate = sum(1 for r in wresults if r.cached) / len(wresults)
        assert hit_rate >= 0.95
        assert warm_serial < cold_serial
        assert [r.value.verdict for r in wresults] == [
            r.value.verdict for r in results
        ]

        # Blocking workload: the pool overlaps waiting tasks regardless of
        # core count, so parallel must win even on a one-core box.
        sleepers = [
            SleepJob(OVERLAP_SLEEP, payload=i) for i in range(OVERLAP_TASKS)
        ]
        with BatchEngine(workers=1) as eng:
            overlap_serial, _ = _timed_batch(eng, sleepers)
        with BatchEngine(workers=WORKERS) as eng:
            overlap_parallel, _ = _timed_batch(eng, sleepers)
        assert overlap_parallel * 1.5 < overlap_serial

        # The CPU-bound ratio is data, not a gate: see the module docstring.
        cores = _usable_cores()
        _record(
            usable_cores=cores,
            tasks=N_TASKS,
            workers=WORKERS,
            containment={
                "cold_serial_s": round(cold_serial, 4),
                "cold_parallel_s": round(cold_parallel, 4),
                "warm_serial_s": round(warm_serial, 4),
                "warm_hit_rate": round(hit_rate, 4),
                "parallel_speedup": round(cold_serial / cold_parallel, 3),
                "warm_speedup": round(cold_serial / warm_serial, 3),
            },
            overlap={
                "tasks": OVERLAP_TASKS,
                "sleep_s": OVERLAP_SLEEP,
                "serial_s": round(overlap_serial, 4),
                "parallel_s": round(overlap_parallel, 4),
                "speedup": round(overlap_serial / overlap_parallel, 3),
            },
        )

        print_table(
            "ENG: batch engine (16 containment tasks)",
            ["configuration", "time (s)", "note"],
            [
                ["cold, workers=1", f"{cold_serial:.3f}", ""],
                [
                    f"cold, workers={WORKERS}",
                    f"{cold_parallel:.3f}",
                    f"{cores} core(s) usable",
                ],
                [
                    "warm, workers=1",
                    f"{warm_serial:.3f}",
                    f"hit rate {hit_rate:.0%}",
                ],
                [
                    f"overlap {OVERLAP_TASKS}×{OVERLAP_SLEEP}s",
                    f"{overlap_serial:.3f} → {overlap_parallel:.3f}",
                    f"{overlap_serial / overlap_parallel:.1f}× with pool",
                ],
            ],
        )

    benchmark.pedantic(_scenario, rounds=1, iterations=1)


DEDUP_DISTINCT = 6
DEDUP_COPIES = 3


def _alpha_copy(tag: int, size: int, salt: int) -> ContainmentJob:
    """An α-renamed spelling of ``_containment_job(tag, size)``: fresh
    variable names and reversed body-atom order, same canonical key."""
    e, p = f"E{tag}", f"P{tag}"
    schema = Schema.of(**{e: 2})
    sigma = tuple(parse_tgds(f"{e}(x, y) -> {p}(x, y)"))
    hops = [(f"w{salt}_{i}", f"w{salt}_{i + 1}") for i in range(size)]
    p_body = ", ".join(f"{p}({a}, {b})" for a, b in reversed(hops))
    e_body = ", ".join(f"{e}({a}, {b})" for a, b in reversed(hops))
    q1 = OMQ(schema, sigma, parse_cq(f"q() :- {p_body}"), f"ppath_{tag}~{salt}")
    q2 = OMQ(schema, (), parse_cq(f"q() :- {e_body}"), f"epath_{tag}~{salt}")
    return ContainmentJob(q1, q2)


def test_scheduler_dedup_and_streaming(benchmark, tmp_path):
    """SCHED: async submission — dedup saves the duplicate runs, streaming
    delivers the first verdict long before the batch drains."""

    def _scenario():
        # 6 distinct containment questions, each submitted 3 times through
        # α-renamed spellings: 18 jobs, 6 computations.
        jobs = []
        for tag in range(DEDUP_DISTINCT):
            size = 4 + tag % 2
            jobs.append(_containment_job(tag, size))
            for salt in range(1, DEDUP_COPIES):
                jobs.append(_alpha_copy(tag, size, salt))

        clear_caches()
        with BatchEngine(workers=WORKERS) as eng:
            start = time.perf_counter()
            handles = eng.submit_batch(jobs)
            submit_s = time.perf_counter() - start

            first_s = None
            for handle in eng.as_completed(handles):
                if first_s is None:
                    first_s = time.perf_counter() - start
            total_s = time.perf_counter() - start
            results = [h.result() for h in handles]
            metrics = eng.stats()["metrics"]

        assert all(
            r.ok and r.value.verdict is Verdict.CONTAINED for r in results
        )
        runs = metrics["engine.containment.runs"]
        coalesced = metrics["engine.dedup.coalesced"]
        assert runs == DEDUP_DISTINCT
        assert coalesced == DEDUP_DISTINCT * (DEDUP_COPIES - 1)
        assert submit_s < total_s  # submission never waits for workers
        assert first_s < total_s  # streaming beats draining the batch

        _record(
            scheduler={
                "jobs": len(jobs),
                "distinct": DEDUP_DISTINCT,
                "copies_per_question": DEDUP_COPIES,
                "workers": WORKERS,
                "runs": runs,
                "coalesced": coalesced,
                "submit_s": round(submit_s, 4),
                "first_result_s": round(first_s, 4),
                "total_s": round(total_s, 4),
                "first_vs_total": round(first_s / total_s, 3),
            }
        )

        print_table(
            "SCHED: async scheduler (18 jobs, 6 distinct questions)",
            ["measure", "value", "note"],
            [
                ["runs", str(runs), f"of {len(jobs)} submitted jobs"],
                ["coalesced", str(coalesced), "duplicate spellings absorbed"],
                ["submit", f"{submit_s:.3f}s", "non-blocking"],
                [
                    "first result",
                    f"{first_s:.3f}s",
                    f"total drain {total_s:.3f}s",
                ],
            ],
        )

    benchmark.pedantic(_scenario, rounds=1, iterations=1)


PRIORITY_BACKLOG = 12
PRIORITY_LOW_SLEEP = 0.15
PRIORITY_HIGH_SLEEP = 0.05


def test_priority_beats_saturating_backlog(benchmark):
    """PRIO: a HIGH submission lands while a LOW backlog saturates the
    pool; it must overtake the queue and finish long before the drain."""

    def _scenario():
        with BatchEngine(workers=2) as eng:
            start = time.perf_counter()
            lows = [
                eng.submit(
                    SleepJob(PRIORITY_LOW_SLEEP, payload=i), priority="low"
                )
                for i in range(PRIORITY_BACKLOG)
            ]
            high = eng.submit(
                SleepJob(PRIORITY_HIGH_SLEEP, payload="high"),
                priority="high",
            )
            high.result(timeout=60)
            high_latency = time.perf_counter() - start
            lows_done_first = sum(1 for h in lows if h.done())
            for h in lows:
                h.result(timeout=60)
            total_s = time.perf_counter() - start
            metrics = eng.stats()["metrics"]

        # The HIGH job waits out at most the in-flight LOWs (the dispatch
        # window), never the whole backlog.
        assert high_latency < total_s / 2
        assert lows_done_first < PRIORITY_BACKLOG / 2
        assert metrics["engine.scheduler.priority.dispatched.high"] == 1

        _record(
            priority={
                "backlog": PRIORITY_BACKLOG,
                "low_sleep_s": PRIORITY_LOW_SLEEP,
                "high_sleep_s": PRIORITY_HIGH_SLEEP,
                "workers": 2,
                "high_latency_s": round(high_latency, 4),
                "total_drain_s": round(total_s, 4),
                "lows_finished_before_high": lows_done_first,
            }
        )

        print_table(
            f"PRIO: HIGH vs {PRIORITY_BACKLOG}-deep LOW backlog",
            ["measure", "value", "note"],
            [
                [
                    "HIGH latency",
                    f"{high_latency:.3f}s",
                    f"drain {total_s:.3f}s",
                ],
                [
                    "LOWs done first",
                    str(lows_done_first),
                    f"of {PRIORITY_BACKLOG}",
                ],
            ],
        )

    benchmark.pedantic(_scenario, rounds=1, iterations=1)


def test_parallel_verdicts_match_serial(benchmark):
    """Worker-pool execution is semantics-preserving on a small batch."""

    def _run():
        jobs = [_containment_job(100 + t, 3) for t in range(4)]
        clear_caches()
        with BatchEngine(workers=1) as eng:
            serial = eng.run_batch(jobs)
        clear_caches()
        with BatchEngine(workers=2) as eng:
            parallel = eng.run_batch(jobs)
        assert [r.value.verdict for r in serial] == [
            r.value.verdict for r in parallel
        ]
        assert all(
            r.value.verdict is Verdict.CONTAINED for r in serial
        )
        return serial

    benchmark.pedantic(_run, rounds=1, iterations=1)
