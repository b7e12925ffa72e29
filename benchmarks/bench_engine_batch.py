"""ENG: the batch containment engine — cold vs warm, 1 vs N workers.

Unlike the Table 1 benches, this one measures the *harness* rather than a
paper claim: the engine's worker pool must overlap independent containment
checks, and its canonical-hash cache must turn a warm re-run into (almost)
pure lookups.

Workloads:

* containment — 16 independent CONTAINED checks over per-task-renamed
  linear path OMQs (``P``-path under ``E ⊑ P`` vs the plain ``E``-path).
  The pairs are built so the entailment check cannot prove them and the
  full small-witness procedure runs.
* overlap — blocking tasks (stand-ins for checks that spend their time
  waiting) where the pool's per-worker overlap wins even on one core.

The CPU-parallel speedup is only asserted when the machine actually has
more than one usable core; the overlap speedup and the warm-cache hit rate
are asserted unconditionally.  Results land in ``BENCH_engine.json`` at the
repo root (cold/warm × serial/parallel timings plus cache stats).
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

        cores = _usable_cores()
        if cores >= 2:
            # CPU-bound speedup needs actual cores to spread over.
            assert cold_parallel < cold_serial

        payload = {
            "bench": "engine_batch",
            "usable_cores": cores,
            "tasks": N_TASKS,
            "workers": WORKERS,
            "containment": {
                "cold_serial_s": round(cold_serial, 4),
                "cold_parallel_s": round(cold_parallel, 4),
                "warm_serial_s": round(warm_serial, 4),
                "warm_hit_rate": round(hit_rate, 4),
                "parallel_speedup": round(cold_serial / cold_parallel, 3),
                "warm_speedup": round(cold_serial / warm_serial, 3),
            },
            "overlap": {
                "tasks": OVERLAP_TASKS,
                "sleep_s": OVERLAP_SLEEP,
                "serial_s": round(overlap_serial, 4),
                "parallel_s": round(overlap_parallel, 4),
                "speedup": round(overlap_serial / overlap_parallel, 3),
            },
        }
        ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

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

        scheduler_payload = {
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
        try:
            payload = json.loads(ARTIFACT.read_text())
        except (OSError, ValueError):
            payload = {"bench": "engine_batch"}
        payload["scheduler"] = scheduler_payload
        ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

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


CATALOG_PAIRS = 8
CATALOG_SIZE = 4


def test_catalog_cold_vs_warm_session(benchmark, tmp_path):
    """CAT: the cross-session equivalence catalog — session one proves the
    pairs equivalent (both directions run the full procedure), session two
    re-answers every job from the catalog alone: fresh engine, fresh cache
    directory, only the catalog file carries over."""

    def _scenario():
        # Each tag yields a pair (P-path under E ⊑ P, plain E-path) that
        # is equivalent but hash-distinct; both directions per tag.
        jobs = []
        for tag in range(200, 200 + CATALOG_PAIRS):
            forward = _containment_job(tag, CATALOG_SIZE)
            jobs.append(forward)
            jobs.append(ContainmentJob(forward.q2, forward.q1))
        catalog_path = str(tmp_path / "catalog.sqlite")

        clear_caches()
        with BatchEngine(
            cache_dir=str(tmp_path / "cold"), workers=1, catalog=catalog_path
        ) as eng:
            cold_s, cold_results = _timed_batch(eng, jobs)
            cold_stats = eng.stats()["catalog"]
        assert all(
            r.ok and r.value.verdict is Verdict.CONTAINED
            for r in cold_results
        )
        assert cold_stats["groups"] == CATALOG_PAIRS

        # Session two: nothing cached, but every pair is in the catalog.
        clear_caches()
        with BatchEngine(
            cache_dir=str(tmp_path / "warm"), workers=1, catalog=catalog_path
        ) as eng:
            warm_s, warm_results = _timed_batch(eng, jobs)
            warm_metrics = eng.stats()["metrics"]
            short_circuits = warm_metrics.get(
                "engine.catalog.short_circuits", 0
            )
        assert all(
            r.value.verdict is Verdict.CONTAINED for r in warm_results
        )
        # Both directions of a pair rewrite to one rep-based key, so the
        # reverse coalesces onto the forward and each *pair* costs one
        # catalog lookup — and zero procedure runs.
        assert short_circuits == CATALOG_PAIRS
        assert warm_metrics.get("engine.dedup.coalesced", 0) == CATALOG_PAIRS
        assert warm_metrics.get("engine.containment.runs", 0) == 0
        assert {r.value.method for r in warm_results} == {
            "catalog-equivalence"
        }
        assert warm_s < cold_s

        catalog_payload = {
            "pairs": CATALOG_PAIRS,
            "jobs": len(jobs),
            "cold_session_s": round(cold_s, 4),
            "warm_session_s": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 3),
            "short_circuits": short_circuits,
            "groups": cold_stats["groups"],
        }
        try:
            payload = json.loads(ARTIFACT.read_text())
        except (OSError, ValueError):
            payload = {"bench": "engine_batch"}
        payload["catalog"] = catalog_payload
        ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

        print_table(
            f"CAT: equivalence catalog ({CATALOG_PAIRS} pairs, 2 sessions)",
            ["session", "time (s)", "note"],
            [
                ["cold (proves)", f"{cold_s:.3f}", "full procedures"],
                [
                    "warm (recalls)",
                    f"{warm_s:.3f}",
                    f"{short_circuits} short-circuits, "
                    f"{cold_s / warm_s:.0f}× faster",
                ],
            ],
        )

    benchmark.pedantic(_scenario, rounds=1, iterations=1)


WITNESS_PAIRS = 8
WITNESS_SIZE = 4


def _refuted_job(tag: int, size: int) -> ContainmentJob:
    """One NOT_CONTAINED check: q1 is a ``P``-path of *size* hops under
    ``E ⊑ P``, q2 the plain ``E``-path one hop longer.  A ``size``-hop
    path database has no ``size+1``-hop match, so the cold run rewrites
    q1 and then refutes via small-witness — producing a witness the
    store can replay."""
    e, p = f"E{tag}", f"P{tag}"
    schema = Schema.of(**{e: 2})
    sigma = tuple(parse_tgds(f"{e}(x, y) -> {p}(x, y)"))
    p_body = ", ".join(
        f"{p}(v{i}, v{i + 1})" for i in range(size)
    )
    e_body = ", ".join(
        f"{e}(v{i}, v{i + 1})" for i in range(size + 1)
    )
    q1 = OMQ(schema, sigma, parse_cq(f"q() :- {p_body}"), f"wpath_{tag}")
    q2 = OMQ(schema, (), parse_cq(f"q() :- {e_body}"), f"wlong_{tag}")
    return ContainmentJob(q1, q2)


def test_witness_store_cold_vs_warm_session(benchmark, tmp_path):
    """WIT: the negative-witness store — session one refutes the pairs
    with the full procedure and persists each counterexample; session two
    re-answers every job by replaying the stored witness: fresh engine,
    fresh cache directory, only the witness file carries over."""

    def _scenario():
        jobs = [
            _refuted_job(tag, WITNESS_SIZE)
            for tag in range(300, 300 + WITNESS_PAIRS)
        ]
        store_path = str(tmp_path / "witnesses.sqlite")

        clear_caches()
        with BatchEngine(
            cache_dir=str(tmp_path / "wcold"),
            workers=1,
            witness_store=store_path,
        ) as eng:
            cold_s, cold_results = _timed_batch(eng, jobs)
            cold_metrics = eng.stats()["metrics"]
        assert all(
            r.ok and r.value.verdict is Verdict.NOT_CONTAINED
            for r in cold_results
        )
        assert cold_metrics["engine.witness.stored"] == WITNESS_PAIRS

        # Session two: nothing cached, but every refutation is on file.
        clear_caches()
        with BatchEngine(
            cache_dir=str(tmp_path / "wwarm"),
            workers=1,
            witness_store=store_path,
        ) as eng:
            warm_s, warm_results = _timed_batch(eng, jobs)
            warm_metrics = eng.stats()["metrics"]
        assert all(
            r.value.verdict is Verdict.NOT_CONTAINED for r in warm_results
        )
        assert {r.value.method for r in warm_results} == {"witness-replay"}
        assert warm_metrics.get("engine.witness.hits", 0) == WITNESS_PAIRS
        assert warm_metrics.get("engine.containment.runs", 0) == 0
        # The acceptance gate: replay beats the full procedure by ≥10×.
        assert warm_s * 10 <= cold_s

        witness_payload = {
            "pairs": WITNESS_PAIRS,
            "cold_session_s": round(cold_s, 4),
            "warm_session_s": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 3),
            "replay_hits": warm_metrics.get("engine.witness.hits", 0),
            "stored": cold_metrics["engine.witness.stored"],
        }
        try:
            payload = json.loads(ARTIFACT.read_text())
        except (OSError, ValueError):
            payload = {"bench": "engine_batch"}
        payload["witness"] = witness_payload
        ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

        print_table(
            f"WIT: witness store ({WITNESS_PAIRS} refuted pairs, 2 sessions)",
            ["session", "time (s)", "note"],
            [
                ["cold (refutes)", f"{cold_s:.3f}", "full procedures"],
                [
                    "warm (replays)",
                    f"{warm_s:.3f}",
                    f"{witness_payload['replay_hits']} replay hits, "
                    f"{cold_s / warm_s:.0f}× faster",
                ],
            ],
        )

    benchmark.pedantic(_scenario, rounds=1, iterations=1)


def _perturbed_refuted_job(tag: int, size: int) -> ContainmentJob:
    """The structurally perturbed spelling of ``_refuted_job(tag, size)``:
    a homomorphically redundant atom on *both* sides (fresh variables,
    folds onto an existing body atom), so neither side's canonical hash
    matches the base pair — only the predicate-signature key does."""
    e, p = f"E{tag}", f"P{tag}"
    schema = Schema.of(**{e: 2})
    sigma = tuple(parse_tgds(f"{e}(x, y) -> {p}(x, y)"))
    p_body = ", ".join(
        f"{p}(v{i}, v{i + 1})" for i in range(size)
    ) + f", {p}(r0, r1)"
    e_body = ", ".join(
        f"{e}(v{i}, v{i + 1})" for i in range(size + 1)
    ) + f", {e}(r0, r1)"
    q1 = OMQ(schema, sigma, parse_cq(f"q() :- {p_body}"), f"wppath_{tag}")
    q2 = OMQ(schema, (), parse_cq(f"q() :- {e_body}"), f"wplong_{tag}")
    return ContainmentJob(q1, q2)


def test_witness_store_structural_replay(benchmark, tmp_path):
    """WIT-S: structural (subsumption-based) replay — session one refutes
    the *base* pairs and persists their witnesses; session two answers a
    perturbed, non-hash-equal spelling of every pair purely from the
    signature index: two budgeted hom-checks per job instead of a full
    rewriting + small-witness run, with zero exact-pair hits."""

    def _scenario():
        base_jobs = [
            _refuted_job(tag, WITNESS_SIZE)
            for tag in range(400, 400 + WITNESS_PAIRS)
        ]
        perturbed_jobs = [
            _perturbed_refuted_job(tag, WITNESS_SIZE)
            for tag in range(400, 400 + WITNESS_PAIRS)
        ]
        store_path = str(tmp_path / "swit.sqlite")

        # Baseline: the perturbed jobs decided by the full procedure.
        clear_caches()
        with BatchEngine(
            cache_dir=str(tmp_path / "scold"), workers=1
        ) as eng:
            cold_s, cold_results = _timed_batch(eng, perturbed_jobs)
        assert all(
            r.ok and r.value.verdict is Verdict.NOT_CONTAINED
            for r in cold_results
        )

        # Session one: refute the base pairs, populating the store.
        clear_caches()
        with BatchEngine(
            cache_dir=str(tmp_path / "sbase"),
            workers=1,
            witness_store=store_path,
        ) as eng:
            _, base_results = _timed_batch(eng, base_jobs)
            base_metrics = eng.stats()["metrics"]
        assert all(
            r.value.verdict is Verdict.NOT_CONTAINED for r in base_results
        )
        assert base_metrics["engine.witness.stored"] == WITNESS_PAIRS

        # Session two: every perturbed job replays structurally — no
        # canonical hash in the store matches either side.
        clear_caches()
        with BatchEngine(
            cache_dir=str(tmp_path / "swarm"),
            workers=1,
            witness_store=store_path,
        ) as eng:
            warm_s, warm_results = _timed_batch(eng, perturbed_jobs)
            warm_metrics = eng.stats()["metrics"]
        assert all(
            r.value.verdict is Verdict.NOT_CONTAINED for r in warm_results
        )
        assert {r.value.method for r in warm_results} == {"witness-replay"}
        structural_hits = warm_metrics.get(
            "engine.witness.structural.hits", 0
        )
        assert structural_hits == WITNESS_PAIRS
        assert warm_metrics.get("engine.witness.exact_hits", 0) == 0
        assert warm_metrics.get("engine.containment.runs", 0) == 0
        # The acceptance gate: structural replay beats the full run ≥5×.
        assert warm_s * 5 <= cold_s

        structural_payload = {
            "pairs": WITNESS_PAIRS,
            "cold_session_s": round(cold_s, 4),
            "warm_session_s": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 3),
            "structural_hits": structural_hits,
            "exact_hits": warm_metrics.get("engine.witness.exact_hits", 0),
            "attempts": warm_metrics.get(
                "engine.witness.structural.attempts", 0
            ),
        }
        try:
            payload = json.loads(ARTIFACT.read_text())
        except (OSError, ValueError):
            payload = {"bench": "engine_batch"}
        payload["witness_structural"] = structural_payload
        ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

        print_table(
            f"WIT-S: structural replay ({WITNESS_PAIRS} perturbed pairs)",
            ["session", "time (s)", "note"],
            [
                ["cold (full run)", f"{cold_s:.3f}", "no store"],
                [
                    "warm (structural)",
                    f"{warm_s:.3f}",
                    f"{structural_hits} structural hits, 0 exact, "
                    f"{cold_s / warm_s:.0f}× faster",
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

        priority_payload = {
            "backlog": PRIORITY_BACKLOG,
            "low_sleep_s": PRIORITY_LOW_SLEEP,
            "high_sleep_s": PRIORITY_HIGH_SLEEP,
            "workers": 2,
            "high_latency_s": round(high_latency, 4),
            "total_drain_s": round(total_s, 4),
            "lows_finished_before_high": lows_done_first,
        }
        try:
            payload = json.loads(ARTIFACT.read_text())
        except (OSError, ValueError):
            payload = {"bench": "engine_batch"}
        payload["priority"] = priority_payload
        ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

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
