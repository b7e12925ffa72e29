"""The async scheduler: non-blocking submission, canonical dedup of
α-equivalent jobs, streaming completion, and cancellation.

The dedup tests mirror the acceptance criterion directly: N α-renamed
copies of one containment question must cost exactly one execution
(``engine.containment.runs == 1``) while every handle still resolves,
with the absorbed copies visible in ``engine.dedup.coalesced``.
"""

import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Any

import pytest

from repro import OMQ, Schema, parse_cq, parse_tgds
from repro.containment import Verdict
from repro.engine import BatchEngine, ContainmentJob, Priority
from repro.engine.jobs import SleepJob

START_METHODS = [
    m for m in ("fork", "spawn") if m in mp.get_all_start_methods()
]

SIGMA = "P(x) -> R(x, w)\nR(x, y) -> P(y)\nT(x) -> P(x)"
SCHEMA = Schema.of(P=1, T=1)


def _omq(query: str, rules: str = SIGMA, name: str = "Q") -> OMQ:
    return OMQ(SCHEMA, tuple(parse_tgds(rules)), parse_cq(query), name)


def _alpha_variants():
    """Four spellings of the same OMQ: renamed variables, reordered body
    atoms, reordered rules, different display names — all α-equivalent,
    so all four share one canonical cache key."""
    spellings = [
        ("q(x) :- R(x, y), P(y)", SIGMA),
        ("q(u) :- P(v), R(u, v)", SIGMA),
        ("q(a) :- R(a, b), P(b)", "\n".join(reversed(SIGMA.split("\n")))),
        ("q(m) :- P(n), R(m, n)", SIGMA),
    ]
    return [
        OMQ(SCHEMA, tuple(parse_tgds(rules)), parse_cq(cq), f"spelling-{i}")
        for i, (cq, rules) in enumerate(spellings)
    ]


@dataclass(frozen=True)
class _SlowKeyedJob:
    """A cacheable job slow enough to still be in flight when its
    α-twin arrives (module-level, so it pickles into workers)."""

    key: str
    seconds: float = 0.3

    kind = "slowkeyed"

    def cache_key(self) -> str:
        return f"slow:{self.key}"

    def run(self) -> str:
        time.sleep(self.seconds)
        return f"value:{self.key}"

    def failure_result(self, reason: str) -> Any:
        return None


class TestSubmission:
    def test_submit_resolves_to_the_library_verdict(self):
        with BatchEngine() as engine:
            handle = engine.submit(
                ContainmentJob(_omq("q(x) :- T(x)"), _omq("q(x) :- P(x)"))
            )
            result = handle.result(timeout=60)
        assert result.ok
        assert result.value.verdict is Verdict.CONTAINED
        assert handle.done()

    def test_submit_does_not_block(self):
        with BatchEngine() as engine:
            start = time.monotonic()
            handle = engine.submit(SleepJob(0.5, "late"))
            submit_cost = time.monotonic() - start
            assert submit_cost < 0.3
            assert not handle.done()
            assert handle.result(timeout=10).value == "late"

    def test_result_timeout_raises(self):
        with BatchEngine(workers=2) as engine:
            handle = engine.submit(SleepJob(30.0))
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.1)

    def test_cache_hit_resolves_immediately(self):
        with BatchEngine() as engine:
            job = ContainmentJob(_omq("q(x) :- T(x)"), _omq("q(x) :- P(x)"))
            cold = engine.submit(job).result(timeout=60)
            warm = engine.submit(job)
            assert warm.done()  # no pool round-trip at all
            assert warm.result().cached
            assert warm.result().value.verdict is cold.value.verdict


class TestCanonicalDedup:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_alpha_renamed_batch_executes_once(self, start_method):
        variants = _alpha_variants()
        target = _omq("q(x) :- P(x)")
        jobs = [ContainmentJob(v, target) for v in variants]
        assert len({j.cache_key() for j in jobs}) == 1
        with BatchEngine(workers=2, start_method=start_method) as engine:
            handles = engine.submit_batch(jobs)
            results = [h.result(timeout=120) for h in handles]
            snap = engine.stats()["metrics"]
        assert snap["engine.containment.runs"] == 1
        assert snap["engine.dedup.coalesced"] == len(jobs) - 1
        verdicts = {r.value.verdict for r in results}
        assert verdicts == {Verdict.CONTAINED}
        assert [r.coalesced for r in results] == [False, True, True, True]
        # Every handle keeps its own job identity despite sharing the run.
        assert [r.job for r in results] == jobs

    def test_serial_engine_dedups_too(self):
        variants = _alpha_variants()
        jobs = [ContainmentJob(v, _omq("q(x) :- P(x)")) for v in variants]
        with BatchEngine() as engine:
            results = engine.run_batch(jobs)
            snap = engine.stats()["metrics"]
        assert snap["engine.containment.runs"] == 1
        assert snap["engine.dedup.coalesced"] == len(jobs) - 1
        assert all(r.value.verdict is Verdict.CONTAINED for r in results)

    def test_inflight_submission_coalesces(self):
        # Not a batch: two independent submit() calls, the second arriving
        # while the first is still computing, land on one flight.
        with BatchEngine() as engine:
            first = engine.submit(_SlowKeyedJob("x"))
            second = engine.submit(_SlowKeyedJob("x"))
            r1 = first.result(timeout=10)
            r2 = second.result(timeout=10)
            snap = engine.stats()["metrics"]
        assert r1.value == r2.value == "value:x"
        assert not r1.coalesced and r2.coalesced
        assert snap["engine.slowkeyed.runs"] == 1
        assert snap["engine.dedup.coalesced"] == 1

    def test_distinct_keys_do_not_coalesce(self):
        with BatchEngine() as engine:
            handles = engine.submit_batch(
                [_SlowKeyedJob("x", 0.05), _SlowKeyedJob("y", 0.05)]
            )
            for h in handles:
                h.result(timeout=10)
            snap = engine.stats()["metrics"]
        assert snap["engine.slowkeyed.runs"] == 2
        assert snap.get("engine.dedup.coalesced", 0) == 0

    def test_scheduler_lifecycle_counters(self):
        variants = _alpha_variants()
        jobs = [ContainmentJob(v, _omq("q(x) :- P(x)")) for v in variants]
        with BatchEngine() as engine:
            engine.run_batch(jobs)
            engine.run_batch(jobs)  # warm: all four are cache hits now
            snap = engine.stats()["metrics"]
        assert snap["engine.scheduler.submitted"] == 8
        assert snap["engine.scheduler.dispatched"] == 1
        assert snap["engine.scheduler.completed"] == 8
        # Warm batch: within-batch dedup absorbs the duplicates before the
        # cache is consulted, so only the batch's first copy counts a hit.
        assert snap["engine.containment.cache_hits"] == 1
        assert snap["engine.dedup.coalesced"] == 6
        inflight = snap["engine.scheduler.inflight"]
        assert inflight["value"] == 0  # nothing left scheduled
        assert inflight["high_water"] == 1


class TestStreaming:
    def test_results_stream_in_completion_order(self):
        with BatchEngine(workers=2) as engine:
            slow = engine.submit(SleepJob(0.6, "slow"))
            fast = engine.submit(SleepJob(0.05, "fast"))
            order = [
                h.result().value
                for h in engine.as_completed([slow, fast], timeout=30)
            ]
        assert order == ["fast", "slow"]

    def test_first_result_arrives_before_batch_completes(self):
        # The acceptance criterion for `repro batch --stream`: a streamed
        # outcome is observable while other jobs are still running.
        with BatchEngine(workers=2) as engine:
            handles = engine.submit_batch(
                [SleepJob(0.8, "slow"), SleepJob(0.05, "fast")]
            )
            stream = engine.as_completed(handles, timeout=30)
            first = next(stream)
            assert first.result().value == "fast"
            assert not handles[0].done()  # the batch is NOT finished
            rest = [h.result().value for h in stream]
        assert rest == ["slow"]

    def test_stream_timeout_raises_with_stragglers_pending(self):
        with BatchEngine(workers=2) as engine:
            handles = engine.submit_batch([SleepJob(0.05), SleepJob(30.0)])
            stream = engine.as_completed(handles, timeout=0.5)
            next(stream)  # the fast one arrives fine
            with pytest.raises(TimeoutError):
                next(stream)

    def test_stream_covers_cached_and_coalesced_handles(self):
        variants = _alpha_variants()
        jobs = [ContainmentJob(v, _omq("q(x) :- P(x)")) for v in variants]
        with BatchEngine() as engine:
            handles = engine.submit_batch(jobs)
            seen = set()
            for h in engine.as_completed(handles, timeout=120):
                seen.add(id(h))
            assert seen == {id(h) for h in handles}


class TestCancellation:
    def test_cancel_pending_job(self):
        with BatchEngine() as engine:
            blocker = engine.submit(SleepJob(0.4, "blocker"))
            doomed = engine.submit(SleepJob(30.0, "doomed"))
            assert doomed.cancel()
            result = doomed.result(timeout=1)
            assert result.error == "cancelled"
            assert not result.ok
            assert blocker.result(timeout=10).value == "blocker"
            snap = engine.stats()["metrics"]
        assert snap["engine.scheduler.cancelled"] == 1

    def test_cancel_resolved_handle_returns_false(self):
        with BatchEngine() as engine:
            handle = engine.submit(SleepJob(0.01, "x"))
            handle.result(timeout=10)
            assert not handle.cancel()

    def test_cancelled_containment_degrades_to_unknown(self):
        with BatchEngine() as engine:
            blocker = engine.submit(SleepJob(0.4))
            doomed = engine.submit(
                ContainmentJob(_omq("q(x) :- T(x)"), _omq("q(x) :- P(x)"))
            )
            assert doomed.cancel()
            result = doomed.result(timeout=1)
            blocker.result(timeout=10)
        assert result.value.verdict is Verdict.UNKNOWN
        assert "cancelled" in result.value.detail

    def test_cancel_one_coalesced_handle_spares_the_others(self):
        with BatchEngine() as engine:
            first = engine.submit(_SlowKeyedJob("shared"))
            second = engine.submit(_SlowKeyedJob("shared"))
            assert second.cancel()
            assert second.result(timeout=1).error == "cancelled"
            # The primary handle still gets the real value.
            assert first.result(timeout=10).value == "value:shared"

    def test_cancelling_a_queued_flight_skips_the_pool(self):
        # A flight cancelled while still in the ready queue is retired
        # without the pool ever hearing about it: dispatched stays at 1.
        with BatchEngine(workers=1, max_inflight=1) as engine:
            blocker = engine.submit(SleepJob(0.3, "blocker"))
            doomed = engine.submit(SleepJob(30.0, "doomed"), priority="low")
            assert doomed.cancel()
            assert doomed.result(timeout=1).error == "cancelled"
            assert blocker.result(timeout=10).value == "blocker"
            snap = engine.stats()["metrics"]
        assert snap["engine.scheduler.dispatched"] == 1
        assert snap["engine.scheduler.cancelled"] == 1
        assert snap["engine.scheduler.priority.queued"]["value"] == 0
        assert snap["engine.scheduler.inflight"]["value"] == 0


class TestPriorityScheduling:
    """Class-based priorities, weighted fair share, and aging.

    Every test pins ``workers=1, max_inflight=1`` so exactly one flight
    occupies the dispatch window while the rest wait in the ready queue —
    with a single worker, completion order *is* dispatch order, which
    makes the scheduler's ranking directly observable.
    """

    def test_high_overtakes_queued_low_backlog(self):
        with BatchEngine(
            workers=1, max_inflight=1, aging_interval=None
        ) as engine:
            blocker = engine.submit(SleepJob(0.5, "blocker"))
            lows = [
                engine.submit(SleepJob(0.02, f"low{i}"), priority="low")
                for i in range(3)
            ]
            high = engine.submit(
                SleepJob(0.02, "high"), priority=Priority.HIGH
            )
            order = [
                h.result().value
                for h in engine.as_completed(
                    [blocker, *lows, high], timeout=60
                )
            ]
            snap = engine.stats()["metrics"]
        assert order[0] == "blocker"
        # HIGH jumps the whole LOW backlog; LOWs stay FIFO among equals.
        assert order[1] == "high"
        assert order[2:] == ["low0", "low1", "low2"]
        assert snap["engine.scheduler.priority.dispatched.high"] == 1
        assert snap["engine.scheduler.priority.dispatched.normal"] == 1
        assert snap["engine.scheduler.priority.dispatched.low"] == 3
        assert snap["engine.scheduler.priority.queued"]["value"] == 0
        assert "engine.scheduler.queue_wait" in snap

    def test_priority_spellings(self):
        with BatchEngine(workers=1, max_inflight=1) as engine:
            assert (
                engine.submit(SleepJob(0.0, "s"), priority="high")
                .result(timeout=10).value == "s"
            )
            assert (
                engine.submit(SleepJob(0.0, "i"), priority=2)
                .result(timeout=10).value == "i"
            )
            with pytest.raises(ValueError, match="urgent"):
                engine.submit(SleepJob(0.0), priority="urgent")

    def test_weighted_fair_share_between_submitters(self):
        # Stride scheduling: each dispatch charges the winner 1/weight on
        # its pass clock, so weight 2 earns two slots per weight-1 slot.
        with BatchEngine(
            workers=1, max_inflight=1, aging_interval=None
        ) as engine:
            engine.scheduler.set_weight("a", 2.0)
            blocker = engine.submit(SleepJob(0.5, "blocker"))
            handles = [
                engine.submit(SleepJob(0.01, f"a{i}"), submitter="a")
                for i in range(4)
            ] + [
                engine.submit(SleepJob(0.01, f"b{i}"), submitter="b")
                for i in range(4)
            ]
            order = [
                h.result().value
                for h in engine.as_completed([blocker] + handles, timeout=60)
            ]
        assert order[0] == "blocker"
        assert order[1:] == ["a0", "b0", "a1", "a2", "b1", "a3", "b2", "b3"]

    def test_equal_weights_alternate(self):
        with BatchEngine(
            workers=1, max_inflight=1, aging_interval=None
        ) as engine:
            blocker = engine.submit(SleepJob(0.5, "blocker"))
            handles = [
                engine.submit(SleepJob(0.01, f"a{i}"), submitter="a")
                for i in range(3)
            ] + [
                engine.submit(SleepJob(0.01, f"b{i}"), submitter="b")
                for i in range(3)
            ]
            order = [
                h.result().value
                for h in engine.as_completed([blocker] + handles, timeout=60)
            ]
        assert order[1:] == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_weight_must_be_positive(self):
        with BatchEngine(workers=1) as engine:
            with pytest.raises(ValueError, match="positive"):
                engine.scheduler.set_weight("a", 0.0)
            with pytest.raises(ValueError, match="positive"):
                engine.scheduler.set_weight("a", -1.0)

    def test_aging_rescues_a_starved_low_flight(self):
        # A LOW flight that has waited long enough is promoted one class
        # per aging_interval — here all the way to HIGH — so a later HIGH
        # submission cannot jump it (FIFO breaks the tie among equals).
        with BatchEngine(
            workers=1, max_inflight=1, aging_interval=0.05
        ) as engine:
            blocker = engine.submit(SleepJob(0.4, "blocker"))
            low = engine.submit(SleepJob(0.01, "low"), priority="low")
            time.sleep(0.25)
            high = engine.submit(SleepJob(0.01, "high"), priority="high")
            order = [
                h.result().value
                for h in engine.as_completed([blocker, low, high], timeout=60)
            ]
            snap = engine.stats()["metrics"]
        assert order == ["blocker", "low", "high"]
        assert snap["engine.scheduler.priority.aged"] >= 1
        # The aged LOW dispatch is accounted under its *effective* class.
        assert snap["engine.scheduler.priority.dispatched.high"] == 2

    def test_coalescing_promotes_a_queued_flight(self):
        # A HIGH rider attaching to a queued LOW flight promotes it: the
        # flight runs at the most urgent class anyone riding it asked for.
        with BatchEngine(
            workers=1, max_inflight=1, aging_interval=None
        ) as engine:
            blocker = engine.submit(SleepJob(0.5, "blocker"))
            other = engine.submit(
                _SlowKeyedJob("other", 0.01), priority="low"
            )
            shared = engine.submit(
                _SlowKeyedJob("shared", 0.01), priority="low"
            )
            rider = engine.submit(
                _SlowKeyedJob("shared", 0.01), priority="high"
            )
            order = [
                h.result().value
                for h in engine.as_completed(
                    [blocker, other, shared, rider], timeout=60
                )
            ]
            snap = engine.stats()["metrics"]
        # Without promotion "other" (earlier seq, same class) runs first.
        assert order == [
            "blocker", "value:shared", "value:shared", "value:other"
        ]
        assert snap["engine.dedup.coalesced"] == 1
        assert snap["engine.slowkeyed.runs"] == 2


class TestCoalescedOnto:
    """`JobHandle.coalesced_onto`: who a rider's computation belongs to."""

    def test_primary_handle_has_no_primary(self):
        with BatchEngine() as engine:
            handle = engine.submit(SleepJob(0.01, "x"))
            assert handle.coalesced_onto is None
            handle.result(timeout=10)

    def test_rider_points_at_the_primary(self):
        with BatchEngine() as engine:
            blocker = engine.submit(SleepJob(0.3, "blocker"))
            primary = engine.submit(_SlowKeyedJob("shared", 0.01))
            rider = engine.submit(_SlowKeyedJob("shared", 0.01))
            assert rider.coalesced_onto is primary
            assert primary.coalesced_onto is None
            # The link survives resolution (useful for post-hoc audit).
            rider.result(timeout=10)
            assert rider.coalesced_onto is primary
            blocker.result(timeout=10)

    def test_batch_attach_riders_point_at_their_primary(self):
        q = _alpha_variants()
        target = _omq("q(x) :- P(x)")
        with BatchEngine() as engine:
            handles = engine.submit_batch(
                [ContainmentJob(v, target) for v in q]
            )
            primary = handles[0]
            assert primary.coalesced_onto is None
            for rider in handles[1:]:
                assert rider.coalesced_onto is primary
            for h in handles:
                assert h.result(timeout=60).ok


class TestDeadlinePolicy:
    """Budgets: upfront degradation, in-flight expiry, EWMA estimates."""

    def test_budget_below_floor_degrades_immediately(self):
        with BatchEngine() as engine:
            handle = engine.submit(
                ContainmentJob(
                    _omq("q(x) :- R(x, y), P(y)"), _omq("q(x) :- P(x)")
                ),
                deadline=0.05,
            )
            # Resolved inline — no queueing, no pool dispatch.
            assert handle.done()
            result = handle.result(0)
            assert result.error == "deadline"
            assert result.value.verdict is Verdict.UNKNOWN
            snap = engine.stats()["metrics"]
        assert snap["engine.scheduler.deadline.degraded"] == 1
        assert snap.get("engine.containment.runs", 0) == 0
        assert snap.get("engine.scheduler.dispatched", 0) == 0

    def test_cheap_ladder_still_answers_under_any_budget(self):
        q1, q2 = _omq("q(x) :- R(x, y), P(y)"), _omq("q(x) :- P(x)")
        with BatchEngine() as engine:
            first = engine.submit(ContainmentJob(q1, q2))
            assert first.result(timeout=60).ok
            # A hopeless budget is irrelevant when the cache already
            # has the verdict: rung 2 answers before the policy is asked.
            again = engine.submit(ContainmentJob(q1, q2), deadline=0.001)
            result = again.result(timeout=1)
            assert result.cached
            assert result.error is None
            snap = engine.stats()["metrics"]
        assert "engine.scheduler.deadline.degraded" not in snap

    def test_generous_budget_runs_normally(self):
        with BatchEngine() as engine:
            handle = engine.submit(SleepJob(0.01, "fast"), deadline=30.0)
            result = handle.result(timeout=10)
            assert result.ok
            assert result.value == "fast"
            snap = engine.stats()["metrics"]
        assert "engine.scheduler.deadline.expired" not in snap

    def test_admitted_budget_expires_in_flight(self):
        # Sleep estimates start at the floor; a 0.3s budget admits the
        # job, but the 30s sleep blows it: the handle is abandoned with
        # the deadline result while the worker keeps going.
        with BatchEngine() as engine:
            blocker = engine.submit(SleepJob(0.2, "blocker"))
            doomed = engine.submit(SleepJob(30.0, "doomed"), deadline=0.3)
            result = doomed.result(timeout=5)
            assert result.error == "deadline"
            assert blocker.result(timeout=10).value == "blocker"
            snap = engine.stats()["metrics"]
        assert snap["engine.scheduler.deadline.expired"] == 1

    def test_ewma_learns_observed_durations(self):
        with BatchEngine() as engine:
            scheduler = engine.scheduler
            floor = scheduler.deadline_policy.floor_s
            assert scheduler.estimated_cost("sleep") == floor
            engine.submit(SleepJob(0.01, "a")).result(timeout=10)
            # Fast observations never pull the estimate below the floor.
            assert scheduler.estimated_cost("sleep") == floor
            scheduler._observe_cost("sleep", 10.0)
            assert scheduler.estimated_cost("sleep") > floor

    def test_estimate_gates_admission(self):
        from repro.engine import DeadlinePolicy

        with BatchEngine(
            deadline_policy=DeadlinePolicy(floor_s=0.01)
        ) as engine:
            scheduler = engine.scheduler
            scheduler._observe_cost("sleep", 5.0)
            # Budget below the learned estimate: refused upfront.
            refused = engine.submit(SleepJob(0.01, "x"), deadline=1.0)
            assert refused.done()
            assert refused.result(0).error == "deadline"
            # Budget above it: admitted and completed.
            admitted = engine.submit(SleepJob(0.01, "y"), deadline=30.0)
            assert admitted.result(timeout=10).value == "y"


def _path_omq(length: int) -> OMQ:
    body = ", ".join(f"E(x{i}, x{i + 1})" for i in range(length))
    return OMQ(Schema.of(E=2), (), parse_cq(f"q() :- {body}"))


class TestLadderOrder:
    """Every hash-keyed tier answers before the witness store's
    cross-pair scan evaluates anything: a cached or catalog answer pays
    no hom-check whose result it cannot use."""

    def _plant_same_lhs_witness(self, engine, q1, other):
        """Record a genuine witness for ``q1 ⊄ other``: a stored pair
        sharing q1's LHS hash, so the scan has a candidate for q1."""
        from repro.containment.dispatch import contains
        from repro.engine.canon import hash_omq

        verdict = contains(q1, other)
        assert verdict.verdict is Verdict.NOT_CONTAINED
        engine.witness_store.record(
            hash_omq(q1), hash_omq(other), verdict.witness, q1=q1, q2=other
        )

    def test_cache_answers_before_the_scan(self, tmp_path):
        long, short = _path_omq(3), _path_omq(2)
        with BatchEngine(
            cache_dir=str(tmp_path / "cache"),
            witness_store=str(tmp_path / "w.sqlite"),
        ) as engine:
            first = engine.contains(long, short)
            assert first.value.verdict is Verdict.CONTAINED
            assert not first.cached
            self._plant_same_lhs_witness(engine, long, _path_omq(4))
            again = engine.contains(long, short)
            assert again.cached
            assert again.value.verdict is Verdict.CONTAINED
            snap = engine.stats()["metrics"]
            assert snap["engine.containment.cache_hits"] == 1
            assert snap.get("engine.witness.replays", 0) == 0
            assert snap.get("engine.witness.structural.attempts", 0) == 0

    def test_catalog_answers_before_the_scan(self, tmp_path):
        schema = Schema.of(E=2)
        query = parse_cq("q(x) :- P(x)")
        q1 = OMQ(schema, tuple(parse_tgds("E(x, y) -> P(x)")), query)
        q2 = OMQ(
            schema,
            tuple(parse_tgds("E(x, y) -> P(x)\nP(x) -> P(x)")),
            query,
        )
        incoming = OMQ(schema, (), parse_cq("q(x) :- E(y, x)"))
        with BatchEngine(
            catalog=str(tmp_path / "cat.sqlite"),
            witness_store=str(tmp_path / "w.sqlite"),
        ) as engine:
            engine.contains(q1, q2)
            engine.contains(q2, q1)
            assert engine.stats()["catalog"]["groups"] == 1
            self._plant_same_lhs_witness(engine, q1, incoming)
            again = engine.contains(q1, q2)
            assert again.value.method == "catalog-equivalence"
            snap = engine.stats()["metrics"]
            assert snap["engine.catalog.short_circuits"] == 1
            assert snap.get("engine.witness.replays", 0) == 0
            assert snap.get("engine.witness.structural.attempts", 0) == 0
