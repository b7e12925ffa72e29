"""Planner parity: cost-based join orders never change what is computed.

The cost-based planner (:mod:`repro.kernel.plan`) re-orders joins from
live cardinality statistics; by design the *answer set* of every search —
and therefore every decision layer above it — is order-independent.  This
suite pins that contract with randomized evidence:

* planned (cost) vs greedy OMQ evaluation returns identical answer sets
  across all five generator fragments;
* delta and naive chase agree under the cost planner exactly as they do
  under greedy — same canonical instance, same step count;
* the plan cache actually caches (hits on repetition, invalidates with
  ``repro.clear_caches``), and the skewed-cardinality shape that defeats
  the greedy ordering is planned small-relation-first.
"""

from __future__ import annotations

import random
import zlib

import pytest

import repro
from repro.chase.engine import chase
from repro.core.atoms import atom, fact
from repro.core.instance import Instance
from repro.core.terms import Constant, Variable
from repro.engine.canon import hash_instance
from repro.evaluation import evaluate_omq
from repro.generators.databases import random_database
from repro.generators.random_omqs import FRAGMENTS, random_omq
from repro.kernel import (
    KERNEL_METRICS,
    WorkingInstance,
    compiled_search,
    use_planner,
)
from repro.kernel.plan import COST, GREEDY, cost_order, greedy_order

x, y, w1, w2, w3 = (Variable(n) for n in ("x", "y", "w1", "w2", "w3"))


def _answers(omq, db, mode):
    repro.clear_caches()
    with use_planner(mode):
        result = evaluate_omq(omq, db)
    return result.answers, result.method


@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_cost_and_greedy_evaluation_agree(fragment):
    # crc32, not the per-process salted hash(): every run draws the same OMQs.
    rng = random.Random(zlib.crc32(fragment.encode()) & 0xFFFF)
    for trial in range(8):
        omq = random_omq(fragment, rng)
        db = random_database(omq.data_schema, 6, 14, seed=trial)
        got_cost, method_cost = _answers(omq, db, COST)
        got_greedy, method_greedy = _answers(omq, db, GREEDY)
        assert got_cost == got_greedy, (fragment, trial, omq)
        # Same strategy dispatch too: planning is invisible above the kernel.
        assert method_cost == method_greedy


@pytest.mark.parametrize("mode", [COST, GREEDY])
def test_delta_and_naive_chase_agree_under_planner(mode):
    rng = random.Random(99)
    for trial in range(6):
        fragment = FRAGMENTS[trial % len(FRAGMENTS)]
        omq = random_omq(fragment, rng)
        db = random_database(omq.data_schema, 5, 10, seed=trial)
        repro.clear_caches()
        with use_planner(mode):
            delta = chase(db, omq.sigma, strategy="delta", max_steps=5_000)
            naive = chase(db, omq.sigma, strategy="naive", max_steps=5_000)
        assert delta.steps == naive.steps
        assert hash_instance(delta.instance) == hash_instance(naive.instance)


def test_planned_chase_is_step_identical_to_greedy_chase():
    # Stronger than answer parity: the chase must produce the same run —
    # same step log, same nulls — whichever planner chose the join orders
    # (triggers are sorted before firing, so this is the pinned contract).
    rng = random.Random(7)
    for trial in range(6):
        fragment = FRAGMENTS[trial % len(FRAGMENTS)]
        omq = random_omq(fragment, rng)
        db = random_database(omq.data_schema, 5, 10, seed=trial)
        repro.clear_caches()
        with use_planner(COST):
            planned = chase(db, omq.sigma, max_steps=5_000)
        repro.clear_caches()
        with use_planner(GREEDY):
            greedy = chase(db, omq.sigma, max_steps=5_000)
        assert planned.steps == greedy.steps
        assert planned.log == greedy.log
        assert planned.instance == greedy.instance


def _skewed_instance(big=400, wide=4):
    atoms = [fact("Big", f"a{i}", f"b{i % 7}") for i in range(big)]
    atoms += [fact("Wide", f"a{i}", f"p{i}", f"q{i}", f"r{i}") for i in range(wide)]
    return WorkingInstance(atoms)


def test_cost_order_puts_small_relation_first_on_skewed_instance():
    work = _skewed_instance()
    body = (atom("Big", x, y), atom("Wide", x, w1, w2, w3))
    search = compiled_search(body)
    search.ensure_compiled()
    planned = cost_order(search, work, frozenset())
    greedy = greedy_order(search, frozenset())
    # Greedy counts unbound slots: Big (2) beats Wide (4).  Cost sees 400
    # facts vs 4 and reverses the join.
    assert search.source[greedy[0]].predicate == "Big"
    assert search.source[planned[0]].predicate == "Wide"
    # And both orders enumerate the same matches.
    with use_planner(COST):
        cost_hits = sorted(str(h) for h in search.search(work))
    with use_planner(GREEDY):
        greedy_hits = sorted(str(h) for h in search.search(work))
    assert cost_hits == greedy_hits
    assert len(cost_hits) == 4


def test_plan_cache_hits_on_repeated_searches():
    repro.clear_caches()
    work = _skewed_instance(big=50, wide=3)
    body = (atom("Big", x, y), atom("Wide", x, w1, w2, w3))
    search = compiled_search(body)
    with use_planner(COST):
        list(search.search(work))
        before = KERNEL_METRICS.snapshot().get("kernel.plan.hits", 0)
        for _ in range(5):
            list(search.search(work))
    snap = KERNEL_METRICS.snapshot()
    assert snap.get("kernel.plan.hits", 0) >= before + 5
    assert snap.get("kernel.plan.misses", 0) >= 1


def test_plan_cache_survives_instance_growth_within_regime():
    # The fingerprint buckets statistics by bit length, so adding one fact
    # to a 50-fact relation replans nothing.
    repro.clear_caches()
    work = _skewed_instance(big=50, wide=3)
    body = (atom("Big", x, y), atom("Wide", x, w1, w2, w3))
    search = compiled_search(body)
    with use_planner(COST):
        list(search.search(work))
        work.add(fact("Big", "extra", "b0"))
        misses_before = KERNEL_METRICS.snapshot().get("kernel.plan.misses", 0)
        list(search.search(work))
    assert (
        KERNEL_METRICS.snapshot().get("kernel.plan.misses", 0) == misses_before
    )


def test_clear_caches_invalidates_plans_but_not_answers():
    work = _skewed_instance(big=30, wide=2)
    body = (atom("Big", x, y), atom("Wide", x, w1, w2, w3))
    with use_planner(COST):
        before = sorted(str(h) for h in compiled_search(body).search(work))
        repro.clear_caches()
        after = sorted(str(h) for h in compiled_search(body).search(work))
    assert before == after


def test_cardinality_counters_flow_from_chase():
    repro.clear_caches()
    db = Instance.of([fact("P", "a")])
    sigma = repro.parse_tgds("P(x) -> R(x, y)\nR(x, y) -> S(y)")
    chase(db, sigma, strategy="delta")
    snap = KERNEL_METRICS.snapshot()
    assert snap.get("kernel.cardinality.P") == 1
    assert snap.get("kernel.cardinality.R") == 1
    assert snap.get("kernel.cardinality.S") == 1


def test_frozen_and_working_targets_agree_under_cost_planner():
    atoms = [fact("E", f"v{i}", f"v{i+1}") for i in range(12)]
    work = WorkingInstance(atoms)
    frozen = work.snapshot()
    body = (atom("E", x, y), atom("E", y, Variable("z")))
    with use_planner(COST):
        on_work = sorted(str(h) for h in compiled_search(body).search(work))
        on_frozen = sorted(
            str(h) for h in compiled_search(body).search(frozen)
        )
    assert on_work == on_frozen
    assert len(on_work) == 11


def test_fixed_bindings_pass_through_under_both_planners():
    work = WorkingInstance([fact("E", "a", "b"), fact("E", "b", "c")])
    body = (atom("E", x, y),)
    extra = Variable("unused")
    for mode in (COST, GREEDY):
        with use_planner(mode):
            hits = list(
                compiled_search(body).search(
                    work, {x: Constant("a"), extra: Constant("k")}
                )
            )
    assert hits == [
        {x: Constant("a"), y: Constant("b"), extra: Constant("k")}
    ]
