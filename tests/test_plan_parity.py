"""Planner parity: cost-based join orders never change what is computed.

The cost-based planner (:mod:`repro.kernel.plan`) re-orders joins from
live cardinality statistics; by design the *answer set* of every search —
and therefore every decision layer above it — is order-independent.  This
suite pins that contract against the kernel-free reference in
``tests/oracle.py``:

* planned OMQ evaluation returns the oracle's certain answers across all
  five generator fragments;
* the planned delta chase makes the oracle's chase by rounds, step for
  step — same instance, steps, log, levels and termination;
* the plan cache actually caches (hits on repetition, invalidates with
  ``repro.clear_caches``), and the skewed-cardinality shape that defeats
  a syntax-driven ordering is planned small-relation-first.
"""

from __future__ import annotations

import random
import zlib

import pytest

import oracle
import repro
from repro.chase.engine import chase
from repro.core.atoms import atom, fact
from repro.core.instance import Instance
from repro.core.terms import Constant, Variable
from repro.evaluation import evaluate_omq
from repro.generators.databases import random_database
from repro.generators.random_omqs import FRAGMENTS, random_omq
from repro.kernel import KERNEL_METRICS, WorkingInstance, compiled_search
from repro.kernel.plan import cost_order

x, y, w1, w2, w3 = (Variable(n) for n in ("x", "y", "w1", "w2", "w3"))


def _hits(search, target):
    return sorted(str(h) for h in search.search(target))


@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_cost_and_greedy_evaluation_agree(fragment):
    """Planned evaluation returns the oracle's certain answers, exactly.

    The draws are those on which planned and greedy join orders were once
    compared; the greedy order is gone, and the oracle takes its place.
    """
    # crc32, not the per-process salted hash(): every run draws the same OMQs.
    rng = random.Random(zlib.crc32(fragment.encode()) & 0xFFFF)
    for trial in range(8):
        omq = random_omq(fragment, rng)
        db = random_database(omq.data_schema, 6, 14, seed=trial)
        repro.clear_caches()
        result = evaluate_omq(omq, db)
        expected = oracle.certain_answers(omq, db, max_steps=5_000)
        assert expected is not None, (fragment, trial, omq)
        assert result.exact, (fragment, trial, omq)
        assert result.answers == expected, (fragment, trial, omq)


def _chases_match_oracle(seed):
    rng = random.Random(seed)
    for trial in range(6):
        fragment = FRAGMENTS[trial % len(FRAGMENTS)]
        omq = random_omq(fragment, rng)
        db = random_database(omq.data_schema, 5, 10, seed=trial)
        repro.clear_caches()
        assert oracle.run_of(chase(db, omq.sigma, max_steps=5_000)) == (
            oracle.run_of(oracle.chase(db, omq.sigma, max_steps=5_000))
        ), (fragment, trial, omq)


def test_delta_chase_matches_oracle_chase():
    """The delta chase makes the oracle's naive chase by rounds.  (These
    draws once compared the delta and naive chases under each planner.)"""
    _chases_match_oracle(99)


def test_planned_chase_is_step_identical_to_greedy_chase():
    """The planned chase makes the oracle's run — same step log, same
    nulls — whichever join orders the planner chose: triggers are sorted
    before firing, so this is the pinned contract.  (The name is from
    when these draws compared planned and greedy join orders.)"""
    _chases_match_oracle(7)


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
    # Counting unbound slots would start at Big (2 against 4); the cost
    # estimate sees 400 facts against 4 and starts at Wide.
    assert search.source[planned[0]].predicate == "Wide"
    # And the planned search enumerates exactly the oracle's matches.
    want = sorted(str(h) for h in oracle.homomorphisms(body, work.snapshot()))
    assert _hits(search, work) == want
    assert len(want) == 4


def test_plan_cache_hits_on_repeated_searches():
    repro.clear_caches()
    work = _skewed_instance(big=50, wide=3)
    body = (atom("Big", x, y), atom("Wide", x, w1, w2, w3))
    search = compiled_search(body)
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
    before = _hits(compiled_search(body), work)
    repro.clear_caches()
    assert _hits(compiled_search(body), work) == before


def test_cardinality_counters_flow_from_chase():
    repro.clear_caches()
    db = Instance.of([fact("P", "a")])
    sigma = repro.parse_tgds("P(x) -> R(x, y)\nR(x, y) -> S(y)")
    chase(db, sigma)
    snap = KERNEL_METRICS.snapshot()
    assert snap.get("kernel.cardinality.P") == 1
    assert snap.get("kernel.cardinality.R") == 1
    assert snap.get("kernel.cardinality.S") == 1


def test_frozen_and_working_targets_agree_under_cost_planner():
    atoms = [fact("E", f"v{i}", f"v{i+1}") for i in range(12)]
    work = WorkingInstance(atoms)
    frozen = work.snapshot()
    body = (atom("E", x, y), atom("E", y, Variable("z")))
    on_work = _hits(compiled_search(body), work)
    assert on_work == _hits(compiled_search(body), frozen)
    assert len(on_work) == 11


def test_fixed_bindings_pass_through_under_both_planners():
    """Bindings for terms outside the body reach every answer unchanged,
    in the planned search as in the oracle's."""
    work = WorkingInstance([fact("E", "a", "b"), fact("E", "b", "c")])
    body = (atom("E", x, y),)
    fixed = {x: Constant("a"), Variable("unused"): Constant("k")}
    want = [{**fixed, y: Constant("b")}]
    assert list(compiled_search(body).search(work, fixed)) == want
    assert oracle.homomorphisms(body, work.snapshot(), fixed) == want
