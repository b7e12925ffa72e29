"""Randomized differential testing of the containment procedures.

The harness draws seeded random OMQ pairs from :mod:`repro.generators`
(linear / non-recursive / sticky / guarded / propositional) and checks,
for every pair, that

* every *applicable* procedure — the dispatch front door, the
  small-witness algorithm (UCQ-rewritable LHS), the layered guarded
  procedure (guarded LHS), exhaustive propositional enumeration (0-ary
  data schema) — agrees with every other on decided verdicts (UNKNOWN
  never contradicts anything);
* decided verdicts agree with the kernel-free oracle of ``tests/oracle.py``
  (a chase by rounds of random databases, then nested-loop matching; no
  homomorphism kernel, no join planning), so CONTAINED implies
  ``Q1(D) ⊆ Q2(D)`` on every sampled database;
* NOT_CONTAINED verdicts ship a witness the oracle can replay:
  ``c̄ ∈ Q1(D)`` and ``c̄ ∉ Q2(D)`` on the reported database;
* construction-time knowledge is respected: α-pairs and specialized
  pairs (Q1 = Q2's query plus conjuncts, over an α-renamed ontology —
  so Σ1 ⊆ Σ2 fails syntactically) are never reported NOT_CONTAINED;
* the front door's entailment check, which proves such pairs before any
  procedure runs, answers at least once — and the procedures are still
  run directly on the same pairs.

Run size, seed, and wall-clock budget come from the command line::

    pytest tests/test_differential.py --seed 7 --diff-cases 500

A failing case prints its (seed, case index) so it replays exactly.
"""

from __future__ import annotations

import contextlib
import random
import signal
import time
from collections import Counter

import pytest

import oracle
from repro.containment.dispatch import contains
from repro.containment.guarded import contains_guarded
from repro.containment.propositional import (
    contains_propositional,
    is_propositional,
)
from repro.containment.result import Verdict
from repro.containment.small_witness import contains_via_small_witness
from repro.core.omq import UCQ_REWRITABLE_CLASSES
from repro.engine.canon import hash_omq
from repro.fragments.classify import best_class
from repro.fragments.guarded import is_guarded, is_linear
from repro.fragments.nonrecursive import is_non_recursive
from repro.fragments.sticky import is_sticky
from repro.generators import (
    FRAGMENTS,
    alpha_rename,
    random_database,
    random_omq,
    random_omq_pair,
)

#: Chase step budget for the oracle; a draw whose chase outgrows it is
#: skipped (counted), never trusted.
ORACLE_CHASE_STEPS = 400

#: Procedure-side budgets — small, so pathological draws degrade to
#: UNKNOWN instead of stalling the suite (a random guarded set can make
#: the default XRewrite budget take minutes on a single pair).
PROC_CHASE_STEPS = 2_000
PROC_REWRITING_BUDGET = 200

#: Wall-clock guard per drawn pair.  XRewrite's query budget bounds how
#: many rewritings it *keeps*, not how many candidate subsets it
#: *enumerates* — a rare draw can make that enumeration explode — so the
#: harness abandons any case that overruns this and counts it instead.
CASE_TIMEOUT_S = 5.0

#: Weights for drawing pair modes: mostly independent pairs (maximum
#: verdict diversity), with steady streams of known-answer pairs.
_MODES = ("independent", "independent", "specialized", "alpha")


class _CaseTimeout(Exception):
    pass


@contextlib.contextmanager
def case_deadline(seconds):
    """Raise :class:`_CaseTimeout` in the main thread after *seconds*.

    SIGALRM-based, so it interrupts pure-Python loops the cooperative
    budgets inside the procedures cannot see.  A no-op on platforms
    without ``setitimer``.
    """
    if not hasattr(signal, "setitimer"):  # pragma: no cover - POSIX CI
        yield
        return

    def _alarm(signum, frame):
        raise _CaseTimeout()

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def applicable_procedures(q1):
    """Name → callable for every procedure that may decide this pair."""
    procedures = {
        "dispatch": lambda a, b: contains(
            a,
            b,
            chase_max_steps=PROC_CHASE_STEPS,
            rewriting_budget=PROC_REWRITING_BUDGET,
        )
    }
    if best_class(q1.sigma) in UCQ_REWRITABLE_CLASSES:
        procedures["small_witness"] = lambda a, b: contains_via_small_witness(
            a,
            b,
            chase_max_steps=PROC_CHASE_STEPS,
            rewriting_budget=PROC_REWRITING_BUDGET,
        )
    if is_guarded(q1.sigma):
        procedures["guarded"] = lambda a, b: contains_guarded(
            a,
            b,
            chase_max_steps=PROC_CHASE_STEPS,
            rewriting_budget=PROC_REWRITING_BUDGET,
        )
    if is_propositional(q1):
        procedures["propositional"] = lambda a, b: contains_propositional(
            a, b, chase_max_steps=PROC_CHASE_STEPS
        )
    return procedures


def _check_oracle(q1, q2, verdicts, results, stats, oracle_seeds, context):
    """Cross-check decided verdicts against the oracle."""
    checked = False
    for sample_seed in oracle_seeds:
        db = random_database(
            q1.data_schema,
            n_constants=3,
            n_atoms=4,
            seed=sample_seed,
        )
        ans1 = oracle.certain_answers(q1, db, max_steps=ORACLE_CHASE_STEPS)
        ans2 = oracle.certain_answers(q2, db, max_steps=ORACLE_CHASE_STEPS)
        if ans1 is None or ans2 is None:
            stats["oracle_skipped"] += 1
            continue
        checked = True
        if Verdict.CONTAINED in verdicts:
            assert ans1 <= ans2, (
                f"{context}: CONTAINED but Q1(D) ⊄ Q2(D) on sampled "
                f"D={db}; extra answers: {ans1 - ans2}"
            )
    # NOT_CONTAINED must come with a replayable counterexample.
    for name, result in results.items():
        if result.verdict is not Verdict.NOT_CONTAINED:
            continue
        witness = result.witness
        assert witness is not None, f"{context}: {name} lost its witness"
        if not witness.database.is_database():
            stats["oracle_skipped"] += 1
            continue
        wans1 = oracle.certain_answers(
            q1, witness.database, max_steps=ORACLE_CHASE_STEPS
        )
        wans2 = oracle.certain_answers(
            q2, witness.database, max_steps=ORACLE_CHASE_STEPS
        )
        if wans1 is None or wans2 is None:
            stats["oracle_skipped"] += 1
            continue
        checked = True
        assert witness.answer in wans1, (
            f"{context}: {name} witness answer not certain for Q1"
        )
        assert witness.answer not in wans2, (
            f"{context}: {name} witness answer IS certain for Q2 — "
            "not a counterexample"
        )
    if checked:
        stats["oracle_checked"] += 1


def test_differential_containment(diff_options):
    """≥ --diff-cases random pairs: procedures agree with each other and
    with the oracle; zero disagreements tolerated."""
    seed, cases, time_cap = diff_options
    rng = random.Random(seed)
    deadline = time.monotonic() + time_cap
    stats = Counter()
    for case in range(cases):
        if time.monotonic() > deadline:
            stats["time_capped"] = 1
            break
        fragment = rng.choice(FRAGMENTS)
        mode = rng.choice(_MODES)
        q1, q2, expected = random_omq_pair(fragment, rng, mode)
        # Drawn up front so a timed-out case does not shift the stream.
        oracle_seeds = [rng.randrange(2**31) for _ in range(2)]
        context = f"seed={seed} case={case} fragment={fragment} mode={mode}"
        stats["cases"] += 1
        stats[f"fragment:{fragment}"] += 1
        stats[f"mode:{mode}"] += 1

        try:
            with case_deadline(CASE_TIMEOUT_S):
                results = {
                    name: proc(q1, q2)
                    for name, proc in applicable_procedures(q1).items()
                }
        except _CaseTimeout:
            stats["proc_timeout"] += 1
            continue
        assert len(results) >= 1
        verdicts = {
            r.verdict for r in results.values() if r.verdict is not Verdict.UNKNOWN
        }
        # The differential core: decided procedures never disagree.
        assert len(verdicts) <= 1, (
            f"{context}: procedures disagree: "
            + ", ".join(
                f"{n}={r.verdict.name}({r.method})"
                for n, r in sorted(results.items())
            )
        )
        if not verdicts:
            stats["all_unknown"] += 1
        stats[f"method:{results['dispatch'].method}"] += 1
        for v in verdicts:
            stats[f"verdict:{v.name}"] += 1

        # Construction-time knowledge: these pairs are contained.
        if expected in ("contained", "equivalent"):
            assert Verdict.NOT_CONTAINED not in verdicts, (
                f"{context}: expected {expected}, got NOT_CONTAINED"
            )
        if expected == "equivalent":
            assert hash_omq(q1) == hash_omq(q2), (
                f"{context}: α-pair hashes differ"
            )

        _check_oracle(
            q1, q2, verdicts, results, stats, oracle_seeds, context
        )

    # The run must have real coverage, not just survive.  A handful of
    # timed-out draws is expected; wholesale timeouts are not.
    assert stats["cases"] >= min(cases, 50), dict(stats)
    assert stats["proc_timeout"] <= stats["cases"] // 10, dict(stats)
    if not stats["time_capped"]:
        assert stats["cases"] == cases
    assert stats["oracle_checked"] > stats["cases"] // 10, dict(stats)
    assert stats["verdict:CONTAINED"] > 0, dict(stats)
    assert stats["verdict:NOT_CONTAINED"] > 0, dict(stats)
    assert stats["method:entailment"] > 0, dict(stats)


# -- deterministic spot checks on the generators themselves -----------------


@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_random_omq_lands_in_fragment(fragment):
    """Every draw passes the library's own classifier for its fragment."""
    checkers = {
        "linear": is_linear,
        "non_recursive": is_non_recursive,
        "sticky": is_sticky,
        "guarded": is_guarded,
    }
    rng = random.Random(99)
    for _ in range(10):
        omq = random_omq(fragment, rng)
        if fragment == "propositional":
            assert is_propositional(omq)
        else:
            assert checkers[fragment](omq.sigma)
        assert omq.query.head == tuple(
            t for t in omq.query.head
        )  # safe head survived CQ validation


def test_alpha_rename_is_canonical_noop():
    rng = random.Random(3)
    for fragment in FRAGMENTS:
        omq = random_omq(fragment, rng)
        assert hash_omq(alpha_rename(omq, rng)) == hash_omq(omq)


def test_specialized_pair_defeats_subsumption_shortcut():
    """The α-renamed ontology makes Σ1 ⊆ Σ2 fail syntactically, so the
    specialized mode really exercises the full procedures."""
    rng = random.Random(11)
    syntactic_subsets = 0
    for _ in range(20):
        q1, q2, expected = random_omq_pair("linear", rng, "specialized")
        assert expected == "contained"
        if set(q1.sigma) <= set(q2.sigma):
            syntactic_subsets += 1
    assert syntactic_subsets < 20


def test_pair_mode_and_fragment_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_omq("datalog", rng)
    with pytest.raises(ValueError):
        random_omq_pair("linear", rng, mode="bogus")
