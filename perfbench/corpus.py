"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed: the same seed gives the
same pairs, the same α-copies and the same request bodies.  The program
only ever receives the generated OMQs (as objects for ``decide_cold``,
as OMQ documents for the two serve workloads).

Why these inputs:

* the paper's families, each against a seeded α-copy of itself, so the
  ``cq-subsumption`` shortcut (syntactic Σ1 ⊆ Σ2) cannot answer and the
  fragment procedure runs;
* ``prop18_family(n)`` against an unsatisfiable side: Proposition 18's
  witness of at least 2^(n−2) facts;
* ``guarded_reachability()`` pairs (and a two-rule variant of it) that
  reach guarded layer 2 (partial rewriting refutes) and layer 3 (bounded
  search over 41 and 298 candidate databases, the latter in four
  spellings);
* ``random_omq_pair`` draws over all five fragments in the independent,
  specialized and alpha modes, picked by the seed from the recorded pool
  of ``perfbench/draws.json`` (see ``perfbench/pool.py``);
* two fixed pairs that trip fault F1 (XRewrite never charges candidates
  it throws away as duplicates), whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Budgets for the guarded reachability pairs.  At the procedure defaults
#: (2,000 / 500) layer 1 alone takes 1–2.5 s per pair on this kind of
#: host; these keep every such pair well under the decision cap while
#: still reaching layers 2 and 3.
REACH_BUDGETS = {"rewriting_budget": 20, "refutation_budget": 20}

#: Spellings of the layer-3 pair over 298 candidate databases per round.
REACH2_COPIES = 4

#: Random draws per (fragment, mode) in one decide_cold round.  Enough
#: that the median answer time, which falls among these draws, moves by
#: only a few per cent from seed to seed.
DECIDE_DRAWS = 24


@dataclass
class Case:
    """One containment question: Q1 ⊆ Q2, with what is known about it."""

    label: str
    fragment: str
    kind: str  # family | prop18 | guarded | random | fault | ...
    q1: Any
    q2: Any
    expected: Optional[str] = None  # contained | equivalent | alpha-copy | None
    kwargs: Dict[str, Any] = field(default_factory=dict)
    n: int = 0  # prop18 size


def _reach_omqs():
    from repro.core.parser import parse_omq
    from repro.generators import guarded_reachability

    reach = guarded_reachability()
    plain = parse_omq(
        """
schema: E/2, S/1
query: q(x) :- S(x)
""",
        name="reach_base",
    )
    reach2 = parse_omq(
        """
schema: E/2, F/2, S/1, T/1
rules:
    E(x, y), S(x) -> S(y)
    F(x, y), S(y) -> T(x)
query: q(x) :- T(x)
""",
        name="reach2",
    )
    plain2 = parse_omq(
        """
schema: E/2, F/2, S/1, T/1
rules:
    F(x, y), S(y) -> T(x)
query: q(x) :- T(x)
""",
        name="reach2_onehop",
    )
    return reach, plain, reach2, plain2


def unsatisfiable_side(omq):
    """An OMQ over *omq*'s data schema whose query can never hold."""
    from repro.core.parser import parse_omq

    schema = ", ".join(
        f"{p}/{a}" for p, a in sorted(omq.data_schema.relations.items())
    )
    return parse_omq(
        f"schema: {schema}\nquery: q() :- Never_(x)\n", name="unsat"
    )


def family_cases(rng: random.Random) -> List[Case]:
    """The paper's families (fixed sizes) against seeded α-copies."""
    from repro.generators import (
        alpha_rename,
        guarded_acyclic,
        linear_chain,
        linear_witness_family,
        non_recursive_doubling,
        sticky_arity_family,
        sticky_recursive_family,
    )

    families = [
        ("linear", linear_chain, (4, 12)),
        ("linear", linear_witness_family, (3, 4, 5)),
        ("non_recursive", non_recursive_doubling, (2, 3)),
        ("sticky", sticky_arity_family, (3, 5)),
        ("sticky", sticky_recursive_family, (1, 2)),
        ("guarded", guarded_acyclic, (4, 8)),
    ]
    cases = []
    for fragment, make, sizes in families:
        for n in sizes:
            q = make(n)
            cases.append(
                Case(
                    f"{make.__name__}({n})~alpha",
                    fragment,
                    "family",
                    q,
                    alpha_rename(q, rng),
                    expected="alpha-copy",
                )
            )
    return cases


def decide_cases(seed: int) -> List[Case]:
    """One decide_cold round."""
    from perfbench import pool
    from repro.generators import FRAGMENTS, alpha_rename
    from repro.reductions import prop18_family

    rng = random.Random(seed)
    cases = family_cases(rng)
    for n in (3, 4):
        q = prop18_family(n)
        cases.append(
            Case(f"prop18({n})-vs-unsat", "sticky", "prop18", q,
                 unsatisfiable_side(q), n=n)
        )
    reach, plain, reach2, plain2 = _reach_omqs()
    guarded = [
        ("reach-vs-base", reach, plain, None),
        ("reach~alpha", reach, alpha_rename(reach, rng), "alpha-copy"),
        ("reach2-vs-onehop", reach2, plain2, None),
    ]
    # The slowest kept case, four times under different spellings: the
    # top 1% of a round's answer times (the p99 tail) then falls inside
    # this group instead of on whichever random draw is slowest.
    guarded += [
        (f"reach2~alpha#{k}", reach2, alpha_rename(reach2, rng), "alpha-copy")
        for k in range(REACH2_COPIES)
    ]
    for label, q1, q2, expected in guarded:
        cases.append(
            Case(label, "guarded", "guarded", q1, q2, expected,
                 dict(REACH_BUDGETS))
        )
    kept = pool.load()
    for fragment in FRAGMENTS:
        for mode in pool.MODES:
            for k in sorted(rng.sample(kept[f"{fragment}/{mode}"], DECIDE_DRAWS)):
                q1, q2, expected = pool.draw(fragment, mode, k)
                cases.append(
                    Case(f"random/{fragment}/{mode}/{k}", fragment,
                         "random", q1, q2, expected)
                )
    cases.extend(fault_cases())
    return cases


def fault_cases() -> List[Case]:
    """The two fixed F1 pairs; each reaches the decision cap every time."""
    from repro.generators import alpha_rename, non_recursive_doubling, random_omq_pair

    rng = random.Random(1)
    random_omq_pair("guarded", rng, mode="independent")
    q1, q2, _ = random_omq_pair("guarded", rng, mode="specialized")
    nr = non_recursive_doubling(5)
    return [
        Case("F1:guarded-specialized(seed 1)", "guarded", "fault", q1, q2,
             "contained", {"rewriting_budget": 200}),
        Case("F1:non_recursive_doubling(5)~alpha", "non_recursive", "fault",
             nr, alpha_rename(nr, random.Random(5)), "alpha-copy"),
    ]


# -- serve request documents ------------------------------------------------


def document(pair) -> Dict[str, Any]:
    """The POST body for one pair (OMQs as sectioned documents)."""
    from repro.core.serialize import omq_to_document

    q1, q2 = pair
    return {
        "kind": "containment",
        "tenant": "bench",
        "q1": omq_to_document(q1),
        "q2": omq_to_document(q2),
    }


#: Fragments the serve mixes draw random pairs from.  No random guarded
#: draws: fault F2 lets one stuck guarded decision hold the in-process
#: executor past other requests' deadlines.
SERVE_FRAGMENTS = ("linear", "non_recursive", "sticky", "propositional")


def _canonical_key(q1, q2) -> Tuple[str, str]:
    from repro.engine.canon import hash_omq

    return hash_omq(q1), hash_omq(q2)


def rename_predicates(omq, suffix: str):
    """*omq* with every predicate renamed ``P`` → ``P<suffix>``: the same
    problem under a new canonical hash and a new predicate signature."""
    from repro.core.atoms import Atom
    from repro.core.omq import OMQ
    from repro.core.queries import CQ
    from repro.core.schema import Schema
    from repro.core.tgd import TGD

    def atom(a):
        return Atom(f"{a.predicate}{suffix}", a.args)

    schema = Schema({f"{p}{suffix}": n for p, n in omq.data_schema.relations.items()})
    rules = tuple(
        TGD(tuple(atom(a) for a in r.body), tuple(atom(a) for a in r.head), r.name)
        for r in omq.sigma
    )
    q = omq.query
    return OMQ(schema, rules, CQ(q.head, tuple(atom(a) for a in q.body), q.name),
               name=omq.name)


#: serve_fresh requests per round, and the spacing of its family pairs:
#: every fourth request is one (23 mid-sized, 2 large per round), the
#: rest are random draws.  The family pairs then take about two thirds of
#: a round's time.  Their answer times move with the shared host's speed
#: about half as much as a random draw's few-ms answer, most of which is
#: the hand-off to and from the pool.
FRESH_ROUND = 100
FAMILY_EVERY = 4


def fresh_family_pair(occurrence: int):
    """The *occurrence*-th family pair of serve_fresh: a path query of 4
    (or, twice a round, 5) edges against one of 1–5 edges — answers of
    ~60 ms and ~300 ms.  Predicates are renamed per occurrence, so no
    pair repeats and no two share a witness-store signature; the right
    side is α-renamed so the cq-subsumption shortcut cannot answer."""
    from repro.generators import alpha_rename, linear_witness_family

    slot = occurrence % (FRESH_ROUND // FAMILY_EVERY)  # every round alike
    i = 5 if slot in (9, 19) else 4
    j = 1 + (slot // 2) % 5
    suffix = f"_f{occurrence}"
    right = rename_predicates(linear_witness_family(j), suffix)
    return (
        f"linear_witness({i})-vs-({j})",
        rename_predicates(linear_witness_family(i), suffix),
        alpha_rename(right, random.Random(occurrence)),
    )


def fresh_cases(seed: int, count: int) -> List[Case]:
    """*count* pairs, pairwise distinct up to canonical form, in rounds of
    :data:`FRESH_ROUND` with the same make-up: every fourth a family pair
    from a fixed cycle, the rest random independent/specialized draws over
    the serve fragments in turn, picked by the seed."""
    from repro.generators import random_omq_pair

    rng = random.Random(seed)
    seen = set()
    cases: List[Case] = []
    families = randoms = 0
    while len(cases) < count:
        if len(cases) % FAMILY_EVERY == FAMILY_EVERY - 1:
            label, q1, q2 = fresh_family_pair(families)
            families += 1
            case = Case(label, "linear", "family", q1, q2)
        else:
            fragment = SERVE_FRAGMENTS[randoms % len(SERVE_FRAGMENTS)]
            mode = ("independent", "specialized")[rng.random() < 0.3]
            q1, q2, expected = random_omq_pair(fragment, rng, mode)
            case = Case(f"random/{fragment}/{mode}", fragment, "random",
                        q1, q2, expected)
        key = _canonical_key(case.q1, case.q2)
        if key in seen:
            continue
        seen.add(key)
        randoms += case.kind == "random"
        cases.append(case)
    return cases
