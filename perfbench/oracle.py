"""Answer checks made apart from the program under test.

Nothing here calls the program's homomorphism kernel, its chase, or its
evaluator.  OMQs, witnesses and databases are first copied into plain
tuples; a naive restricted chase and an exhaustive-substitution
evaluator (nested loops over the facts of each predicate, no join
planning) then re-derive the facts each verdict rests on.

Terms are ``("c", name)`` (constant), ``("v", name)`` (variable) or
``("n", k)`` (labeled null); an atom is ``(predicate, args)``.

:class:`Checker` applies the six properties every run checks:

1. a NOT_CONTAINED witness re-checks: c̄ ∈ Q1(D) and c̄ ∉ Q2(D);
2. alpha, specialized and family-against-α-copy pairs are never
   NOT_CONTAINED;
3. a CONTAINED verdict satisfies Q1(D) ⊆ Q2(D) on a few seeded small
   databases (plus the canonical database of Q1's query, when that is a
   database over the data schema);
4. ``prop18_family(n)`` against an unsatisfiable side is NOT_CONTAINED
   with a witness of at least 2^(n−2) facts;
5. no served answer contradicts the library's verdict for the same pair
   with every tier off;
6. every UNKNOWN carries a reason.

A check the oracle cannot finish — a chase that outgrows
:data:`CHASE_STEPS` — is counted as *unchecked* and reported, never as
a pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

Term = Tuple[str, object]
Atom = Tuple[str, Tuple[Term, ...]]

#: Facts the naive chase may add before it gives up (→ unchecked).
CHASE_STEPS = 400

#: Fact rows one evaluation (chase plus query) may examine before it
#: gives up (→ unchecked): nested loops are exponential in the number of
#: atoms, and a rare random draw would otherwise run for minutes.
MATCH_ROWS = 500_000


class OracleBudget(Exception):
    """An evaluation outgrew :data:`MATCH_ROWS`; the check is unchecked."""

#: Random databases per CONTAINED verdict (property 3).
SMALL_DATABASES = 2


@dataclass(frozen=True)
class Rule:
    body: Tuple[Atom, ...]
    head: Tuple[Atom, ...]
    existentials: FrozenSet[Term]


@dataclass(frozen=True)
class PlainOMQ:
    schema: Tuple[Tuple[str, int], ...]
    rules: Tuple[Rule, ...]
    disjuncts: Tuple[Tuple[Tuple[Term, ...], Tuple[Atom, ...]], ...]


# -- copying program objects into plain tuples -------------------------------


def _term(t) -> Term:
    kind = type(t).__name__
    if kind == "Constant":
        return ("c", t.name)
    if kind == "Variable":
        return ("v", t.name)
    if kind == "Null":
        return ("n", repr(t))
    raise TypeError(f"unknown term {t!r}")


def _atom(a) -> Atom:
    return (a.predicate, tuple(_term(t) for t in a.args))


def plain_omq(omq) -> PlainOMQ:
    rules = []
    for rule in omq.sigma:
        body = tuple(_atom(a) for a in rule.body)
        head = tuple(_atom(a) for a in rule.head)
        body_vars = {t for _, args in body for t in args if t[0] == "v"}
        existentials = frozenset(
            t for _, args in head for t in args
            if t[0] == "v" and t not in body_vars
        )
        rules.append(Rule(body, head, existentials))
    disjuncts = tuple(
        (tuple(_term(t) for t in d.head), tuple(_atom(a) for a in d.body))
        for d in omq.as_ucq().disjuncts
    )
    schema = tuple(sorted(omq.data_schema.relations.items()))
    return PlainOMQ(schema, tuple(rules), disjuncts)


def plain_witness(witness) -> Tuple[Set[Atom], Tuple[Term, ...]]:
    """A program :class:`Witness` as (facts, answer)."""
    return (
        {_atom(a) for a in witness.database},
        tuple(_term(t) for t in witness.answer),
    )


def _json_term(doc) -> Term:
    if "const" in doc:
        return ("c", str(doc["const"]))
    return ("n", f"Null({doc['null']})")


def json_witness(doc) -> Tuple[Set[Atom], Tuple[Term, ...]]:
    """A served witness document as (facts, answer)."""
    facts = {
        (a["predicate"], tuple(_json_term(t) for t in a.get("args", ())))
        for a in doc.get("database", ())
    }
    return facts, tuple(_json_term(t) for t in doc.get("answer", ()))


def _ground(args: Tuple[Term, ...], sub: Dict[Term, Term]) -> Tuple[Term, ...]:
    return tuple(sub.get(t, t) for t in args)


# -- the naive restricted chase -------------------------------------------------


def _index(facts: Set[Atom]) -> Dict[str, List[Tuple[Term, ...]]]:
    by_pred: Dict[str, List[Tuple[Term, ...]]] = {}
    for p, args in facts:
        by_pred.setdefault(p, []).append(args)
    return by_pred


def matches(
    atoms: Sequence[Atom],
    by_pred: Dict[str, List[Tuple[Term, ...]]],
    fixed: Dict[Term, Term],
    budget: List[int],
) -> Iterator[Dict[Term, Term]]:
    """Nested-loop join: every extension of *fixed* sending each atom,
    in the given order, onto a fact.  Each row examined costs one unit of
    *budget* (a one-element list); none left raises OracleBudget."""
    if not atoms:
        yield dict(fixed)
        return
    (pred, args), rest = atoms[0], atoms[1:]
    for row in by_pred.get(pred, ()):
        budget[0] -= 1
        if budget[0] < 0:
            raise OracleBudget()
        sub = dict(fixed)
        for t, value in zip(args, row):
            if t[0] != "v":
                if t != value:
                    break
            elif sub.setdefault(t, value) != value:
                break
        else:
            yield from matches(rest, by_pred, sub, budget)


def chase(
    facts: Set[Atom], rules: Sequence[Rule], budget: List[int]
) -> Tuple[Set[Atom], bool]:
    """Naive restricted chase by rounds; returns (facts, terminated).

    Each round enumerates every trigger over the facts present at its
    start and fires those whose head is not yet satisfied by the facts
    derived so far.
    """
    facts = set(facts)
    added = 0
    fresh = itertools.count()
    # A trigger whose head holds keeps holding (facts only grow), so each
    # is tested once; every round still enumerates all triggers anew.
    settled: Set[Tuple[int, Tuple]] = set()
    while True:
        snapshot = _index(facts)
        current = _index(facts)
        before = added
        for number, rule in enumerate(rules):
            for sub in matches(rule.body, snapshot, {}, budget):
                key = (number, tuple(sorted(sub.items())))
                if key in settled:
                    continue
                settled.add(key)
                frontier = {
                    v: sub[v] for v in sub if v not in rule.existentials
                }
                if rule.existentials:
                    holds = next(
                        matches(rule.head, current, frontier, budget), None
                    ) is not None
                else:
                    holds = all(
                        (p, _ground(a, frontier)) in facts for p, a in rule.head
                    )
                if holds:
                    continue
                image = {v: ("n", f"o{next(fresh)}") for v in rule.existentials}
                image.update(frontier)
                for p, a in rule.head:
                    fact = (p, _ground(a, image))
                    if fact not in facts:
                        facts.add(fact)
                        current.setdefault(p, []).append(fact[1])
                        added += 1
                if added > CHASE_STEPS:
                    return facts, False
        if added == before:
            return facts, True


def answers(omq: PlainOMQ, facts: Set[Atom]) -> Tuple[Set[Tuple[Term, ...]], bool]:
    """Certain answers of *omq* over *facts*: (answers, exact).  Raises
    OracleBudget past :data:`MATCH_ROWS`."""
    budget = [MATCH_ROWS]
    model, terminated = chase(facts, omq.rules, budget)
    by_pred = _index(model)
    out: Set[Tuple[Term, ...]] = set()
    for head, body in omq.disjuncts:
        for sub in matches(body, by_pred, {}, budget):
            row = _ground(head, sub)
            if all(t[0] == "c" for t in row):
                out.add(row)
    return out, terminated


# -- property checks --------------------------------------------------------


def small_databases(omq: PlainOMQ, rng: random.Random) -> List[Set[Atom]]:
    """The canonical database of each query disjunct that is a database
    over the data schema, plus :data:`SMALL_DATABASES` random ones."""
    schema = dict(omq.schema)
    out: List[Set[Atom]] = []
    for _, body in omq.disjuncts:
        if all(p in schema for p, _ in body):
            out.append(
                {
                    (p, tuple(("c", f"_f_{t[1]}") if t[0] == "v" else t for t in args))
                    for p, args in body
                }
            )
    constants = [("c", f"_r{i}") for i in range(3)]
    possible = [
        (p, args)
        for p, arity in sorted(schema.items())
        for args in itertools.product(constants, repeat=arity)
    ]
    for _ in range(SMALL_DATABASES):
        size = min(len(possible), rng.randint(1, 5))
        out.append(set(rng.sample(possible, size)))
    return out


@dataclass
class Checker:
    """Counts, per property, what was checked, left unchecked, or violated."""

    checked: Dict[str, int] = field(default_factory=dict)
    unchecked: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    def _count(self, table: Dict[str, int], prop: str) -> None:
        table[prop] = table.get(prop, 0) + 1

    def _violate(self, prop: str, label: str, message: str) -> None:
        self._count(self.checked, prop)
        self.violations.append(f"{prop} {label}: {message}")

    @property
    def correct(self) -> bool:
        return not self.violations

    def summary(self) -> Dict:
        return {
            "checked": dict(sorted(self.checked.items())),
            "unchecked": dict(sorted(self.unchecked.items())),
            "violations": len(self.violations),
            "first_violations": self.violations[:5],
        }

    # property 1
    def witness(self, label: str, q1: PlainOMQ, q2: PlainOMQ, facts, answer) -> None:
        try:
            self._witness(label, q1, q2, facts, answer)
        except OracleBudget:
            self._count(self.unchecked, "p1_witness")

    def _witness(self, label, q1, q2, facts, answer) -> None:
        prop = "p1_witness"
        left, left_exact = answers(q1, facts)
        if answer not in left:
            if left_exact:
                self._violate(prop, label, f"c̄={answer} ∉ Q1(D)")
            else:
                self._count(self.unchecked, prop)
            return
        right, right_exact = answers(q2, facts)
        if answer in right:
            self._violate(prop, label, f"c̄={answer} ∈ Q2(D)")
        elif not right_exact:
            self._count(self.unchecked, prop)
        else:
            self._count(self.checked, prop)

    # property 2
    def never_refuted(self, label: str, expected: Optional[str], verdict: str) -> None:
        if expected not in ("contained", "equivalent", "alpha-copy"):
            return
        if verdict == "not-contained":
            self._violate("p2_known_contained", label, f"expected {expected}")
        else:
            self._count(self.checked, "p2_known_contained")

    # property 3
    def contained(self, label: str, q1: PlainOMQ, q2: PlainOMQ, rng: random.Random) -> None:
        prop = "p3_contained"
        for facts in small_databases(q1, rng):
            try:
                if self._contained_on(label, q1, q2, facts):
                    return
            except OracleBudget:
                self._count(self.unchecked, prop)

    def _contained_on(self, label, q1, q2, facts) -> bool:
        """Property 3 on one database; True once a violation is recorded."""
        prop = "p3_contained"
        left, _ = answers(q1, facts)
        if not left:
            self._count(self.checked, prop)
            return False
        right, right_exact = answers(q2, facts)
        missing = left - right
        if missing and right_exact:
            self._violate(prop, label, f"{sorted(missing)[0]} ∈ Q1(D) \\ Q2(D) on {sorted(facts)}")
            return True
        self._count(self.unchecked if missing else self.checked, prop)
        return False

    # property 4
    def prop18(self, label: str, n: int, verdict: str, witness_facts: int) -> None:
        prop = "p4_prop18"
        if verdict != "not-contained":
            self._violate(prop, label, f"verdict {verdict}, expected not-contained")
        elif witness_facts < 2 ** (n - 2):
            self._violate(prop, label, f"witness of {witness_facts} facts < 2^{n - 2}")
        else:
            self._count(self.checked, prop)

    # property 5
    def agrees(self, label: str, served: str, library: str) -> None:
        prop = "p5_served_vs_library"
        decided = {served, library} - {"unknown"}
        if len(decided) > 1:
            self._violate(prop, label, f"served {served}, library {library}")
        else:
            self._count(self.checked, prop)

    # property 6
    def reason(self, label: str, verdict: str, detail: str) -> None:
        if verdict != "unknown":
            return
        if detail and detail.strip():
            self._count(self.checked, "p6_unknown_reason")
        else:
            self._violate("p6_unknown_reason", label, "UNKNOWN without a reason")

    def verdict(
        self,
        label: str,
        q1: PlainOMQ,
        q2: PlainOMQ,
        expected: Optional[str],
        verdict: str,
        detail: str,
        witness: Optional[Tuple[Set[Atom], Tuple[Term, ...]]],
        rng: random.Random,
    ) -> None:
        """Properties 1, 2, 3 and 6 for one answer."""
        self.never_refuted(label, expected, verdict)
        self.reason(label, verdict, detail)
        if verdict == "not-contained":
            if witness is None:
                self._violate("p1_witness", label, "NOT_CONTAINED without a witness")
            else:
                self.witness(label, q1, q2, *witness)
        elif verdict == "contained":
            self.contained(label, q1, q2, rng)
