"""Parity pins for XRewrite's exact shortcuts.

``CQ.core()`` skips hom checks whose outcome is already known, XRewrite
discards duplicate candidates before minimizing them, and isomorphism
tests reuse their match targets and skip a reverse match that must
succeed.  None of this may change a result:

* ``CQ.core()`` must equal the plain greedy loop (kept below as
  :func:`reference_core`) atom for atom, and ``CQ.is_isomorphic_to`` the
  plain two-way match (:func:`reference_isomorphic`);
* ``xrewrite_cq`` must return, on a fixed corpus, the rewritings,
  completeness flags and statistics recorded before the shortcuts
  existed (:data:`RECORDED`).

The corpus is every :mod:`repro.generators` family at small sizes plus
40 ``random_omq_pair`` draws per fragment and mode, each run at query
budgets 20 and 200 (atom budget 20× the query budget, as the engine
runs it).  Each group's digest is a sha256 over one line per (case,
budget) holding the rewriting text, ``complete`` and every
``RewritingStats`` field; none of it depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields
from importlib import import_module

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import generators as gen  # noqa: E402
from repro.core.atoms import Atom  # noqa: E402
from repro.core.homomorphism import homomorphisms  # noqa: E402
from repro.core.instance import Instance  # noqa: E402
from repro.core.queries import CQ, QueryError  # noqa: E402
from repro.core.terms import Constant, Variable  # noqa: E402

xrewrite_module = import_module("repro.rewriting.xrewrite")


# -- references: the procedures as they were before the shortcuts ------------


def reference_core(q: CQ) -> CQ:
    """The greedy core loop: drop the first droppable atom, restart."""
    body = list(dict.fromkeys(q.body))
    changed = True
    while changed:
        changed = False
        for a in sorted(body, key=str):
            candidate_body = [b for b in body if b != a]
            if not candidate_body and q.free_variables():
                continue
            try:
                candidate = CQ(q.head, tuple(candidate_body), q.name)
            except QueryError:
                continue  # dropping `a` would make the head unsafe
            db, canonical = candidate.canonical_database()
            if q.holds_in(db, canonical):
                body = candidate_body
                changed = True
                break
    return CQ(q.head, tuple(sorted(body, key=str)), q.name)


@dataclass(frozen=True)
class _Token:
    """A variable wrapped as an opaque ground term."""

    var: Variable


def _reference_match(left: CQ, right: CQ) -> bool:
    """An injective body hom left→right respecting head positions?"""
    fixed = {}
    for s, t in zip(left.head, right.head):
        if isinstance(s, Variable):
            if fixed.get(s, t) != t:
                return False
            fixed[s] = t
        elif s != t:
            return False
    tokens = {v: _Token(v) for v in right.variables()}
    target = Instance.of(a.substitute(tokens) for a in right.body)
    wrapped = {s: tokens.get(t, t) for s, t in fixed.items()}
    for h in homomorphisms(left.body, target, wrapped):
        values = list(h.values())
        if len(set(values)) == len(values):
            return True
    return False


def reference_isomorphic(left: CQ, right: CQ) -> bool:
    """An injective match each way, with equal arity and body length."""
    if left.arity != right.arity or len(left.body) != len(right.body):
        return False
    return _reference_match(left, right) and _reference_match(right, left)


# -- hypothesis CQs ------------------------------------------------------------

PREDICATES = (("R", 2), ("S", 1), ("T", 3), ("Z", 0))
VARIABLES = tuple(Variable(n) for n in ("x", "y", "z", "w"))
# ``c_x`` and ``c_y`` are spelled like the frozen images of x and y.
CONSTANTS = tuple(Constant(n) for n in ("a", "b", "c_x", "c_y"))


@st.composite
def cqs(draw):
    """CQs with repeated head variables, constants in head and body,
    frozen-looking constants, value-equal duplicate atoms, 0-ary atoms."""
    terms = st.sampled_from(VARIABLES + VARIABLES + CONSTANTS)
    body = []
    for _ in range(draw(st.integers(1, 6))):
        predicate, arity = draw(st.sampled_from(PREDICATES))
        body.append(Atom(predicate, tuple(draw(terms) for _ in range(arity))))
    if draw(st.booleans()):
        body.append(draw(st.sampled_from(body)))  # a value-equal duplicate
    body_vars = sorted({t for a in body for t in a.args if isinstance(t, Variable)}, key=str)
    head_terms = st.sampled_from(tuple(body_vars) + CONSTANTS)
    head = tuple(draw(head_terms) for _ in range(draw(st.integers(0, 3))))
    return CQ(head, tuple(body), "q")


@st.composite
def cq_pairs(draw):
    """A CQ and a variant: renamed and reordered, sometimes also edited."""
    q = draw(cqs())
    names = draw(st.permutations(("x", "y", "z", "w", "u", "v")))
    renaming = {v: Variable(n) for v, n in zip(VARIABLES, names)}
    body = list(draw(st.permutations(q.body)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(body) - 1))
        body[i] = draw(cqs()).body[0]
    variant = CQ(q.head, tuple(body), "q") if _safe(q.head, body) else q
    return q, variant.rename(renaming)


def _safe(head, body) -> bool:
    body_vars = {t for a in body for t in a.args}
    return all(t in body_vars for t in head if isinstance(t, Variable))


@settings(max_examples=400, deadline=None)
@given(cqs())
def test_core_equals_greedy_reference(q):
    assert q.core() == reference_core(q)


@settings(max_examples=400, deadline=None)
@given(cq_pairs())
def test_isomorphism_equals_two_way_reference(pair):
    left, right = pair
    expected = reference_isomorphic(left, right)
    assert left.is_isomorphic_to(right) is expected
    assert right.is_isomorphic_to(left) is expected
    assert left.core().is_isomorphic_to(right.core()) is reference_isomorphic(
        reference_core(left), reference_core(right)
    )


# -- the corpus ----------------------------------------------------------------

FAMILIES = {
    "linear_chain": (gen.linear_chain, (1, 2, 3, 4)),
    "linear_witness_family": (gen.linear_witness_family, (1, 2, 3, 4)),
    "non_recursive_doubling": (gen.non_recursive_doubling, (1, 2, 3)),
    "sticky_arity_family": (gen.sticky_arity_family, (2, 3, 4)),
    "sticky_recursive_family": (gen.sticky_recursive_family, (1, 2)),
    "guarded_reachability": (gen.guarded_reachability, (1,)),
    "guarded_acyclic": (gen.guarded_acyclic, (1, 2, 3)),
}
DRAWS = 40
PAIR_MODES = ("independent", "specialized", "alpha", "perturbed_pair")
BUDGETS = (20, 200)


def corpus_group(group: str):
    """The (case, OMQ) pairs of one corpus group, in a fixed order."""
    if group in FAMILIES:
        build, sizes = FAMILIES[group]
        for n in sizes:
            yield f"{group}({n})", build(n)
        return
    fragment, mode = group.split("/")
    for k in range(DRAWS):
        rng = random.Random(f"{fragment}/{mode}/{k}")
        q1, q2, _ = gen.random_omq_pair(fragment, rng, mode)
        yield f"{k}/1", q1
        yield f"{k}/2", q2


def rewriting_line(omq, budget: int) -> str:
    lines = []
    for query in omq.as_ucq().disjuncts:
        result = xrewrite_module.xrewrite_cq(
            omq.data_schema,
            omq.sigma,
            query,
            max_queries=budget,
            max_total_atoms=20 * budget,
            partial=True,
        )
        stats = ",".join(
            str(getattr(result.stats, f.name)) for f in fields(result.stats)
        )
        lines.append(f"{result.rewriting}|{result.complete}|{stats}")
    return "\n".join(lines)


def group_digest(group: str) -> str:
    digest = hashlib.sha256()
    for case, omq in corpus_group(group):
        for budget in BUDGETS:
            line = f"{case}|{budget}|{rewriting_line(omq, budget)}\n"
            digest.update(line.encode())
    return digest.hexdigest()[:16]


#: Group digests of the corpus, recorded with the plain greedy core loop,
#: no duplicate check before minimization, and targets rebuilt per match.
RECORDED = {
    "linear_chain": "a0fe3e978120e9b8",
    "linear_witness_family": "8a19ce8aeca575d2",
    "non_recursive_doubling": "b4f92737c4b18181",
    "sticky_arity_family": "9b09744af5b81f66",
    "sticky_recursive_family": "fa2f0c51e36b55c0",
    "guarded_reachability": "7389e1e32bf4d5b9",
    "guarded_acyclic": "e431194640049ec0",
    "linear/independent": "5e971cd2410afb7d",
    "linear/specialized": "ef9dcd8c19dc0180",
    "linear/alpha": "7b654888da6a648a",
    "linear/perturbed_pair": "46fa1460a7f74533",
    "non_recursive/independent": "bbd36c5428c4d232",
    "non_recursive/specialized": "452ce76df0804904",
    "non_recursive/alpha": "3b9b5e61d2c8f4d8",
    "non_recursive/perturbed_pair": "54a7fc79f994e9d1",
    "sticky/independent": "1f894fa7fc18de9a",
    "sticky/specialized": "9763c12c830ca19c",
    "sticky/alpha": "9d8cc1cec60c890b",
    "sticky/perturbed_pair": "e6358d6911838ea0",
    "guarded/independent": "5723758432aff4d9",
    "guarded/specialized": "def653ea02bf9556",
    "guarded/alpha": "6f7a11aba0f9400d",
    "guarded/perturbed_pair": "bdc06f6de8c27c00",
    "propositional/independent": "ec601f9ec1485914",
    "propositional/specialized": "9af1603869e95c2a",
    "propositional/alpha": "fe6b29b37ae8a8d6",
    "propositional/perturbed_pair": "919696b2225bc810",
}


def test_corpus_covers_every_fragment_and_mode():
    from repro.generators.random_omqs import FRAGMENTS
    from repro.generators.random_omqs import PAIR_MODES as modes

    assert set(modes) == set(PAIR_MODES)
    expected = set(FAMILIES) | {f"{f}/{m}" for f in FRAGMENTS for m in modes}
    assert set(RECORDED) == expected


@pytest.mark.parametrize("group", list(RECORDED))
def test_rewritings_equal_recorded(group):
    assert group_digest(group) == RECORDED[group]


def test_every_candidate_cores_like_the_reference(monkeypatch):
    """Every query XRewrite builds, before minimization: over the families
    at budget 200, and over the first 10 draws of each random group at
    budget 20."""
    built = []
    make = xrewrite_module._candidate

    def recording(*args):
        candidate = make(*args)
        built.append(candidate)
        return candidate

    monkeypatch.setattr(xrewrite_module, "_candidate", recording)
    for group in RECORDED:
        cases = list(corpus_group(group))
        if group in FAMILIES:
            for _, omq in cases:
                rewriting_line(omq, 200)
        else:
            for _, omq in cases[:20]:
                rewriting_line(omq, 20)
    assert len(built) > 1000
    for candidate in built:
        assert candidate.core() == reference_core(candidate), candidate
