"""Containment by entailment: a sound, bounded check run before any procedure.

``Q1 ⊆ Q2`` holds whenever

* Σ2 entails every rule of Σ1, and
* ``q1 ⊆ q2`` under Σ2: for every disjunct of q1, its frozen head is an
  answer of q2 on the chase of its canonical database under Σ2.

Soundness: take an S-database D.  chase(D, Σ2) is a model of Σ2, hence of
Σ1, so chase(D, Σ1) maps into it with D's constants fixed, and an answer
c̄ of q1 on chase(D, Σ1) is one on chase(D, Σ2), through some disjunct d.
The canonical database of d maps into chase(D, Σ2) by that match, and so
does its chase under Σ2; q2 holds at c̄ there, so c̄ ∈ Q2(D).

Both tests freeze variables into constants and chase the frozen atoms
under Σ2: a rule is entailed when its head, frontier fixed, follows from
its frozen body (NeuroLang's ``is_contained_rule`` tests rules the same
way).  Every chase is goal-directed and stops at :data:`MAX_STEPS`: any
prefix of the chase maps into the full chase, so a chase cut short only
loses proofs.  A rule equal or α-equal to one of Σ2 is entailed without a
chase, and a disjunct whose canonical database already answers q2 is
settled before the first step — so the syntactic case (Σ1 ⊆ Σ2 and
q1 ⊆ q2 as plain queries) needs no chase at all.

The check answers CONTAINED or nothing; it never refutes.  Freezing must
be injective and must keep frozen variables apart from the other terms,
so a pair holding a null or a constant spelled like a frozen variable is
not checked (:func:`freezing_hazard`).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Set, Tuple, Union

from ..chase.engine import chase
from ..core.instance import Instance, freeze_atoms, freeze_collision
from ..core.omq import OMQ
from ..core.queries import CQ, UCQ
from ..core.terms import Term
from ..core.tgd import TGD
from ..engine.canon import canonical_tgd
from .. import obs
from .result import ContainmentResult, contained
from .small_witness import check_same_data_schema

#: Chase steps per goal-directed chase.  A fixed bound, not a setting:
#: a longer chase only finds more proofs, and chases that never end would
#: run to it on every pair the check cannot prove.
MAX_STEPS = 20

#: ``(database, goal query, goal answer) -> proved`` — one bounded chase.
_Prover = Callable[[Instance, Union[CQ, UCQ], Tuple[Term, ...]], bool]


def _terms(omq: OMQ) -> Iterator[Term]:
    for disjunct in omq.as_ucq().disjuncts:
        yield from disjunct.head
        for a in disjunct.body:
            yield from a.args
    for rule in omq.sigma:
        for a in rule.body + rule.head:
            yield from a.args


def freezing_hazard(q1: OMQ, q2: OMQ) -> Optional[Term]:
    """A term of either OMQ that makes freezing unsound, or None.

    Canonical databases, the small-witness test and this check all freeze
    ``x`` to ``c_x``; a null, or a constant spelled like a frozen variable,
    can collide with one (see :func:`~repro.core.instance.freeze_collision`).
    """
    return freeze_collision(t for omq in (q1, q2) for t in _terms(omq))


def _sigma_entails(
    sigma2: Sequence[TGD], sigma1: Sequence[TGD], proved: _Prover
) -> bool:
    """Does Σ2 entail every rule of Σ1?  (Sound; may miss entailments.)"""
    exact: Set[TGD] = set(sigma2)
    texts: Optional[Set[str]] = None
    for rule in sigma1:
        if rule in exact:
            continue
        if texts is None:
            texts = {canonical_tgd(t).text for t in sigma2}
        if canonical_tgd(rule).text in texts:
            continue
        body, frozen = freeze_atoms(rule.body)
        frontier = tuple(sorted(rule.frontier(), key=lambda v: v.name))
        if not proved(
            body, CQ(frontier, rule.head), tuple(frozen[v] for v in frontier)
        ):
            return False
    return True


def _query_entailed(q1: UCQ, q2: UCQ, proved: _Prover) -> bool:
    """Is ``q1 ⊆ q2`` under Σ2?  (Sound; may miss containments.)"""
    for disjunct in q1.disjuncts:
        db, canonical = disjunct.canonical_database()
        if not proved(db, q2, canonical):
            return False
    return True


def contains_by_entailment(q1: OMQ, q2: OMQ) -> Optional[ContainmentResult]:
    """CONTAINED if Σ2 entails Σ1 and ``q1 ⊆ q2`` under Σ2, else None.

    None proves nothing: a chase may have stopped at :data:`MAX_STEPS`, or
    the pair holds a term that makes freezing unsound.
    """
    check_same_data_schema(q1, q2)
    with obs.span("containment.subsumption") as span:
        steps = 0

        def proved(
            db: Instance, query: Union[CQ, UCQ], answer: Tuple[Term, ...]
        ) -> bool:
            nonlocal steps
            run = chase(
                db,
                q2.sigma,
                max_steps=MAX_STEPS,
                partial=True,
                goal=(query, answer),
            )
            steps += run.steps
            return run.goal_reached

        holds = (
            freezing_hazard(q1, q2) is None
            and _query_entailed(q1.as_ucq(), q2.as_ucq(), proved)
            and _sigma_entails(q2.sigma, q1.sigma, proved)
        )
        span.set("proved", holds)
        span.set("steps", steps)
    if not holds:
        return None
    return contained(
        "entailment",
        f"Σ2 entails Σ1 and q1 ⊆ q2 under Σ2; chase steps: {steps}",
    )
