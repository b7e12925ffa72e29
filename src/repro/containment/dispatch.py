"""The front door: ``contains(Q1, Q2)`` with automatic procedure selection.

First the sound entailment check (:mod:`.entailment`): Σ2 entails Σ1 and
q1 ⊆ q2 under Σ2.  Then, following the paper's plan of attack (Section 3.3
and Section 6):

* LHS in a UCQ-rewritable language (∅, L, NR, FNR, S) — the small-witness
  algorithm (Theorem 11), *exact* for any RHS whose evaluation is exact.
* LHS guarded — the layered guarded procedure (Section 5 substitution).
* LHS full / arbitrary — containment is undecidable in general
  (Proposition 8), so we attempt the same layered procedure, which answers
  when a complete rewriting or a counterexample happens to exist and
  honestly reports UNKNOWN otherwise.
"""

from __future__ import annotations

from ..core.instance import FREEZE_PREFIX
from ..core.omq import OMQ, UCQ_REWRITABLE_CLASSES
from ..core.terms import Null, Term
from ..fragments.classify import best_class
from .. import obs
from .entailment import contains_by_entailment, freezing_hazard
from .guarded import contains_guarded
from .propositional import contains_propositional, is_propositional
from .result import ContainmentResult, Verdict, unknown
from .small_witness import check_same_data_schema, contains_via_small_witness


def contains(
    q1: OMQ,
    q2: OMQ,
    *,
    rewriting_budget: int | None = None,
    chase_max_steps: int = 200_000,
    chase_max_depth: int | None = None,
    **guarded_kwargs,
) -> ContainmentResult:
    """Decide ``Q1 ⊆ Q2`` (both over the same data schema).

    ``rewriting_budget`` defaults per procedure: a generous budget for the
    exact small-witness path (whose rewriting is guaranteed finite), a
    small speculative one for the guarded layers.  Keyword arguments beyond
    the budgets are forwarded to the guarded layered procedure when it is
    selected.  A pair holding a null, or a constant spelled like a frozen
    variable, answers UNKNOWN (method ``freezing-guard``).
    """
    check_same_data_schema(q1, q2)
    with obs.span(
        "containment.decide", lhs_rules=len(q1.sigma), rhs_rules=len(q2.sigma)
    ) as decision:
        # Every procedure below freezes variables into constants; where a
        # term can collide with a frozen one, none of them is sound.
        hazard = freezing_hazard(q1, q2)
        proof = (
            unknown("freezing-guard", _hazard_detail(hazard))
            if hazard is not None
            else contains_by_entailment(q1, q2)
        )
        if proof is not None:
            decision.set("method", proof.method)
            decision.set("verdict", proof.verdict.name)
            return proof
        if is_propositional(q1) and len(q1.data_schema) <= 16:
            with obs.span("containment.propositional"):
                result = contains_propositional(
                    q1, q2, chase_max_steps=chase_max_steps
                )
            if result.decided:
                decision.set("method", result.method)
                decision.set("verdict", result.verdict.name)
                return result
        with obs.span("containment.classify"):
            cls1 = best_class(q1.sigma)
        decision.set("fragment", cls1.value)
        if cls1 in UCQ_REWRITABLE_CLASSES:
            result = contains_via_small_witness(
                q1,
                q2,
                rewriting_budget=rewriting_budget or 20_000,
                chase_max_steps=chase_max_steps,
                chase_max_depth=chase_max_depth,
            )
        else:
            result = contains_guarded(
                q1,
                q2,
                rewriting_budget=rewriting_budget or 2_000,
                chase_max_steps=chase_max_steps,
                chase_max_depth=chase_max_depth,
                **guarded_kwargs,
            )
        decision.set("method", result.method)
        decision.set("verdict", result.verdict.name)
        return result


def _hazard_detail(term: Term) -> str:
    kind = "null" if isinstance(term, Null) else "constant"
    return (
        f"the {kind} {term} can collide with a variable frozen to "
        f"{FREEZE_PREFIX}<name>, so no freezing-based procedure is sound "
        "for this pair"
    )


def is_contained(q1: OMQ, q2: OMQ, **kwargs) -> bool:
    """Boolean convenience; raises ValueError if the check is undecided."""
    return contains(q1, q2, **kwargs).is_contained


def equivalent(q1: OMQ, q2: OMQ, **kwargs) -> ContainmentResult:
    """Check ``Q1 ≡ Q2`` (mutual containment).

    Returns the first non-CONTAINED direction's result (so the witness shows
    which side fails), or a CONTAINED result when both directions hold.
    """
    forward = contains(q1, q2, **kwargs)
    if forward.verdict is not Verdict.CONTAINED:
        return forward
    backward = contains(q2, q1, **kwargs)
    if backward.verdict is not Verdict.CONTAINED:
        return backward
    return ContainmentResult(
        Verdict.CONTAINED, f"{forward.method}+{backward.method}", None,
        "both directions contained",
    )
