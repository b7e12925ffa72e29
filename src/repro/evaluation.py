"""OMQ evaluation: the problem ``Eval(C, Q)`` of Section 2.

``Q(D) = cert(q, D, Σ) = q(chase(D, Σ))``.  The evaluator picks a strategy
per fragment:

* **terminating chase** — non-recursive, full/weakly-acyclic sets: chase to
  a fixpoint, evaluate the query (exact);
* **UCQ rewriting** — linear and sticky sets (whose chase may be infinite):
  XRewrite the OMQ and evaluate the rewriting directly over the database
  (exact, Definition 1);
* **bounded chase** — the guarded fallback when neither applies: chase to a
  query-derived depth; sound but flagged ``exact=False`` (the substitution
  for the infinite guarded chase documented in DESIGN.md).

Every result records which strategy produced it and whether it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Set, Tuple

from .chase.engine import ChaseBudgetExceeded, chase
from .core.instance import Instance
from .core.omq import OMQ, TGDClass
from .core.terms import Term
from .engine.registry import register_cache
from .fragments.classify import best_class
from .kernel import plan as kernel_plan
from . import obs
from .fragments.weak import is_weakly_acyclic
from .rewriting.xrewrite import (
    RewritingBudgetExceeded,
    RewritingResult,
    xrewrite,
)


@lru_cache(maxsize=512)
def _cached_best_class(sigma: Tuple) -> TGDClass:
    return best_class(sigma)


@lru_cache(maxsize=512)
def _cached_classes(sigma: Tuple) -> frozenset:
    from .fragments.classify import classify

    return frozenset(classify(sigma))


@lru_cache(maxsize=512)
def _cached_weakly_acyclic(sigma: Tuple) -> bool:
    return is_weakly_acyclic(sigma)


@lru_cache(maxsize=256)
def cached_rewriting(omq: OMQ, budget: int) -> RewritingResult:
    """XRewrite with memoization (containment checks hammer the same OMQ).

    Returns a partial result (``complete=False``) instead of raising when
    the budget runs out.  The work (atom) budget scales with the query
    budget so speculative small-budget attempts stay cheap.
    """
    try:
        return xrewrite(
            omq, max_queries=budget, max_total_atoms=20 * budget
        )
    except RewritingBudgetExceeded as exc:
        return exc.partial


# These memo tables are keyed by whole OMQs/tgd tuples and accumulate
# across unrelated inputs; registering them makes repro.clear_caches()
# (and the test suite's isolation fixture) able to reset them.
register_cache("evaluation.best_class", _cached_best_class.cache_clear)
register_cache("evaluation.classes", _cached_classes.cache_clear)
register_cache(
    "evaluation.weakly_acyclic", _cached_weakly_acyclic.cache_clear
)
register_cache("evaluation.rewriting", cached_rewriting.cache_clear)


@dataclass
class EvaluationResult:
    """The answers to an OMQ over a database, with provenance."""

    answers: Set[Tuple[Term, ...]]
    exact: bool
    method: str

    def __contains__(self, answer: Tuple[Term, ...]) -> bool:
        return tuple(answer) in self.answers

    def is_empty(self) -> bool:
        return not self.answers


def default_guarded_depth(omq: OMQ) -> int:
    """The default chase-depth cut-off for the bounded guarded strategy.

    Heuristic: the number of query atoms times (max arity + 1), plus one —
    deep enough for every match whose atoms sit within |q| guarded-subtree
    hops of the database, which covers typical ontologies; increase it for
    adversarial inputs.
    """
    arity = omq.full_schema().max_arity
    size = max(d.size() for d in omq.as_ucq().disjuncts)
    return size * (arity + 1) + 1


def _derivable_predicates(omq: OMQ) -> Set[str]:
    """The predicates some S-database makes true: the data schema's, and
    the head predicates of every rule whose body they cover (a least
    fixpoint)."""
    derivable = set(omq.data_schema.predicates())
    changed = True
    while changed:
        changed = False
        for rule in omq.sigma:
            if all(a.predicate in derivable for a in rule.body):
                for a in rule.head:
                    if a.predicate not in derivable:
                        derivable.add(a.predicate)
                        changed = True
    return derivable


def evaluate_omq(
    omq: OMQ,
    database: Instance,
    *,
    method: str = "auto",
    chase_max_steps: int = 200_000,
    chase_max_depth: Optional[int] = None,
    rewriting_budget: int = 20_000,
) -> EvaluationResult:
    """Compute ``Q(D)``.

    ``method`` is ``"auto"``, ``"chase"``, ``"rewriting"`` or
    ``"bounded-chase"``.
    """
    # One span per top-level evaluation; the strategy dispatch below
    # recurses through _evaluate_omq so "auto" does not nest a second span.
    # The planner mode is recorded because it is the one kernel-level knob
    # that changes how this evaluation's joins execute (never what they
    # return) — traces comparing cost vs greedy runs need it on the span.
    with obs.span(
        "evaluate.omq",
        method=method,
        db_atoms=len(database.atoms),
        planner=kernel_plan.default_planner(),
    ) as ev:
        result = _evaluate_omq(
            omq,
            database,
            method=method,
            chase_max_steps=chase_max_steps,
            chase_max_depth=chase_max_depth,
            rewriting_budget=rewriting_budget,
        )
        ev.set("strategy", result.method)
        ev.set("answers", len(result.answers))
        ev.set("exact", result.exact)
        return result


def _evaluate_omq(
    omq: OMQ,
    database: Instance,
    *,
    method: str = "auto",
    chase_max_steps: int = 200_000,
    chase_max_depth: Optional[int] = None,
    rewriting_budget: int = 20_000,
) -> EvaluationResult:
    omq.validate_database(database)
    query = omq.as_ucq()
    if method == "chase":
        try:
            result = chase(database, omq.sigma, max_steps=chase_max_steps)
        except ChaseBudgetExceeded as exc:
            # The truncated chase is a subset of the full one, so evaluating
            # over it under-approximates soundly; flag the result inexact so
            # containment callers degrade negatives to UNKNOWN.
            return EvaluationResult(
                query.evaluate(exc.partial.instance), False, "chase-partial"
            )
        return EvaluationResult(query.evaluate(result.instance), True, "chase")
    if method == "rewriting":
        rewriting = cached_rewriting(omq, rewriting_budget)
        return EvaluationResult(
            rewriting.rewriting.evaluate(database),
            rewriting.complete,
            "rewriting",
        )
    if method == "bounded-chase":
        depth = chase_max_depth or default_guarded_depth(omq)
        result = chase(
            database,
            omq.sigma,
            max_steps=chase_max_steps,
            max_depth=depth,
            partial=True,
        )
        return EvaluationResult(
            query.evaluate(result.instance), result.terminated, "bounded-chase"
        )
    if method != "auto":
        raise ValueError(f"unknown evaluation method: {method}")

    classes = _cached_classes(omq.sigma)
    if TGDClass.EMPTY in classes:
        return EvaluationResult(query.evaluate(database), True, "direct")
    # Any guarantee of chase termination (full tgds, acyclicity, weak
    # acyclicity) makes the chase the exact strategy of choice — checked
    # before the class-preference order so that e.g. full *guarded* sets do
    # not detour through speculative rewriting.
    if (
        TGDClass.FULL in classes
        or TGDClass.NON_RECURSIVE in classes
        or _cached_weakly_acyclic(omq.sigma)
    ):
        return _evaluate_omq(
            omq, database, method="chase", chase_max_steps=chase_max_steps
        )
    if TGDClass.LINEAR in classes or TGDClass.STICKY in classes:
        return _evaluate_omq(
            omq, database, method="rewriting", rewriting_budget=rewriting_budget
        )
    # Guarded / arbitrary: try a rewriting attempt first (database
    # independent, memoized), then a terminating chase, then fall back to
    # the bounded chase.
    #
    # A disjunct over a predicate that no S-database makes true has no
    # answers, and every query XRewrite derives from it keeps such an
    # atom.  When every disjunct has one, the empty UCQ is the exact
    # rewriting; the attempt would only explore that useless space, whose
    # discarded duplicates its budget does not count, for minutes.
    derivable = _derivable_predicates(omq)
    if not any(d.predicates() <= derivable for d in query.disjuncts):
        return EvaluationResult(set(), True, "rewriting")
    rewriting = cached_rewriting(omq, rewriting_budget)
    if rewriting.complete:
        return EvaluationResult(
            rewriting.rewriting.evaluate(database), True, "rewriting"
        )
    # Probe for a terminating chase with a small budget: guarded chases
    # either reach a fixpoint quickly on small databases or run forever.
    probe_steps = min(chase_max_steps, 5_000)
    try:
        result = chase(database, omq.sigma, max_steps=probe_steps)
        return EvaluationResult(query.evaluate(result.instance), True, "chase")
    except ChaseBudgetExceeded:
        pass
    return _evaluate_omq(
        omq,
        database,
        method="bounded-chase",
        chase_max_steps=chase_max_steps,
        chase_max_depth=chase_max_depth,
    )


def certain_answer(
    omq: OMQ,
    database: Instance,
    answer: Sequence[Term] = (),
    **kwargs,
) -> bool:
    """Is *answer* a certain answer of the OMQ over the database?"""
    return tuple(answer) in evaluate_omq(omq, database, **kwargs).answers
