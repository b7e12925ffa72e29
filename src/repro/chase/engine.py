"""The chase procedure (Section 2).

Given an instance ``I`` and a set ``Σ`` of tgds, the chase exhaustively
applies *chase steps*: whenever a tgd ``φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)`` has a
trigger — a homomorphism mapping its body into the current instance — the
head is added with fresh nulls for z̄.  The result ``chase(I, Σ)`` is a
universal model: it embeds homomorphically into every model of ``I ∪ Σ``,
so certain answers satisfy ``cert(q, D, Σ) = q(chase(D, Σ))``.

Two flavours are provided:

* **restricted** (default) — a trigger fires only if its head is not already
  satisfied with the same frontier assignment; this is the standard chase
  whose termination for non-recursive/full sets the paper relies on.
* **oblivious** — every trigger fires exactly once regardless of
  satisfaction; simpler to reason about, never terminates earlier than the
  restricted chase.

The chase may not terminate (e.g. for linear or sticky tgds), so the engine
takes explicit budgets: ``max_steps`` bounds chase-step applications, and
``max_depth`` bounds the *level* of created nulls (the guarded-chase depth:
facts have level 0 and a null created from a trigger whose image has level
``k`` gets level ``k+1``).  Exceeding ``max_steps`` raises
:class:`ChaseBudgetExceeded` unless ``partial=True``; reaching ``max_depth``
silently truncates (the standard device for sound bounded evaluation of
guarded OMQs, cf. Section 5's discussion of the infinite guarded chase).
A ``goal`` — a query and an answer tuple — stops the chase as soon as the
answer holds: the chase is then a search for a proof, not for a model.

Trigger discovery is semi-naive, on a
:class:`~repro.kernel.instance.WorkingInstance`: each round only searches
for triggers whose body image touches an atom added since the previous
round (:func:`repro.kernel.delta_triggers`).  Within a (round, rule) the
new triggers fire sorted by their ``(str(k), str(v))`` pairs.  Trigger
levels are immutable and fired-trigger keys are remembered, so the run —
output instance, step count, levels and log — is that of the chase by
rounds that re-enumerates every trigger each round.  ``tests/oracle.py``
writes that chase without the kernel, and the tests hold this one to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.queries import CQ, UCQ
from ..core.terms import NullFactory, Term, Variable
from ..core.tgd import TGD
from ..kernel import (
    KERNEL_METRICS,
    WorkingInstance,
    compiled_search,
    delta_triggers,
    flush_cardinality,
)
from .. import obs

#: Buckets for the per-round new-fact-count histogram (counts, not seconds).
_ROUND_SIZE_BUCKETS = (1, 2, 5, 10, 50, 200, 1000, 5000)


class ChaseBudgetExceeded(RuntimeError):
    """The chase exhausted its step budget before reaching a fixpoint.

    Carries the partial result so callers can still use it as a sound
    under-approximation.
    """

    def __init__(self, partial: "ChaseResult") -> None:
        super().__init__(
            f"chase did not terminate within {partial.steps} steps"
        )
        self.partial = partial


@dataclass(frozen=True)
class ChaseStep:
    """One application ``I --τ,(ā,b̄)--> J`` recorded for provenance."""

    tgd_index: int
    trigger: Tuple[Tuple[Variable, Term], ...]
    added: Tuple[Atom, ...]


@dataclass
class ChaseResult:
    """The outcome of a chase run."""

    instance: Instance
    steps: int
    terminated: bool
    levels: Dict[Term, int] = field(default_factory=dict)
    log: List[ChaseStep] = field(default_factory=list)
    goal_reached: bool = False

    def level_of_atom(self, a: Atom) -> int:
        """The level of an atom: the max level of its arguments (0 if ground)."""
        return max((self.levels.get(t, 0) for t in a.args), default=0)


def _trigger_key(
    tgd_index: int, assignment: Dict[Term, Term], frontier: Sequence[Variable]
) -> Tuple:
    return (tgd_index, tuple(assignment[v] for v in frontier))


def _satisfies_head(instance, rule: TGD, assignment: Dict[Term, Term]) -> bool:
    """Is the head already satisfied with this frontier assignment?

    Existential variables may be re-witnessed by any term, so we search for
    an extension of the frontier part of the assignment into the instance.
    """
    frontier_fixed = {
        v: assignment[v] for v in rule.frontier() if v in assignment
    }
    return compiled_search(rule.head).find(instance, frontier_fixed) is not None


def _trigger_sort_key(h: Dict[Term, Term]) -> List[Tuple[str, str]]:
    return sorted((str(k), str(v)) for k, v in h.items())


def chase(
    instance: Instance,
    sigma: Sequence[TGD],
    *,
    policy: str = "restricted",
    max_steps: int = 100_000,
    max_depth: Optional[int] = None,
    partial: bool = False,
    null_factory: Optional[NullFactory] = None,
    goal: Optional[Tuple[Union[CQ, UCQ], Sequence[Term]]] = None,
) -> ChaseResult:
    """Run the chase of *instance* under *sigma*.

    Parameters
    ----------
    policy:
        ``"restricted"`` or ``"oblivious"``.
    max_steps:
        Budget on chase-step applications; exceeding it raises
        :class:`ChaseBudgetExceeded` (or returns a partial result when
        ``partial=True``).
    max_depth:
        If given, triggers whose image already sits at this level do not
        fire; the result is then the chase truncated at that null depth —
        sound but possibly incomplete for certain-answer computation.
    partial:
        Return a non-terminated :class:`ChaseResult` instead of raising when
        the step budget runs out.
    goal:
        A ``(query, answer)`` pair.  The chase tests
        ``answer ∈ query(I)`` before the first step and after every step
        that adds a fact over one of the query's predicates, and stops as
        soon as it holds, with ``goal_reached`` set and ``terminated``
        False.  A chase that runs out of steps or reaches its fixpoint
        first returns as it would without a goal.
    """
    if policy not in ("restricted", "oblivious"):
        raise ValueError(f"unknown chase policy: {policy}")
    nulls = null_factory or NullFactory()
    work = WorkingInstance.from_instance(instance)
    levels: Dict[Term, int] = {t: 0 for t in instance.domain()}
    fired: Set[Tuple] = set()
    log: List[ChaseStep] = []
    steps = 0
    rules = [(i, r) for i, r in enumerate(sigma)]
    frontiers = {
        i: tuple(sorted(r.frontier(), key=lambda v: v.name)) for i, r in rules
    }
    bodies = {i: r.body for i, r in rules}
    existentials = {
        i: tuple(sorted(r.existential_variables(), key=lambda v: v.name))
        for i, r in rules
    }
    rounds_counter = KERNEL_METRICS.counter("kernel.chase.rounds")
    round_sizes = KERNEL_METRICS.histogram(
        "kernel.chase.round_size", buckets=_ROUND_SIZE_BUCKETS
    )

    with obs.span("chase.run", policy=policy, rules=len(sigma)) as run_span:

        def make_result(
            terminated: bool, goal_reached: bool = False
        ) -> ChaseResult:
            run_span.set("steps", steps)
            run_span.set("terminated", terminated)
            if goal is not None:
                run_span.set("goal_reached", goal_reached)
            # One counter bump per predicate per run: /metrics shows the
            # cardinality regime the join planner saw.
            flush_cardinality(work.cardinality_stats())
            return ChaseResult(
                work.snapshot(), steps, terminated, levels, log, goal_reached
            )

        if goal is not None:
            goal_query, goal_answer = goal
            goal_predicates = goal_query.predicates()
            if goal_query.holds_in(work, goal_answer):
                return make_result(False, True)
        old_mark = 0
        new_mark = work.watermark()
        first_round = True
        round_no = 0
        while first_round or new_mark > old_mark:
            rounds_counter.inc()
            round_no += 1
            round_steps = steps
            with obs.span("chase.round", n=round_no) as round_span:
                for i, rule in rules:
                    # New triggers only: homomorphisms into the round-start
                    # window that touch at least one atom added since the
                    # previous round.  Within a (round, rule) they fire in
                    # the order a full re-enumeration sorts them into, so
                    # the whole run — nulls, steps, log — is that of the
                    # chase by rounds.
                    triggers = sorted(
                        delta_triggers(bodies[i], work, old_mark, new_mark),
                        key=_trigger_sort_key,
                    )
                    round_span.add("delta_triggers", len(triggers))
                    for h in triggers:
                        key = _trigger_key(i, h, frontiers[i])
                        if key in fired:
                            continue
                        trigger_level = max(
                            (
                                levels.get(h[v], 0)
                                for v in rule.body_variables()
                            ),
                            default=0,
                        )
                        if max_depth is not None and trigger_level >= max_depth:
                            # Levels are immutable, so this trigger stays
                            # skipped forever; the delta discovery simply
                            # never revisits it.
                            continue
                        if policy == "restricted" and _satisfies_head(
                            work, rule, h
                        ):
                            fired.add(key)
                            continue
                        if steps >= max_steps:
                            result = make_result(False)
                            if partial:
                                return result
                            raise ChaseBudgetExceeded(result)
                        assignment = dict(h)
                        for z in existentials[i]:
                            fresh = nulls.fresh()
                            assignment[z] = fresh
                            levels[fresh] = trigger_level + 1
                        added: List[Atom] = []
                        for head_atom in rule.head:
                            new_atom = head_atom.substitute(assignment)
                            for t in new_atom.args:
                                levels.setdefault(t, 0)
                            if work.add(new_atom):
                                added.append(new_atom)
                        fired.add(key)
                        steps += 1
                        log.append(
                            ChaseStep(
                                i,
                                tuple(
                                    sorted(
                                        h.items(), key=lambda kv: str(kv[0])
                                    )
                                ),
                                tuple(added),
                            )
                        )
                        if (
                            goal is not None
                            and any(a.predicate in goal_predicates for a in added)
                            and goal_query.holds_in(work, goal_answer)
                        ):
                            return make_result(False, True)
                new_facts = work.watermark() - new_mark
                round_sizes.observe(new_facts)
                round_span.add("fired", steps - round_steps)
                round_span.add("new_facts", new_facts)
            first_round = False
            old_mark, new_mark = new_mark, work.watermark()
        return make_result(True)


def chase_terminates(
    instance: Instance,
    sigma: Sequence[TGD],
    *,
    max_steps: int = 100_000,
    policy: str = "restricted",
) -> bool:
    """True iff the chase reaches a fixpoint within the step budget."""
    try:
        result = chase(
            instance, sigma, policy=policy, max_steps=max_steps, partial=False
        )
    except ChaseBudgetExceeded:
        return False
    return result.terminated


def certain_answers_via_chase(
    query,
    database: Instance,
    sigma: Sequence[TGD],
    *,
    max_steps: int = 100_000,
    max_depth: Optional[int] = None,
    partial: bool = False,
):
    """``cert(q, D, Σ) = q(chase(D, Σ))`` for a CQ or UCQ *query*.

    Exact when the chase terminates; a sound under-approximation when
    truncated by ``max_depth`` or ``partial``.
    """
    result = chase(
        database,
        sigma,
        max_steps=max_steps,
        max_depth=max_depth,
        partial=partial,
    )
    return query.evaluate(result.instance)
