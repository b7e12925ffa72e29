"""A kernel-free reference for homomorphisms, the chase and certain answers.

The tests of the homomorphism kernel, the delta chase and OMQ evaluation
check the code under test against this module, so it shares none of that
code: it imports no ``repro.kernel``, no ``repro.core.homomorphism`` and
no ``repro.evaluation``, and builds only the core data types (``Atom``,
``Instance``, ``NullFactory``) and the chase's result types.

* :func:`homomorphisms` is a nested-loop matcher: each body atom in body
  order, against a plain list of the target's facts over its predicate.
  No join planning, no positional index, no interning.
* :func:`chase` is the restricted or oblivious chase by rounds.  Every
  round enumerates every trigger over the facts present at its start and
  fires them in the order the program's chase uses (sorted by
  ``(str(k), str(v))`` pairs), with the same fired-trigger keys, nulls
  from a :class:`NullFactory`, null levels, and ``max_depth`` /
  ``max_steps`` / ``partial`` rules.  So its :class:`ChaseResult` equals
  the program's in instance, steps, log, levels and ``terminated``
  (:func:`run_of`).
* :func:`answers` and :func:`certain_answers` evaluate a UCQ over an
  instance, and an OMQ as ``q(chase(D, Σ))``.

Everything here is exponential in body size, and the chase re-enumerates
every trigger each round; it is meant for small inputs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.chase.engine import ChaseBudgetExceeded, ChaseResult, ChaseStep
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant, NullFactory, Term

FactLists = Dict[str, List[Atom]]


def _fact_lists(atoms) -> FactLists:
    by_predicate: FactLists = {}
    for a in atoms:
        by_predicate.setdefault(a.predicate, []).append(a)
    return by_predicate


def _matches(
    body: Sequence[Atom], facts: FactLists, partial: Dict[Term, Term]
) -> Iterator[Dict[Term, Term]]:
    """Every extension of *partial* that sends each atom of *body*, in
    order, onto a fact.  Constants map to themselves; variables and nulls
    map anywhere, consistently."""
    if not body:
        yield dict(partial)
        return
    first, rest = body[0], body[1:]
    for candidate in facts.get(first.predicate, ()):
        if len(candidate.args) != len(first.args):
            continue
        extended = dict(partial)
        for term, value in zip(first.args, candidate.args):
            if isinstance(term, Constant):
                if term != value:
                    break
            elif extended.setdefault(term, value) != value:
                break
        else:
            yield from _matches(rest, facts, extended)


def homomorphisms(
    source: Sequence[Atom],
    target: Instance,
    fixed: Optional[Mapping[Term, Term]] = None,
) -> List[Dict[Term, Term]]:
    """Every homomorphism from *source* into *target* that extends *fixed*.
    Bindings in *fixed* for terms outside *source* appear in every result
    unchanged."""
    facts = _fact_lists(target.atoms)
    return list(_matches(tuple(source), facts, dict(fixed or {})))


def _trigger_order(h: Dict[Term, Term]) -> List[Tuple[str, str]]:
    return sorted((str(k), str(v)) for k, v in h.items())


def chase(
    instance: Instance,
    sigma,
    *,
    policy: str = "restricted",
    max_steps: int = 100_000,
    max_depth: Optional[int] = None,
    partial: bool = False,
    null_factory: Optional[NullFactory] = None,
) -> ChaseResult:
    """The chase of *instance* under *sigma*, by rounds.

    Takes the program chase's options (no ``goal``) and follows its
    rules: a trigger whose image sits at level ``max_depth`` or deeper is
    skipped; under ``"restricted"`` a trigger whose head already holds
    with its frontier values is marked fired without a step; a step past
    ``max_steps`` returns the partial result (``partial=True``) or raises
    :class:`ChaseBudgetExceeded` carrying it.
    """
    if policy not in ("restricted", "oblivious"):
        raise ValueError(f"unknown chase policy: {policy}")
    nulls = null_factory or NullFactory()
    atoms: Set[Atom] = set(instance.atoms)
    live = _fact_lists(atoms)
    levels: Dict[Term, int] = {t: 0 for t in instance.domain()}
    fired: Set[Tuple] = set()
    log: List[ChaseStep] = []
    steps = 0

    def result(terminated: bool) -> ChaseResult:
        return ChaseResult(Instance(frozenset(atoms)), steps, terminated, levels, log)

    rules = [
        (
            i,
            rule,
            tuple(sorted(rule.frontier(), key=lambda v: v.name)),
            tuple(sorted(rule.existential_variables(), key=lambda v: v.name)),
        )
        for i, rule in enumerate(sigma)
    ]
    grew = True
    while grew:
        round_start = {p: list(facts) for p, facts in live.items()}
        size = len(atoms)
        for i, rule, frontier, existentials in rules:
            triggers = sorted(_matches(rule.body, round_start, {}), key=_trigger_order)
            for h in triggers:
                key = (i, tuple(h[v] for v in frontier))
                if key in fired:
                    continue
                level = max(
                    (levels.get(h[v], 0) for v in rule.body_variables()), default=0
                )
                if max_depth is not None and level >= max_depth:
                    continue
                if policy == "restricted":
                    witnesses = _matches(rule.head, live, {v: h[v] for v in frontier})
                    if next(witnesses, None) is not None:
                        fired.add(key)
                        continue
                if steps >= max_steps:
                    if partial:
                        return result(False)
                    raise ChaseBudgetExceeded(result(False))
                assignment = dict(h)
                for z in existentials:
                    assignment[z] = nulls.fresh()
                    levels[assignment[z]] = level + 1
                added = []
                for head_atom in rule.head:
                    new = head_atom.substitute(assignment)
                    for t in new.args:
                        levels.setdefault(t, 0)
                    if new not in atoms:
                        atoms.add(new)
                        live.setdefault(new.predicate, []).append(new)
                        added.append(new)
                fired.add(key)
                steps += 1
                log.append(
                    ChaseStep(
                        i,
                        tuple(sorted(h.items(), key=lambda kv: str(kv[0]))),
                        tuple(added),
                    )
                )
        grew = len(atoms) > size
    return result(True)


def run_of(result: ChaseResult) -> Tuple:
    """What two chases share when they made the same run: the instance,
    the step count, the log, the null levels and termination."""
    return (result.instance, result.steps, result.log, result.levels, result.terminated)


def answers(ucq, instance: Instance) -> Set[Tuple[Term, ...]]:
    """``ucq(instance)``: the head tuples of its disjuncts' matches that
    hold constants only."""
    facts = _fact_lists(instance.atoms)
    out: Set[Tuple[Term, ...]] = set()
    for disjunct in ucq.disjuncts:
        for h in _matches(disjunct.body, facts, {}):
            row = tuple(h.get(t, t) for t in disjunct.head)
            if all(isinstance(t, Constant) for t in row):
                out.add(row)
    return out


def certain_answers(
    omq,
    database: Instance,
    *,
    max_steps: int = 100_000,
    max_depth: Optional[int] = None,
) -> Optional[Set[Tuple[Term, ...]]]:
    """``cert(q, D, Σ) = q(chase(D, Σ))``, or None when the chase does not
    reach its fixpoint within *max_steps* (with *max_depth*, the fixpoint
    of the chase truncated at that null depth)."""
    result = chase(
        database, omq.sigma, max_steps=max_steps, max_depth=max_depth, partial=True
    )
    if not result.terminated:
        return None
    return answers(omq.as_ucq(), result.instance)
