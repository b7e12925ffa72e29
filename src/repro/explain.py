"""Certain-answer explanations from chase provenance.

``explain_answer`` replays the chase with its step log and reconstructs,
for a given certain answer, a *derivation forest*: which query disjunct
matched, which chase atoms support each query atom, and — recursively —
which rule applications produced each derived atom from which premises,
bottoming out at database facts.

This is the practical face of the chase's universality: every certain
answer has a finite syntactic justification, and surfacing it is what an
OBDA debugger needs.  Only available when the chase of the database
terminates (non-recursive / full / weakly-acyclic ontologies — exactly the
cases where the chase is the evaluation strategy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .chase.engine import ChaseResult, chase
from .core.atoms import Atom
from .core.homomorphism import find_homomorphism
from .core.instance import Instance
from .core.omq import OMQ
from .core.terms import Constant, Term
from . import obs


@dataclass(frozen=True)
class Derivation:
    """One derived (or base) atom with its immediate justification."""

    atom: Atom
    rule: Optional[str]  # None for database facts
    premises: Tuple["Derivation", ...] = ()

    def is_fact(self) -> bool:
        return self.rule is None

    def depth(self) -> int:
        return 0 if self.is_fact() else 1 + max(
            (p.depth() for p in self.premises), default=0
        )

    def facts_used(self) -> Tuple[Atom, ...]:
        """The database facts this derivation ultimately rests on."""
        if self.is_fact():
            return (self.atom,)
        out: List[Atom] = []
        for p in self.premises:
            out.extend(p.facts_used())
        return tuple(dict.fromkeys(out))


@dataclass(frozen=True)
class Explanation:
    """Why *answer* is a certain answer: one derivation per query atom.

    ``decision_id`` cross-links the explanation to its trace: when the
    explanation was built inside an active decision span, it carries the
    root span id of that trace (the same id ``repro trace`` prints and the
    Chrome exporter puts in ``args``), so a derivation forest and the
    phase timings of the run that produced it can be joined offline.
    """

    answer: Tuple[Term, ...]
    disjunct: str
    derivations: Tuple[Derivation, ...]
    decision_id: Optional[str] = None

    def facts_used(self) -> Tuple[Atom, ...]:
        out: List[Atom] = []
        for d in self.derivations:
            out.extend(d.facts_used())
        return tuple(dict.fromkeys(out))

    def max_depth(self) -> int:
        return max((d.depth() for d in self.derivations), default=0)


def _provenance_index(
    result: ChaseResult, sigma
) -> Dict[Atom, Tuple[str, Tuple[Atom, ...]]]:
    """atom → (rule name, premise atoms) for every chase-derived atom."""
    index: Dict[Atom, Tuple[str, Tuple[Atom, ...]]] = {}
    for step in result.log:
        rule = sigma[step.tgd_index]
        assignment = dict(step.trigger)
        premises = tuple(a.substitute(assignment) for a in rule.body)
        label = rule.name or f"rule#{step.tgd_index}"
        for atom in step.added:
            index.setdefault(atom, (label, premises))
    return index


def _derive(
    atom: Atom,
    database: Instance,
    index: Dict[Atom, Tuple[str, Tuple[Atom, ...]]],
    cache: Dict[Atom, Derivation],
) -> Derivation:
    if atom in cache:
        return cache[atom]
    if atom in database:
        node = Derivation(atom, None)
    else:
        rule, premises = index[atom]
        # Mark as in-progress to cut (impossible, but defensive) cycles.
        cache[atom] = Derivation(atom, rule)
        node = Derivation(
            atom,
            rule,
            tuple(_derive(p, database, index, cache) for p in premises),
        )
    cache[atom] = node
    return node


def explain_answer(
    omq: OMQ,
    database: Instance,
    answer: Sequence[Term] = (),
    *,
    max_steps: int = 200_000,
) -> Optional[Explanation]:
    """A derivation-forest explanation of a certain answer, or None.

    Returns None when *answer* is not a certain answer.  Raises
    :class:`repro.chase.ChaseBudgetExceeded` when the chase diverges (use
    the rewriting-based evaluator for those ontologies; its justification
    is the matched rewriting disjunct instead).
    """
    omq.validate_database(database)
    answer = tuple(answer)
    with obs.span("explain.answer", answer=str(answer)) as ex:
        decision_id = obs.current_decision_id()
        result = chase(database, omq.sigma, max_steps=max_steps)
        index = _provenance_index(result, omq.sigma)
        for disjunct in omq.as_ucq().disjuncts:
            fixed: Dict[Term, Term] = {}
            compatible = True
            for head_term, value in zip(disjunct.head, answer):
                if isinstance(head_term, Constant):
                    if head_term != value:
                        compatible = False
                        break
                elif fixed.setdefault(head_term, value) != value:
                    compatible = False
                    break
            if not compatible:
                continue
            h = find_homomorphism(disjunct.body, result.instance, fixed)
            if h is not None:
                cache: Dict[Atom, Derivation] = {}
                derivations = tuple(
                    _derive(a.substitute(h), database, index, cache)
                    for a in disjunct.body
                )
                ex.set("disjunct", str(disjunct.name))
                return Explanation(
                    answer, str(disjunct), derivations, decision_id
                )
        return None


def format_explanation(explanation: Explanation, indent: str = "  ") -> str:
    """A human-readable rendering of the derivation forest."""
    lines: List[str] = [
        f"answer ({', '.join(str(t) for t in explanation.answer)}) "
        f"via {explanation.disjunct}"
    ]
    if explanation.decision_id:
        lines.append(f"{indent}(decision {explanation.decision_id})")

    def walk(node: Derivation, depth: int) -> None:
        tag = "fact" if node.is_fact() else f"by {node.rule}"
        lines.append(f"{indent * depth}{node.atom}   [{tag}]")
        for p in node.premises:
            walk(p, depth + 1)

    for d in explanation.derivations:
        walk(d, 1)
    return "\n".join(lines)
