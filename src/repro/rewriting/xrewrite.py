"""XRewrite: UCQ rewriting of OMQs (appendix Algorithm 1, after [40]).

Given an OMQ ``Q = (S, Σ, q)``, XRewrite exhaustively applies two steps,
starting from ``q``:

* **Rewriting step** — resolve a subset ``S ⊆ body(q)`` with a tgd whose
  head unifies with ``S`` (subject to the *applicability* condition of
  Definition 6, which protects constants and shared variables from landing
  on existential positions), replacing ``S`` by the tgd's body.
* **Factorization step** — unify atoms of the query that must have been
  produced by the same chase step (Definition 7), turning shared variables
  into non-shared ones so that further rewriting steps become applicable.

The final rewriting keeps the queries labeled ``r`` (the factorization
outputs are auxiliary) that mention only data-schema predicates.  For OMQs
based on linear, non-recursive or sticky tgds the procedure terminates and
the result ``q'`` satisfies ``Q(D) = q'(D)`` for every S-database D
(Definition 1: UCQ rewritability).

Deviations from the paper, both documented in DESIGN.md:

* tgds with several head atoms are first split through an auxiliary
  predicate (:func:`repro.core.tgd.normalize_single_head`);
* tgds may have several existential variables / occurrences — Definition 6
  is applied position-wise to the set of existential positions, which is
  the natural generalization and agrees with the paper on normal-form tgds.

Because XRewrite need not terminate for arbitrary tgds (Proposition 8's
boundary), the engine takes a query budget and raises
:class:`RewritingBudgetExceeded`, carrying the partial rewriting, when the
budget is exhausted.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.instance import freeze_collision
from ..core.omq import OMQ
from ..core.queries import CQ, UCQ, IsoKey, core_and_checks
from ..core.terms import Constant, Term, Variable
from ..core.tgd import TGD, normalize_single_head
from ..kernel import KERNEL_METRICS, atom_str
from .. import obs
from .unification import mgu


class RewritingBudgetExceeded(RuntimeError):
    """XRewrite exceeded its query budget (the ontology may not be UCQ-rewritable)."""

    def __init__(self, partial: "RewritingResult") -> None:
        super().__init__(
            f"XRewrite generated more than {partial.stats.budget} queries"
        )
        self.partial = partial


@dataclass
class RewritingStats:
    """Counters describing an XRewrite run."""

    budget: int
    atom_budget: int = 0
    total_atoms: int = 0
    rewriting_steps: int = 0
    factorization_steps: int = 0
    queries_generated: int = 1  # the input query
    queries_final: int = 0

    def add(self, other: "RewritingStats") -> None:
        """Add every field of *other* (runs over the disjuncts of a union)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class RewritingResult:
    """The outcome of XRewrite: the rewriting plus run statistics."""

    rewriting: UCQ
    stats: RewritingStats
    complete: bool = True

    def max_disjunct_size(self) -> int:
        """max_i |q_i| — compared against the f_O bounds in the benches."""
        return self.rewriting.max_disjunct_size()


@dataclass
class _Entry:
    query: CQ
    label: str  # "r" or "f"
    explored: bool = False


class _SeenIndex:
    """Signature-bucketed isomorphism dedup over one XRewrite run.

    Each stored query keeps its :class:`IsoKey` for the run's length, so
    its signature and match target are built once, not per comparison.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Tuple, List[Tuple[str, IsoKey]]] = {}

    def add(self, key: IsoKey, label: str) -> None:
        self._buckets.setdefault(key.signature, []).append((label, key))

    def seen(self, key: IsoKey, labels: Tuple[str, ...]) -> bool:
        return any(
            label in labels and key.isomorphic_to(stored)
            for label, stored in self._buckets.get(key.signature, ())
        )


#: The stored labels a candidate of each kind is checked against: a
#: rewriting-step query is new unless an ``r`` query matches it; a
#: factorization output is dropped if any query matches it.
_CHECKED_AGAINST = {"r": ("r",), "f": ("r", "f")}


class _OutOfBudget(Exception):
    """A new query would exceed the query or atom budget."""


def _existential_positions(rule: TGD) -> Tuple[int, ...]:
    """Positions of the (single) head atom holding existential variables."""
    head = rule.head[0]
    existentials = rule.existential_variables()
    return tuple(
        i for i, t in enumerate(head.args)
        if isinstance(t, Variable) and t in existentials
    )


def _applicable(
    query: CQ, subset: Sequence[Atom], rule: TGD, ex_positions: Tuple[int, ...]
) -> Optional[Dict[Term, Term]]:
    """Definition 6 (generalized): the MGU if the rule applies to *subset*.

    For each existential variable z of the rule (occurring at head
    positions Π_z), the query terms sitting at Π_z across *subset* would be
    identified with the fresh null z invented by the chase.  That is sound
    iff every such term is a variable that is (i) not free, (ii) absent
    from the rest of the query, (iii) absent from non-Π_z slots within the
    subset, and (iv) not also claimed by a different existential variable.
    (The paper's Definition 6 is the normal-form special case — one
    occurrence of one existential — where this reduces to "not a constant,
    not shared"; the refinement matters for heads like ∃e R(e, e), which
    must resolve the query atom R(x, x).)
    """
    head = rule.head[0]
    existential_of: Dict[int, Variable] = {
        p: head.args[p] for p in ex_positions  # type: ignore[misc]
    }
    free = set(query.free_variables())

    # Occurrences of each variable: total in the query body, and within the
    # subset at each existential variable's positions.  The body is a set
    # of atoms — a CQ tuple may carry value-equal duplicates, and counting
    # them twice would block rewriting steps the set semantics permits
    # (`remaining` below is likewise computed over set(q.body)).
    total_occurrences: Dict[Variable, int] = {}
    for a in set(query.body):
        for t in a.args:
            if isinstance(t, Variable):
                total_occurrences[t] = total_occurrences.get(t, 0) + 1
    claimed_by: Dict[Variable, Variable] = {}  # query var -> existential
    z_occurrences: Dict[Variable, int] = {}
    for a in subset:
        for pos, z in existential_of.items():
            t = a.args[pos]
            if isinstance(t, Constant):
                return None
            if isinstance(t, Variable):
                if t in free:
                    return None
                if claimed_by.setdefault(t, z) != z:
                    return None  # claimed by two distinct existentials
                z_occurrences[t] = z_occurrences.get(t, 0) + 1
    # Multiplicity within the (multi)set of subset atoms: the same atom
    # object can only appear once in `subset` (sets of atoms), so per-atom
    # counting above is exact; the variable must occur nowhere else.
    for t, z_count in z_occurrences.items():
        if total_occurrences.get(t, 0) != z_count:
            return None
    query_vars = query.variables()

    def rank(t: Term) -> Tuple:
        if isinstance(t, Variable):
            if t in free:
                return (0,)
            if t in query_vars:
                return (1,)
            return (2,)
        return (3,)

    return mgu(list(subset) + [head], rank=rank)


def _factorizable(
    query: CQ, subset: Sequence[Atom], rule: TGD, ex_positions: Tuple[int, ...]
) -> Optional[Dict[Term, Term]]:
    """Definition 7: the MGU of *subset* if factorizable w.r.t. *rule*."""
    if len(subset) < 2:
        return None
    head = rule.head[0]
    if any(a.predicate != head.predicate or a.arity != head.arity for a in subset):
        return None
    rest_vars: Set[Variable] = set()
    subset_set = set(subset)
    for a in query.body:
        if a not in subset_set:
            rest_vars.update(a.variables())
    candidates: Set[Variable] = set.intersection(
        *(a.variables() for a in subset)
    ) - rest_vars
    witness = None
    existential = set(ex_positions)
    for x in sorted(candidates, key=lambda v: v.name):
        if all(
            set(a.positions_of(x)) <= existential and a.positions_of(x)
            for a in subset
        ):
            witness = x
            break
    if witness is None:
        return None
    free = set(query.free_variables())

    def rank(t: Term) -> Tuple:
        if isinstance(t, Variable) and t in free:
            return (0,)
        return (1,)

    return mgu(list(subset), rank=rank)


#: Candidate queries larger than this skip core minimization (the hom
#: checks would dominate); they are still deduplicated by isomorphism.
_CORE_SIZE_LIMIT = 24


def _candidate(
    query: CQ, sub: Dict[Term, Term], new_body: Sequence[Atom], name: str
) -> CQ:
    """The query a step builds: *new_body* and the head under *sub*."""
    head = tuple(
        sub.get(t, t) if isinstance(t, Variable) else t for t in query.head
    )
    # atom_str is the kernel's memoized str(a): generated queries re-sort
    # the same (value-equal) atoms thousands of times across candidates.
    body = tuple(sorted({a.substitute(sub) for a in new_body}, key=atom_str))
    return CQ(head, body, name)


def _cores_are_exact(query: CQ, rules: Sequence[TGD]) -> bool:
    """Whether ``CQ.core()`` returns a true core for every query of a run.

    Its hom checks freeze each variable ``x`` to the constant ``c_x``.
    With no null and no constant of that spelling, freezing is injective
    and keeps variables apart from constants, so each check is the
    Chandra–Merlin test and the greedy result is a core, unique up to
    isomorphism.  Candidates only carry terms of the query and the rules.
    """
    atoms = list(query.body) + [a for r in rules for a in r.body + r.head]
    terms = list(query.head) + [t for a in atoms for t in a.args]
    return freeze_collision(terms) is None


def _atoms_over(query: CQ, predicate: str, arity: int) -> List[Atom]:
    """The distinct body atoms over *predicate*, in deterministic order."""
    return sorted(
        (a for a in set(query.body) if a.predicate == predicate and a.arity == arity),
        key=atom_str,
    )


def _subsets(atoms: Sequence[Atom], max_size: int):
    """Non-empty subsets of *atoms* up to *max_size*, smallest first."""
    for size in range(1, min(len(atoms), max_size) + 1):
        yield from itertools.combinations(atoms, size)


def xrewrite_cq(
    data_schema,
    sigma: Sequence[TGD],
    query: CQ,
    *,
    max_queries: int = 20_000,
    max_total_atoms: int = 400_000,
    max_subset_size: Optional[int] = None,
    partial: bool = False,
    minimize: bool = True,
) -> RewritingResult:
    """Run XRewrite on a single CQ; see :func:`xrewrite` for the OMQ wrapper.

    ``minimize=False`` disables the query-elimination optimization (used by
    the ablation bench to demonstrate why it matters).

    Two budgets guard divergence: ``max_queries`` caps how many distinct
    queries are generated and ``max_total_atoms`` caps the *work* (sum of
    generated query sizes) — ontologies whose rewritings grow unboundedly
    (e.g. recursive Datalog) hit the atom budget quickly instead of
    thrashing on ever-longer queries.

    Besides ``kernel.xrewrite.seconds``, a run adds to the kernel counters
    ``kernel.xrewrite.candidates`` (queries built by a step) and
    ``kernel.xrewrite.duplicates`` (those discarded as isomorphic to an
    earlier one); its ``rewrite.xrewrite`` span carries both, and the
    hom checks its core minimizations ran, as attributes.
    """
    rules = [
        (rule, _existential_positions(rule))
        for rule in normalize_single_head(list(sigma))
    ]
    stats = RewritingStats(budget=max_queries, atom_budget=max_total_atoms)
    stats.total_atoms = len(query.body)
    start = _Entry(query, "r")
    entries: List[_Entry] = [start]
    counter = itertools.count(1)
    # The stored queries (after minimization).
    index = _SeenIndex()
    index.add(IsoKey(query), "r")
    # The candidates as built (before minimization).  Isomorphic queries
    # have isomorphic cores, so a candidate isomorphic to an earlier one
    # that its labels accept would be discarded after minimization anyway:
    # the earlier one was stored, or matched a stored query.  That skips
    # its core() and its second check.  Exact only while cores are.
    built = (
        _SeenIndex()
        if minimize and _cores_are_exact(query, [r for r, _ in rules])
        else None
    )
    counts = {"candidates": 0, "duplicates": 0, "core_hom_checks": 0}

    frontier = deque([start])
    run_span = obs.span(
        "rewrite.xrewrite", query=query.name, rules=len(rules)
    )
    stride = obs.growth_stride()

    def note_growth() -> None:
        # One structured event per `growth_stride` generated queries — the
        # disjunct-growth curve of Props. 12/14/17 at bounded trace cost.
        if run_span.active and stats.queries_generated % stride == 0:
            run_span.event(
                "growth",
                generated=stats.queries_generated,
                total_atoms=stats.total_atoms,
                frontier=len(frontier),
            )

    def admit(
        q: CQ, sub: Dict[Term, Term], new_body: Sequence[Atom], label: str
    ) -> None:
        """Store and queue a step's query unless a stored one matches it."""
        counts["candidates"] += 1
        candidate = _candidate(q, sub, new_body, f"{query.name}_{label}")
        labels = _CHECKED_AGAINST[label]
        key = IsoKey(candidate)
        # Core-minimize generated queries — [40]'s "query elimination"
        # optimization.  Without it, recursive sticky sets accumulate
        # homomorphically redundant atoms (fresh once-occurring variables)
        # and the exhaustive rewriting diverges even though the minimized
        # rewriting is finite.  Replacing a disjunct by its core preserves
        # equivalence.
        if minimize and len(candidate.body) <= _CORE_SIZE_LIMIT:
            if built is not None:
                if built.seen(key, labels):
                    counts["duplicates"] += 1
                    return
                built.add(key, label)
            core, checks = core_and_checks(candidate)
            counts["core_hom_checks"] += checks
            if core.body != candidate.body:
                candidate, key = core, IsoKey(core)
        if index.seen(key, labels):
            counts["duplicates"] += 1
            return
        if (
            stats.queries_generated >= max_queries
            or stats.total_atoms + len(candidate.body) > max_total_atoms
        ):
            raise _OutOfBudget
        if label == "r":
            stats.rewriting_steps += 1
        else:
            stats.factorization_steps += 1
        stats.queries_generated += 1
        stats.total_atoms += len(candidate.body)
        note_growth()
        entry = _Entry(candidate, label)
        entries.append(entry)
        index.add(key, label)
        frontier.append(entry)

    def finish(complete: bool) -> RewritingResult:
        result = _finalize(data_schema, entries, stats, complete)
        run_span.set("generated", stats.queries_generated)
        run_span.set("rewriting_steps", stats.rewriting_steps)
        run_span.set("factorization_steps", stats.factorization_steps)
        run_span.set("final_disjuncts", stats.queries_final)
        for name, value in counts.items():
            run_span.set(name, value)
        run_span.set("complete", complete)
        return result

    # The accumulated wall-clock of rewriting runs lands in the kernel
    # registry next to the hom-search counters (observed on every exit,
    # including budget-exhaustion raises).
    with run_span, KERNEL_METRICS.timer("kernel.xrewrite.seconds").time():
        try:
            while frontier:
                entry = frontier.popleft()
                if entry.explored:
                    continue
                entry.explored = True
                q = entry.query
                for rule, ex_positions in rules:
                    # Every (query, rule) pair spends one copy index, even
                    # when no step applies, so rule copies keep their names.
                    copy = next(counter)
                    head = rule.head[0]
                    atoms = _atoms_over(q, head.predicate, head.arity)
                    if not atoms:
                        continue
                    fresh = rule.with_indexed_variables(copy).rename_apart(
                        q.variables()
                    )
                    max_size = max_subset_size or len(q.body)
                    # Rewriting step.
                    for subset in _subsets(atoms, max_size):
                        sub = _applicable(q, subset, fresh, ex_positions)
                        if sub is not None:
                            resolved = set(subset)
                            remaining = [
                                a for a in set(q.body) if a not in resolved
                            ]
                            admit(q, sub, remaining + list(fresh.body), "r")
                    # Factorization step (Definition 7 needs an existential
                    # position in the rule's head).
                    if not ex_positions:
                        continue
                    for subset in _subsets(atoms, max_size):
                        sub = _factorizable(q, subset, fresh, ex_positions)
                        if sub is not None:
                            admit(q, sub, q.body, "f")
        except _OutOfBudget:
            result = finish(complete=False)
            if partial:
                return result
            raise RewritingBudgetExceeded(result)
        finally:
            for name in ("candidates", "duplicates"):
                if counts[name]:
                    KERNEL_METRICS.counter(f"kernel.xrewrite.{name}").inc(
                        counts[name]
                    )
        return finish(complete=True)


def _finalize(
    data_schema, entries: Sequence[_Entry], stats: RewritingStats, complete: bool
) -> RewritingResult:
    # The r entries are pairwise non-isomorphic by construction (each was
    # checked against every earlier one), so the union needs no dedup.
    final: List[CQ] = [
        e.query
        for e in entries
        if e.label == "r"
        and all(p in data_schema for p in e.query.predicates())
    ]
    stats.queries_final = len(final)
    return RewritingResult(UCQ(tuple(final)), stats, complete)


def xrewrite(
    omq: OMQ,
    *,
    max_queries: int = 20_000,
    max_total_atoms: int = 400_000,
    partial: bool = False,
) -> RewritingResult:
    """UCQ-rewrite an OMQ (CQ- or UCQ-based).

    For a UCQ-based OMQ the disjuncts are rewritten independently and the
    results unioned — sound because rewriting distributes over union.  The
    statistics are the sums of the disjuncts' runs, except
    ``queries_final``, which counts the deduplicated union.
    """
    stats_total = RewritingStats(budget=0, queries_generated=0)
    disjuncts: List[CQ] = []
    complete = True
    for d in omq.as_ucq().disjuncts:
        result = xrewrite_cq(
            omq.data_schema,
            omq.sigma,
            d,
            max_queries=max_queries,
            max_total_atoms=max_total_atoms,
            partial=partial,
        )
        disjuncts.extend(result.rewriting.disjuncts)
        stats_total.add(result.stats)
        complete = complete and result.complete
    ucq = UCQ(tuple(disjuncts), omq.as_ucq().name + "_rw").deduplicate()
    stats_total.queries_final = len(ucq.disjuncts)
    return RewritingResult(ucq, stats_total, complete)
