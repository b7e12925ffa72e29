"""Conjunctive queries and unions of conjunctive queries.

A CQ (Section 2, eq. (1)) is ``q(x̄) :- ∃ȳ (R1(v̄1) ∧ ... ∧ Rm(v̄m))``; its
evaluation over an instance is defined through homomorphisms.  A UCQ is a
finite disjunction of CQs of the same arity.  This module provides:

* evaluation (all answers / membership of a specific tuple),
* canonical ("frozen") databases — the Chandra–Merlin device,
* variable hygiene (renaming apart), isomorphism and equivalence tests,
* the connected components ``co(q)`` of a CQ (used by Section 7.1).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..kernel.instance import trusted_instance
from ..kernel.metrics import KERNEL_METRICS
from ..kernel.search import atom_str, compiled_search
from .atoms import Atom, variables_of_atoms
from .instance import Instance, freeze_atoms, freezing
from .schema import Schema
from .terms import Constant, Term, Variable


class QueryError(ValueError):
    """Raised on malformed queries (unsafe head, arity mismatches, ...)."""


@dataclass(frozen=True)
class CQ:
    """A conjunctive query with head ``head`` and body ``body``.

    ``head`` is the tuple of output terms x̄ (variables, or constants for
    partially instantiated queries); all other body variables are implicitly
    existentially quantified.  ``name`` is cosmetic.
    """

    head: Tuple[Term, ...]
    body: Tuple[Atom, ...]
    name: str = "q"

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "body", tuple(self.body))
        body_vars = variables_of_atoms(self.body)
        for t in self.head:
            if isinstance(t, Variable) and t not in body_vars:
                raise QueryError(f"unsafe head variable {t} in {self.name}")

    # -- structure -------------------------------------------------------

    @property
    def arity(self) -> int:
        """The number of output positions."""
        return len(self.head)

    def is_boolean(self) -> bool:
        """True iff the query has no output positions."""
        return not self.head

    def variables(self) -> Set[Variable]:
        """All variables occurring in the query."""
        out = variables_of_atoms(self.body)
        out.update(t for t in self.head if isinstance(t, Variable))
        return out

    def free_variables(self) -> Tuple[Variable, ...]:
        """The head variables, in head order, without duplicates."""
        seen: List[Variable] = []
        for t in self.head:
            if isinstance(t, Variable) and t not in seen:
                seen.append(t)
        return tuple(seen)

    def existential_variables(self) -> Set[Variable]:
        """Body variables that are not free."""
        return self.variables() - set(self.free_variables())

    def constants(self) -> Set[Constant]:
        """All constants occurring in head or body."""
        out: Set[Constant] = {t for t in self.head if isinstance(t, Constant)}
        for a in self.body:
            out.update(a.constants())
        return out

    def predicates(self) -> Set[str]:
        """Predicate names used in the body."""
        return {a.predicate for a in self.body}

    def schema(self) -> Schema:
        """Schema inferred from the body atoms."""
        return Schema.from_atoms(self.body)

    def size(self) -> int:
        """``|q|``: the number of body atoms (the paper's measure)."""
        return len(self.body)

    def shared_variables(self) -> Set[Variable]:
        """Variables that are free or occur in more than one body atom.

        This is the paper's notion of *shared* variable used in the
        applicability condition of XRewrite (appendix, Definition 6): shared
        means free in ``q`` or occurring more than once in ``q`` (counting
        multiple occurrences inside one atom).
        """
        counts: Dict[Variable, int] = {}
        for a in self.body:
            for t in a.args:
                if isinstance(t, Variable):
                    counts[t] = counts.get(t, 0) + 1
        shared = {v for v, c in counts.items() if c > 1}
        shared.update(self.free_variables())
        return shared

    def variables_in_multiple_atoms(self) -> Set[Variable]:
        """``var≥2(q)``: variables appearing in more than one body atom."""
        seen: Dict[Variable, int] = {}
        for a in self.body:
            for v in a.variables():
                seen[v] = seen.get(v, 0) + 1
        return {v for v, c in seen.items() if c > 1}

    # -- semantics -------------------------------------------------------

    def evaluate(
        self, instance: Instance, constants_only: bool = True
    ) -> Set[Tuple[Term, ...]]:
        """``q(I)``: the set of answer tuples.

        With ``constants_only`` (the paper's definition) only tuples made
        entirely of constants are reported; set it to False to also see
        answers containing nulls (useful when inspecting chase internals).
        """
        answers: Set[Tuple[Term, ...]] = set()
        for h in compiled_search(self.body).search(instance):
            tup = tuple(h.get(t, t) for t in self.head)
            if constants_only and not all(isinstance(t, Constant) for t in tup):
                continue
            answers.add(tup)
        return answers

    def holds_in(self, instance: Instance, answer: Sequence[Term] = ()) -> bool:
        """True iff *answer* ∈ q(I) (for Boolean queries: q(I) ≠ ∅)."""
        answer = tuple(answer)
        if len(answer) != self.arity:
            raise QueryError(
                f"answer arity {len(answer)} != query arity {self.arity}"
            )
        fixed: Dict[Term, Term] = {}
        for t, value in zip(self.head, answer):
            if isinstance(t, Variable):
                if fixed.get(t, value) != value:
                    return False
                fixed[t] = value
            elif t != value:
                return False
        return compiled_search(self.body).find(instance, fixed) is not None

    # -- canonical database ----------------------------------------------

    def canonical_database(
        self, prefix: str = "c_"
    ) -> Tuple[Instance, Tuple[Term, ...]]:
        """Freeze the body into a database D_q and the canonical answer c(x̄).

        Every variable becomes a fresh constant; the returned tuple is the
        image of the head under the freezing.
        """
        db, mapping = freeze_atoms(self.body, prefix)
        canonical = tuple(
            mapping.get(t, t) if isinstance(t, Variable) else t for t in self.head
        )
        return db, canonical

    # -- hygiene ----------------------------------------------------------

    def rename(self, mapping: Mapping[Variable, Term]) -> "CQ":
        """Apply a variable substitution to head and body."""
        head = tuple(
            mapping.get(t, t) if isinstance(t, Variable) else t for t in self.head
        )
        body = tuple(a.substitute(mapping) for a in self.body)
        return CQ(head, body, self.name)

    def rename_apart(self, taken: Iterable[Variable], suffix: str = "_r") -> "CQ":
        """Rename this query's variables away from *taken*."""
        taken_names = {v.name for v in taken}
        mapping: Dict[Variable, Variable] = {}
        for v in sorted(self.variables(), key=lambda v: v.name):
            if v.name in taken_names:
                fresh_name = v.name + suffix
                k = 0
                while fresh_name in taken_names:
                    k += 1
                    fresh_name = f"{v.name}{suffix}{k}"
                mapping[v] = Variable(fresh_name)
                taken_names.add(fresh_name)
        return self.rename(mapping) if mapping else self

    def standardize(self, prefix: str = "v") -> "CQ":
        """Rename variables to a canonical v0, v1, ... order.

        The order is: head variables first (head order), then remaining body
        variables in deterministic atom order.  Two isomorphic queries need
        *not* standardize identically (atom order may differ), so this is a
        normalization, not a canonical form.
        """
        order: List[Variable] = []
        for t in self.head:
            if isinstance(t, Variable) and t not in order:
                order.append(t)
        for a in sorted(self.body, key=str):
            for t in a.args:
                if isinstance(t, Variable) and t not in order:
                    order.append(t)
        mapping = {v: Variable(f"{prefix}{i}") for i, v in enumerate(order)}
        return self.rename(mapping)

    # -- components (Section 7.1) -----------------------------------------

    def components(self) -> List["CQ"]:
        """``co(q)``: the connected components of the body.

        Each component keeps the head terms it mentions; following the
        paper's Proposition 27 usage, a component query retains the full
        head restricted to its own variables.  Atoms of arity 0 are rejected
        (footnote 5 of the paper).
        """
        if any(a.arity == 0 for a in self.body):
            raise QueryError("components undefined for queries with 0-ary atoms")
        if not self.body:
            return [self]
        adjacency: Dict[Variable, Set[Variable]] = {}
        for a in self.body:
            for v in a.variables():
                adjacency.setdefault(v, set()).update(a.variables() - {v})
        seen: Set[Variable] = set()
        groups: List[Set[Variable]] = []
        for v in sorted(adjacency, key=lambda v: v.name):
            if v in seen:
                continue
            stack, members = [v], set()
            while stack:
                node = stack.pop()
                if node in members:
                    continue
                members.add(node)
                stack.extend(adjacency[node] - members)
            seen.update(members)
            groups.append(members)
        out: List[CQ] = []
        used_atoms: Set[Atom] = set()
        for i, group in enumerate(groups):
            atoms = tuple(
                a for a in self.body if a.variables() and a.variables() <= group
            )
            used_atoms.update(atoms)
            head = tuple(t for t in self.head if t in group)
            out.append(CQ(head, atoms, f"{self.name}_c{i}"))
        # Variable-free (ground) atoms each form their own trivial component.
        for a in self.body:
            if a not in used_atoms and not a.variables():
                out.append(CQ((), (a,), f"{self.name}_ground"))
        return out

    def core(self) -> "CQ":
        """A core of the CQ: a minimal equivalent subquery.

        Greedily drops body atoms while the remaining query still entails
        the dropped ones (checked Chandra–Merlin-style on the canonical
        database).  The result is the classical core, unique up to
        isomorphism, and equivalent to the original query.  See
        :func:`core_and_checks` for the procedure.
        """
        return core_and_checks(self)[0]

    # -- comparison -------------------------------------------------------

    def signature(self) -> Tuple:
        """A cheap isomorphism-invariant fingerprint.

        Isomorphic queries always share a signature (variables are
        abstracted to occurrence counts and head membership), so
        isomorphism only needs checking within signature groups.
        """
        counts: Dict[Term, int] = {}
        for a in self.body:
            for t in a.args:
                if isinstance(t, Variable):
                    counts[t] = counts.get(t, 0) + 1
        head_vars = set(self.free_variables())

        def slot(t: Term) -> Tuple:
            if isinstance(t, Variable):
                return ("v", counts.get(t, 0), t in head_vars)
            return ("c", str(t))

        body_sig = tuple(
            sorted(
                (a.predicate, tuple(slot(t) for t in a.args))
                for a in self.body
            )
        )
        return (tuple(slot(t) for t in self.head), body_sig)

    def is_isomorphic_to(self, other: "CQ") -> bool:
        """True iff the queries are equal up to bijective variable renaming.

        This is the ``≃`` relation that XRewrite uses for deduplication.
        """
        return IsoKey(self).isomorphic_to(IsoKey(other))

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head)
        body = ", ".join(str(a) for a in sorted(self.body, key=str))
        return f"{self.name}({head}) :- {body or 'true'}"

    def __repr__(self) -> str:
        return f"CQ(head={self.head!r}, body={self.body!r})"


class IsoKey:
    """A CQ prepared for repeated isomorphism tests.

    Holds, each built on first use, the query's :meth:`CQ.signature` and
    the ground target that injective matches *into* the query search (its
    body with every variable wrapped as an opaque token).  A caller that
    compares one query against many keeps one key per query for as long
    as it needs them (XRewrite: one run); nothing is cached on the CQ.
    """

    __slots__ = ("query", "_signature", "_target")

    def __init__(self, query: CQ) -> None:
        self.query = query
        self._signature: Optional[Tuple] = None
        self._target: Optional[Instance] = None

    @property
    def signature(self) -> Tuple:
        if self._signature is None:
            self._signature = self.query.signature()
        return self._signature

    @property
    def target(self) -> Instance:
        if self._target is None:
            tokens = {v: _VarToken(v) for v in self.query.variables()}
            self._target = Instance.of(
                a.substitute(tokens) for a in self.query.body
            )
        return self._target

    def isomorphic_to(self, other: "IsoKey") -> bool:
        """``self.query.is_isomorphic_to(other.query)``.

        That needs an injective match each way.  The way back is known to
        exist, and is not searched, when the way there renames variables
        to variables and neither body repeats an atom: such a match maps
        the atoms one-to-one onto the other body's, so its inverse is a
        match back.
        """
        left, right = self.query, other.query
        if left.arity != right.arity or len(left.body) != len(right.body):
            return False
        match = _injective_match(left, other)
        if match is None:
            return False
        if (
            all(
                isinstance(s, Variable) and isinstance(t, Variable)
                for s, t in match.items()
            )
            and len(set(left.body)) == len(left.body)
            and len(set(right.body)) == len(right.body)
        ):
            return True
        return _injective_match(right, self) is not None


def _injective_match(left: CQ, right: IsoKey) -> Optional[Dict[Term, Term]]:
    """An injective body hom left→right respecting head positions, or None."""
    fixed: Dict[Term, Term] = {}
    for s, t in zip(left.head, right.query.head):
        if isinstance(s, Variable):
            if fixed.get(s, t) != t:
                return None
            fixed[s] = t
        elif s != t:
            return None
    wrapped_fixed = {
        s: (_VarToken(t) if isinstance(t, Variable) else t)
        for s, t in fixed.items()
    }
    # Closed explicitly, as in HomSearch.find: stopping early must not leave
    # the search's counter flush to the garbage collector.
    with closing(
        compiled_search(left.body).search(right.target, wrapped_fixed)
    ) as matches:
        for h in matches:
            values = [v for v in h.values()]
            if len(set(values)) == len(values):
                return {k: _unwrap(v) for k, v in h.items()}
    return None


@dataclass(frozen=True, slots=True)
class _VarToken:
    """Wraps a variable as an opaque ground token for isomorphism search."""

    var: Variable


def _unwrap(t: Term) -> Term:
    return t.var if isinstance(t, _VarToken) else t


def core_and_checks(query: CQ) -> Tuple[CQ, int]:
    """``query.core()`` and the number of hom checks it ran.

    One sweep over the distinct body atoms in string order drops each atom
    *a* for which the query still maps into the canonical database of the
    atoms kept so far minus *a*, head variables fixed to their frozen
    images.  This is the greedy loop that restarts from the first atom
    after every drop, minus two kinds of check whose outcome is known:

    * an atom with no *compatible image* among the other kept atoms is not
      checked.  The hom must send *a* to some frozen atom, so that atom
      needs *a*'s predicate and arity, *a*'s constant or frozen head
      variable at each such position, and one value at all positions of
      each other term of *a*.  Images are compared as frozen terms, so a
      constant spelled like a frozen variable (``c_x`` next to ``x``)
      counts as the check itself counts it;
    * an atom found non-droppable is never checked again: the canonical
      database of fewer atoms is a sub-instance of that of more, so a hom
      into the smaller is also one into the larger.  The restart's re-scan
      of earlier atoms therefore drops nothing, and one sweep suffices.

    Dropped atoms, the kept atoms and their order, head and name are
    those of the greedy loop.  The checks are added to the
    ``kernel.core.hom_checks`` counter.
    """
    kept = sorted(dict.fromkeys(query.body), key=atom_str)
    mapping = freezing(kept)
    frozen = {a: a.substitute(mapping) for a in kept}
    fixed: Dict[Term, Term] = {
        t: mapping[t] for t in query.head if isinstance(t, Variable)
    }
    by_predicate: Dict[Tuple[str, int], List[Atom]] = {}
    for a in kept:
        by_predicate.setdefault((a.predicate, a.arity), []).append(a)
    alive = set(kept)
    search = compiled_search(query.body)
    checks = 0
    for a in tuple(kept):
        if not any(
            b != a and b in alive and _compatible_image(a, frozen[b], fixed)
            for b in by_predicate[(a.predicate, a.arity)]
        ):
            continue
        rest = [b for b in kept if b != a]
        if not fixed.keys() <= variables_of_atoms(rest):
            continue  # dropping `a` would make the head unsafe
        # query.holds_in(canonical database of rest, canonical answer)
        checks += 1
        db = trusted_instance(frozen[b] for b in rest)
        if search.find(db, fixed) is not None:
            kept = rest
            alive.discard(a)
    if checks:
        _CORE_CHECKS.inc(checks)
    return CQ(query.head, tuple(kept), query.name), checks


def _compatible_image(a: Atom, image: Atom, fixed: Mapping[Term, Term]) -> bool:
    """Whether a hom fixing *fixed* (and constants) can send *a* to *image*.

    *image* is a frozen atom of *a*'s predicate and arity.
    """
    bound: Dict[Term, Term] = {}
    for t, u in zip(a.args, image.args):
        if isinstance(t, Constant):
            if t != u:
                return False
        elif t in fixed:
            if fixed[t] != u:
                return False
        elif bound.setdefault(t, u) != u:
            return False
    return True


#: Hom checks run by :func:`core_and_checks` (see kernel/metrics.py).
_CORE_CHECKS = KERNEL_METRICS.counter("kernel.core.hom_checks")


@dataclass(frozen=True)
class UCQ:
    """A union of conjunctive queries of equal arity."""

    disjuncts: Tuple[CQ, ...]
    name: str = "q"

    def __post_init__(self) -> None:
        object.__setattr__(self, "disjuncts", tuple(self.disjuncts))
        arities = {d.arity for d in self.disjuncts}
        if len(arities) > 1:
            raise QueryError(f"mixed arities in UCQ: {sorted(arities)}")

    @classmethod
    def of(cls, *disjuncts: CQ, name: str = "q") -> "UCQ":
        return cls(tuple(disjuncts), name)

    @classmethod
    def from_cq(cls, q: CQ) -> "UCQ":
        return cls((q,), q.name)

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity if self.disjuncts else 0

    def is_boolean(self) -> bool:
        return self.arity == 0

    def is_empty(self) -> bool:
        """True iff the union has no disjuncts (the unsatisfiable query)."""
        return not self.disjuncts

    def predicates(self) -> Set[str]:
        out: Set[str] = set()
        for d in self.disjuncts:
            out.update(d.predicates())
        return out

    def schema(self) -> Schema:
        schema = Schema()
        for d in self.disjuncts:
            schema = schema | d.schema()
        return schema

    def evaluate(
        self, instance: Instance, constants_only: bool = True
    ) -> Set[Tuple[Term, ...]]:
        """``q(I) = ⋃ qi(I)``."""
        answers: Set[Tuple[Term, ...]] = set()
        for d in self.disjuncts:
            answers |= d.evaluate(instance, constants_only)
        return answers

    def holds_in(self, instance: Instance, answer: Sequence[Term] = ()) -> bool:
        """True iff some disjunct has *answer* among its answers."""
        return any(d.holds_in(instance, answer) for d in self.disjuncts)

    def max_disjunct_size(self) -> int:
        """max_i |q_i| — the quantity bounded by the f_O functions."""
        return max((d.size() for d in self.disjuncts), default=0)

    def deduplicate(self) -> "UCQ":
        """Drop disjuncts isomorphic to an earlier one (signature-bucketed)."""
        kept: List[CQ] = []
        buckets: Dict[Tuple, List[IsoKey]] = {}
        for d in self.disjuncts:
            key = IsoKey(d)
            bucket = buckets.setdefault(key.signature, [])
            if not any(key.isomorphic_to(k) for k in bucket):
                bucket.append(key)
                kept.append(d)
        return UCQ(tuple(kept), self.name)

    def minimize(self) -> "UCQ":
        """Drop disjuncts contained in another disjunct (as plain CQs).

        Keeps a ⊆-minimal cover; the result is equivalent as a UCQ.
        """
        from ..containment.cq import cq_contained_in  # local to avoid cycle

        kept: List[CQ] = []
        for d in self.disjuncts:
            if any(cq_contained_in(d, k) for k in kept):
                continue
            kept = [k for k in kept if not cq_contained_in(k, d)]
            kept.append(d)
        return UCQ(tuple(kept), self.name)

    def __iter__(self) -> Iterator[CQ]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __str__(self) -> str:
        return " ∨ ".join(str(d) for d in self.disjuncts) or "⊥"


def boolean_cq(body: Iterable[Atom], name: str = "q") -> CQ:
    """Build a Boolean CQ from body atoms."""
    return CQ((), tuple(body), name)
