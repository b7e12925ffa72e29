"""Instances and databases.

An *instance* over a schema ``S`` is a (here: finite, since we compute with
it) set of atoms over constants and nulls; a *database* is a finite set of
facts, i.e., an instance without nulls (Section 2).  The class below also
provides the pieces of structure the paper needs later:

* the active domain ``dom(I)``,
* a predicate index for fast homomorphism search,
* the Gaifman graph and its (maximally connected) components, used for
  distribution over components (Section 7.1),
* freezing of query bodies into canonical databases (used in the
  Chandra–Merlin argument and the small-witness containment algorithm).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .atoms import Atom
from .schema import Schema
from .terms import Constant, Null, Term, Variable


@dataclass(frozen=True)
class Instance:
    """An immutable set of ground atoms (constants and nulls, no variables).

    Instances are hashable and support the subset/union algebra used by the
    chase and by containment procedures.
    """

    atoms: FrozenSet[Atom] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        for a in self.atoms:
            if not a.is_ground():
                raise ValueError(f"instance atom contains a variable: {a}")

    # -- construction ----------------------------------------------------

    @classmethod
    def of(cls, atoms: Iterable[Atom]) -> "Instance":
        """Build an instance from any iterable of ground atoms."""
        return cls(frozenset(atoms))

    @classmethod
    def empty(cls) -> "Instance":
        """The empty instance."""
        return cls(frozenset())

    # -- basic structure -------------------------------------------------

    def domain(self) -> Set[Term]:
        """``dom(I)``: all terms occurring in the instance."""
        out: Set[Term] = set()
        for a in self.atoms:
            out.update(a.args)
        return out

    def constants(self) -> Set[Constant]:
        """All constants occurring in the instance."""
        return {t for t in self.domain() if isinstance(t, Constant)}

    def nulls(self) -> Set[Null]:
        """All labeled nulls occurring in the instance."""
        return {t for t in self.domain() if isinstance(t, Null)}

    def is_database(self) -> bool:
        """True iff the instance is a database (facts only, no nulls)."""
        return all(a.is_fact() for a in self.atoms)

    def schema(self) -> Schema:
        """The schema inferred from the atoms present."""
        return Schema.from_atoms(self.atoms)

    def predicates(self) -> Set[str]:
        """The predicate names occurring in the instance."""
        return {a.predicate for a in self.atoms}

    # -- indexing --------------------------------------------------------

    def by_predicate(self) -> Mapping[str, Tuple[Atom, ...]]:
        """Atoms grouped by predicate, in deterministic sorted order.

        Built once on first use and memoized on the (frozen) instance —
        repeated homomorphism searches against the same instance share the
        index instead of rebuilding it per call.
        """
        cached = self.__dict__.get("_by_predicate_memo")
        if cached is None:
            index: Dict[str, List[Atom]] = defaultdict(list)
            for a in self.atoms:
                index[a.predicate].append(a)
            cached = {
                p: tuple(sorted(atoms, key=_atom_sort_key))
                for p, atoms in index.items()
            }
            object.__setattr__(self, "_by_predicate_memo", cached)
        return cached

    # -- algebra ---------------------------------------------------------

    def union(self, other: "Instance") -> "Instance":
        """Set union of two instances."""
        return Instance(self.atoms | other.atoms)

    def restrict_to_predicates(self, predicates: Iterable[str]) -> "Instance":
        """The sub-instance on atoms whose predicate is in *predicates*."""
        keep = set(predicates)
        return Instance(frozenset(a for a in self.atoms if a.predicate in keep))

    def induced_by(self, terms: Iterable[Term]) -> "Instance":
        """The sub-instance induced by a set of domain elements.

        Keeps exactly the atoms all of whose arguments lie in *terms* (this is
        the paper's ``D_T(v)`` / ``D ↾ G`` notation).
        """
        allowed = set(terms)
        return Instance(
            frozenset(a for a in self.atoms if set(a.args) <= allowed)
        )

    def rename(self, mapping: Mapping[Term, Term]) -> "Instance":
        """Apply a term mapping to every atom."""
        return Instance(frozenset(a.substitute(mapping) for a in self.atoms))

    def freeze_nulls(self, prefix: str = "c_n") -> "Instance":
        """Replace every null with a distinct fresh constant.

        Used to turn a C-tree *instance* into a C-tree *database* as in the
        proof of Proposition 21.
        """
        mapping: Dict[Term, Term] = {
            n: Constant(f"{prefix}{n.ident}") for n in sorted(
                self.nulls(), key=lambda n: n.ident
            )
        }
        return self.rename(mapping)

    # -- Gaifman graph & components (Section 7.1) ------------------------

    def gaifman_adjacency(self) -> Mapping[Term, Set[Term]]:
        """Adjacency of the Gaifman graph: terms co-occurring in an atom."""
        adj: Dict[Term, Set[Term]] = defaultdict(set)
        for a in self.atoms:
            terms = set(a.args)
            for t in terms:
                adj[t].update(terms - {t})
                adj[t]  # ensure key exists even for isolated terms
        for t in self.domain():
            adj.setdefault(t, set())
        return adj

    def components(self) -> List["Instance"]:
        """The maximally connected components of the instance.

        Following the paper (Section 7.1) the notion is defined only for
        atoms with at least one argument; 0-ary atoms are excluded and raise
        if present, matching footnote 5.
        """
        if any(a.arity == 0 for a in self.atoms):
            raise ValueError(
                "components are undefined for instances with 0-ary atoms"
            )
        adj = self.gaifman_adjacency()
        seen: Set[Term] = set()
        components: List[Instance] = []
        atom_of_term: Dict[Term, List[Atom]] = defaultdict(list)
        for a in self.atoms:
            for t in set(a.args):
                atom_of_term[t].append(a)
        for start in sorted(adj, key=str):
            if start in seen:
                continue
            stack = [start]
            members: Set[Term] = set()
            while stack:
                node = stack.pop()
                if node in members:
                    continue
                members.add(node)
                stack.extend(adj[node] - members)
            seen.update(members)
            atoms: Set[Atom] = set()
            for t in members:
                atoms.update(atom_of_term[t])
            components.append(Instance(frozenset(atoms)))
        return components

    def is_connected(self) -> bool:
        """True iff the instance has at most one connected component."""
        if not self.atoms:
            return True
        return len(self.components()) <= 1

    # -- dunder ----------------------------------------------------------

    def __reduce__(self):
        # Pickle only the atoms: the index memos are cheap to rebuild and
        # would otherwise bloat every job payload shipped to worker
        # processes.
        return (Instance, (self.atoms,))

    def __contains__(self, a: Atom) -> bool:
        return a in self.atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self.atoms, key=_atom_sort_key))

    def __len__(self) -> int:
        return len(self.atoms)

    def __le__(self, other: "Instance") -> bool:
        return self.atoms <= other.atoms

    def __or__(self, other: "Instance") -> "Instance":
        return self.union(other)

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in self) + "}"

    def __repr__(self) -> str:
        return f"Instance({sorted(map(str, self.atoms))!r})"


# A database is an instance of facts; we keep a type alias for readability.
Database = Instance


def _atom_sort_key(a: Atom) -> Tuple:
    return (a.predicate, tuple(_term_sort_key(t) for t in a.args))


def _term_sort_key(t: Term) -> Tuple:
    if isinstance(t, Constant):
        return (0, t.name)
    if isinstance(t, Null):
        return (1, str(t.ident))
    return (2, str(t))  # variables / wrapper tokens used by iso search


#: The name prefix of frozen variables: ``x`` freezes to the constant ``c_x``.
FREEZE_PREFIX = "c_"


def freezing(
    atoms: Iterable[Atom], prefix: str = FREEZE_PREFIX
) -> Dict[Variable, Constant]:
    """The freezing map ``c`` of Proposition 10's proof, on *atoms*.

    Every variable ``x`` maps to the constant named ``prefix + x.name``.
    """
    return {
        t: Constant(f"{prefix}{t.name}")
        for a in atoms
        for t in a.args
        if isinstance(t, Variable)
    }


def freeze_collision(terms: Iterable[Term]) -> Optional[Term]:
    """The first of *terms* that can collide with a frozen variable, or None.

    Freezing maps ``x`` to the constant ``c_x``.  It is injective, and keeps
    frozen variables apart from every other term, only when no term is a
    null (which a homomorphism may move) or a constant spelled with
    :data:`FREEZE_PREFIX`.  A canonical-database argument is sound only
    when this returns None for every term it involves.
    """
    for t in terms:
        if isinstance(t, Null) or (
            isinstance(t, Constant) and t.name.startswith(FREEZE_PREFIX)
        ):
            return t
    return None


def freeze_atoms(
    atoms: Iterable[Atom], prefix: str = FREEZE_PREFIX
) -> Tuple[Instance, Dict[Variable, Constant]]:
    """Freeze a set of atoms with variables into a canonical database.

    Every variable ``x`` is replaced by the constant ``c(x)`` (named
    ``prefix + x.name``); constants stay put.  Returns the database and the
    variable→constant mapping (the ``c`` of Proposition 10's proof).
    """
    atoms = tuple(atoms)
    mapping = freezing(atoms, prefix)
    return Instance.of(a.substitute(mapping) for a in atoms), mapping
