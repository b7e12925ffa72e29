"""C-trees and their Γ_{S,l} encodings (Definitions 2/9, Lemmas 22 and 41).

A database ``D`` is a *C-tree* for ``C ⊆ D`` if it has a tree decomposition
whose root bag induces exactly ``C`` and which is guarded except for the
root: ``C`` is the cyclic core, the rest of ``D`` hangs off it tree-like.
Proposition 21 makes these the witness class for guarded OMQ containment.

This module provides:

* a GYO-style constructor that *finds* a witnessing decomposition when one
  exists (join-tree construction over the atom hypergraph, rooted at the
  core bag),
* the Γ_{S,l} alphabet and the encoding of a C-tree into a labeled tree
  using core names ``c0..c(l-1)`` and 2·ar(S) transient names,
* the five consistency conditions on labeled trees, and
* the decoding ``⟦t⟧`` of a consistent tree back into a C-tree database
  whose elements are the a-connectivity classes ``[v]_a`` (Lemma 41).

Encoding then decoding yields an isomorphic database (tested), which is the
content of Lemma 22's bridge between databases and trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.schema import Schema
from ..core.terms import Constant, Term
from .decomposition import TreeDecomposition, decomposition_from_bags
from .labeled_tree import LabeledTree, Node


# ---------------------------------------------------------------------------
# Finding a witnessing decomposition (GYO / join-tree construction)
# ---------------------------------------------------------------------------


def try_build_ctree_decomposition(
    database: Instance, core: Instance
) -> Optional[TreeDecomposition]:
    """A decomposition witnessing that *database* is a *core*-tree, or None.

    Runs the GYO ear-removal algorithm on the hypergraph whose hyperedges
    are the argument sets of the non-core atoms, with the core's domain as
    an always-present root edge.  Succeeds iff such a witness exists for
    bags chosen among atom argument sets (the natural witness shape; a
    database whose tree part needs bags spanning several atoms is not
    guarded-tree-like anyway).
    """
    if not core.atoms <= database.atoms:
        return None
    core_domain = frozenset(core.domain())
    rest = sorted(
        (a for a in database.atoms if a not in core.atoms), key=str
    )
    # Hyperedges: one per remaining atom (dedup by argument set keeps all
    # atoms since distinct atoms may share arg sets; bags may repeat).
    edges: List[FrozenSet[Term]] = [frozenset(a.args) for a in rest]
    # Every core atom must be induced by the root bag.
    for a in core.atoms:
        if not set(a.args) <= core_domain:  # pragma: no cover - defensive
            return None
    # Non-core atoms over core domain only can live in the root too — but
    # then they belong to C by Definition 2 (the root induces exactly C).
    for a in rest:
        if set(a.args) <= core_domain:
            return None

    remaining = list(range(len(edges)))
    parent_of: Dict[int, Optional[int]] = {}
    changed = True
    while remaining and changed:
        changed = False
        for i in list(remaining):
            others: Set[Term] = set(core_domain)
            for j in remaining:
                if j != i:
                    others |= edges[j]
            boundary = edges[i] & others
            host: Optional[int] = None
            if boundary <= core_domain:
                host = -1  # attach under the root
            else:
                # An ear: everything i shares with the rest sits inside one
                # other bag, which becomes its parent (term connectivity
                # then holds along the parent edge).
                for j in remaining:
                    if j != i and boundary <= edges[j]:
                        host = j
                        break
            if host is not None:
                parent_of[i] = None if host == -1 else host
                remaining.remove(i)
                changed = True
    if remaining:
        return None

    # Assemble the rooted tree: root bag = core domain, children per edge.
    bags: Dict[Node, FrozenSet[Term]] = {(): core_domain}
    node_of: Dict[int, Node] = {}
    children_count: Dict[Node, int] = {(): 0}

    def place(i: int) -> Node:
        if i in node_of:
            return node_of[i]
        p = parent_of[i]
        parent_node = () if p is None else place(p)
        children_count.setdefault(parent_node, 0)
        children_count[parent_node] += 1
        node = parent_node + (children_count[parent_node],)
        node_of[i] = node
        bags[node] = edges[i]
        children_count[node] = 0
        return node

    for i in sorted(parent_of):
        place(i)
    decomposition = decomposition_from_bags(bags)
    if not decomposition.is_valid_for(database):
        return None
    if not decomposition.is_guarded_except(database, exempt=[()]):
        return None
    if decomposition.induced_instance(database, ()) != core:
        return None
    return decomposition


def is_ctree(database: Instance, core: Instance) -> bool:
    """True iff *database* is a *core*-tree witnessed by an atom-bag decomposition."""
    return try_build_ctree_decomposition(database, core) is not None


# ---------------------------------------------------------------------------
# The Γ_{S,l} alphabet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeLabel:
    """One symbol set ρ ∈ Γ_{S,l} = 2^{K_{S,l}}.

    ``names`` are the D_a flags, ``core_names`` the C_a flags, and ``atoms``
    the R_ā flags (predicate plus name tuple).
    """

    names: FrozenSet[str]
    core_names: FrozenSet[str]
    atoms: FrozenSet[Tuple[str, Tuple[str, ...]]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", frozenset(self.names))
        object.__setattr__(self, "core_names", frozenset(self.core_names))
        object.__setattr__(self, "atoms", frozenset(self.atoms))

    def __str__(self) -> str:
        atoms = ", ".join(
            f"{p}({', '.join(args)})" for p, args in sorted(self.atoms)
        )
        return f"⟨names={sorted(self.names)}, core={sorted(self.core_names)}, atoms=[{atoms}]⟩"


@dataclass(frozen=True)
class Alphabet:
    """The parameters of Γ_{S,l}: core names C_l and transient names T_S."""

    schema: Schema
    core_size: int

    @property
    def core_names(self) -> Tuple[str, ...]:
        return tuple(f"c{i}" for i in range(self.core_size))

    @property
    def transient_names(self) -> Tuple[str, ...]:
        return tuple(f"t{i}" for i in range(2 * self.schema.max_arity))

    @property
    def all_names(self) -> Tuple[str, ...]:
        return self.core_names + self.transient_names


# ---------------------------------------------------------------------------
# Consistency (the five conditions before Lemma 41)
# ---------------------------------------------------------------------------


def _label(tree: LabeledTree, node: Node) -> TreeLabel:
    label = tree.label(node)
    if not isinstance(label, TreeLabel):
        raise TypeError(f"node {node} is not labeled with a TreeLabel")
    return label


def consistency_violations(
    tree: LabeledTree, alphabet: Alphabet
) -> List[str]:
    """Human-readable violations of the five consistency conditions."""
    violations: List[str] = []
    core_set = set(alphabet.core_names)
    all_names = set(alphabet.all_names)
    arity = alphabet.schema.max_arity
    for node in tree.nodes():
        rho = _label(tree, node)
        limit = alphabet.core_size if node == () else arity
        # (1) name budget; root uses only core names.
        if len(rho.names) > limit:
            violations.append(f"(1) node {node} holds {len(rho.names)} names > {limit}")
        if node == () and not rho.names <= core_set:
            violations.append(f"(1) root holds non-core names {rho.names - core_set}")
        if not rho.names <= all_names:
            violations.append(f"(1) node {node} uses unknown names")
        # (2) atoms only over present names.
        for p, args in rho.atoms:
            if not set(args) <= rho.names:
                violations.append(f"(2) node {node}: atom {p}{args} uses absent names")
            if alphabet.schema.arity(p) != len(args):
                violations.append(f"(2) node {node}: atom {p}{args} has wrong arity")
        # (3) core names are flagged as core everywhere they occur.
        for a in rho.names & core_set:
            if a not in rho.core_names:
                violations.append(f"(3) node {node}: core name {a} lacks C-flag")
        for a in rho.core_names:
            if a not in rho.names:
                violations.append(f"(3) node {node}: C-flag without D-flag for {a}")
            if a not in core_set:
                violations.append(f"(3) node {node}: C-flag on transient name {a}")
        # (4) core names persist on the path to the root.
        if node != ():
            parent = tree.parent(node)
            parent_rho = _label(tree, parent)
            for a in rho.core_names:
                if a not in parent_rho.core_names:
                    violations.append(
                        f"(4) node {node}: core name {a} absent from parent"
                    )
    # (5) every non-root node is guarded by some connected atom.
    for node in tree.nodes():
        if node == ():
            continue
        rho = _label(tree, node)
        if not rho.names:
            continue
        if not _find_guard(tree, node, rho):
            violations.append(f"(5) node {node} has no guard for {sorted(rho.names)}")
    return violations


def _find_guard(tree: LabeledTree, node: Node, rho: TreeLabel) -> bool:
    """Is there an atom R_ā at a node w with names(v) ⊆ ā, b-connected for all b?"""
    for w in tree.nodes():
        w_rho = _label(tree, w)
        for p, args in w_rho.atoms:
            if not rho.names <= set(args):
                continue
            path = tree.path_between(node, w)
            if all(
                all(b in _label(tree, u).names for u in path)
                for b in rho.names
            ):
                return True
    return False


def is_consistent(tree: LabeledTree, alphabet: Alphabet) -> bool:
    """True iff the labeled tree satisfies all five consistency conditions."""
    return not consistency_violations(tree, alphabet)


# ---------------------------------------------------------------------------
# Encoding a C-tree into a consistent labeled tree
# ---------------------------------------------------------------------------


def encode_ctree(
    database: Instance,
    core: Instance,
    decomposition: Optional[TreeDecomposition] = None,
) -> Tuple[LabeledTree, Alphabet]:
    """Encode a C-tree database into a Γ_{S,l}-labeled tree.

    Returns the tree together with the alphabet parameters.  Raises
    ValueError if no witnessing decomposition can be found.
    """
    if decomposition is None:
        decomposition = try_build_ctree_decomposition(database, core)
        if decomposition is None:
            raise ValueError("database is not a C-tree for the given core")
    schema = database.schema() if len(database) else core.schema()
    alphabet = Alphabet(schema, core_size=len(core.domain()))

    core_elements = sorted(core.domain(), key=str)
    name_of_core = {
        e: alphabet.core_names[i] for i, e in enumerate(core_elements)
    }
    assignment: Dict[Node, Dict[Term, str]] = {}

    labels: Dict[Node, TreeLabel] = {}
    for node in decomposition.tree.nodes():
        bag = decomposition.bag(node)
        parent = decomposition.tree.parent(node)
        mapping: Dict[Term, str] = {}
        used: Set[str] = set()
        parent_map = assignment.get(parent, {}) if parent is not None else {}
        for e in sorted(bag, key=str):
            if e in name_of_core:
                mapping[e] = name_of_core[e]
            elif e in parent_map:
                mapping[e] = parent_map[e]
            used.add(mapping.get(e, ""))
        # Fresh transient names for new elements: avoid names used in this
        # bag and in the parent's bag (neighboring-bag distinctness).
        forbidden = set(mapping.values()) | set(parent_map.values())
        pool = [n for n in alphabet.transient_names if n not in forbidden]
        for e in sorted(bag, key=str):
            if e not in mapping:
                if not pool:  # pragma: no cover - 2·ar names always suffice
                    raise ValueError("ran out of transient names")
                mapping[e] = pool.pop(0)
        assignment[node] = mapping
        induced = decomposition.induced_instance(database, node)
        atoms = frozenset(
            (a.predicate, tuple(mapping[t] for t in a.args))
            for a in induced.atoms
        )
        names = frozenset(mapping.values())
        core_flags = frozenset(
            mapping[e] for e in bag if e in name_of_core
        )
        labels[node] = TreeLabel(names, core_flags, atoms)
    return LabeledTree(labels), alphabet


# ---------------------------------------------------------------------------
# Decoding a consistent labeled tree (Lemma 41)
# ---------------------------------------------------------------------------


def decode_tree(
    tree: LabeledTree, alphabet: Alphabet, prefix: str = "e"
) -> Tuple[Instance, Instance]:
    """``⟦t⟧``: decode a consistent tree into (database, core).

    Elements are the a-connectivity equivalence classes ``[v]_a``; each is
    rendered as a fresh constant.  The core is the sub-instance induced by
    the root's elements.
    """
    violations = consistency_violations(tree, alphabet)
    if violations:
        raise ValueError(f"tree is not consistent: {violations[0]}")

    # Union-find over (node, name) occurrences; adjacent nodes sharing a
    # name refer to the same element.
    parent: Dict[Tuple[Node, str], Tuple[Node, str]] = {}

    def find(k: Tuple[Node, str]) -> Tuple[Node, str]:
        parent.setdefault(k, k)
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def union(a: Tuple[Node, str], b: Tuple[Node, str]) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb, key=str)] = min(ra, rb, key=str)

    for node in tree.nodes():
        rho = _label(tree, node)
        for a in rho.names:
            find((node, a))
        p = tree.parent(node)
        if p is not None:
            p_rho = _label(tree, p)
            for a in rho.names & p_rho.names:
                union((node, a), (p, a))

    representatives = sorted({find(k) for k in parent}, key=str)
    constant_of = {
        rep: Constant(f"{prefix}{i}") for i, rep in enumerate(representatives)
    }

    atoms: Set[Atom] = set()
    for node in tree.nodes():
        rho = _label(tree, node)
        for p, args in rho.atoms:
            atoms.add(
                Atom(p, tuple(constant_of[find((node, a))] for a in args))
            )
    database = Instance.of(atoms)
    root_rho = _label(tree, ()) if () in tree else None
    if root_rho is None:
        return database, Instance.empty()
    root_elements = {constant_of[find(((), a))] for a in root_rho.names}
    core = database.induced_by(root_elements)
    return database, core
