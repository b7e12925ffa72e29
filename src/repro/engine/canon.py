"""Isomorphism-invariant canonical forms and content hashes.

The engine's cache is keyed by *content*, not by object identity or source
text: two α-equivalent CQs (equal up to bijective variable renaming and
body-atom reordering), two tgd sets listing the same rules in different
orders, or two OMQ documents that parse to isomorphic structures must map
to the same key, or the cache silently loses most of its hits.

``core/serialize.py`` renames *unsafe* variable names to ``v0, v1, ...``
but keeps user-chosen names, and ``CQ.standardize`` is order-sensitive —
both are normalizations, not canonical forms.  This module computes true
canonical labelings:

1. variables are partitioned by **iterated colour refinement** (the
   Weisfeiler–Leman idea on the query's incidence structure: a variable's
   colour summarizes the predicates/positions it occurs at and the colours
   of its co-arguments, iterated to a fixpoint);
2. ties inside a colour class are broken by **exhaustive search for the
   lexicographically least rendering**, which is what makes the form
   canonical rather than merely normalized.  The search space is the
   product of factorials of the class sizes; refinement keeps classes tiny
   (almost always singletons) for real queries.

For pathologically symmetric inputs whose search space exceeds
``LABELING_BUDGET``, the labeler falls back to refinement order with the
variable's *name* as the final tie-break — still deterministic, and still
invariant under atom/rule reordering, but not under adversarial renaming
of automorphic variables.  The fallback is flagged on the result so
callers can observe it; no generator input comes close to the budget
(``tests/test_canon_parity.py`` pins one body past it).

Head variables of a CQ are *pinned*: their canonical identity is their
first-occurrence position in the head (that position is semantic — it
determines the answer tuple), so only existential variables participate
in the search.

Content hashes are SHA-256 over a versioned, type-tagged canonical text;
bump :data:`CANON_VERSION` whenever the rendering changes so stale
persistent caches self-invalidate.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from math import factorial
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.atoms import Atom
from ..core.omq import OMQ
from ..core.queries import CQ, UCQ
from ..core.schema import Schema
from ..core.terms import Constant, Null, Term, Variable
from ..core.tgd import TGD

#: Version tag mixed into every digest; bump on any rendering change.
CANON_VERSION = "1"

#: Maximum number of candidate labelings the exact tie-break may explore.
LABELING_BUDGET = 40_320  # 8!


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical rendering plus whether the exact labeler produced it."""

    text: str
    exact: bool


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

#: One compiled atom: its tag, its predicate, and per argument either the
#: index of a free variable or the fixed rendering of any other term.
_Row = Tuple[str, str, List[Union[int, str]]]


def _fixed(t: Term, pins: Mapping[str, str]) -> str:
    """The rendering of a term that no labeling moves."""
    if isinstance(t, Constant):
        return f"c:{t.name}"
    if isinstance(t, Null):
        return f"n:{t.ident}"
    return pins[t.name]


def _refine_colours(rows: Sequence[_Row], n: int) -> List[int]:
    """Iterated colour refinement; returns each free variable's colour rank.

    A variable's initial colour is the sorted multiset of the (tag,
    predicate, arity, position) slots it occurs at.  Each round then adds
    the sorted list of the atoms around it, with co-arguments shown by
    their fixed rendering or their colour as ``w:<colour>`` (above every
    ``c:``/``h:``/``n:`` rendering; colours compare as decimal strings),
    until the number of colours stops growing.  When the initial colouring
    is already discrete — always so with at most one free variable — a
    round would hand the same ranks back, so none is run.
    """
    occurrences: List[List[Tuple[str, str, int, int]]] = [[] for _ in range(n)]
    for tag, predicate, args in rows:
        for pos, arg in enumerate(args):
            if arg.__class__ is int:
                occurrences[arg].append((tag, predicate, len(args), pos))
    keys = [tuple(sorted(occ)) for occ in occurrences]
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    colours = [rank[k] for k in keys]
    if len(rank) == n:
        return colours
    for _ in range(n):
        views: List[List[Tuple]] = [[] for _ in range(n)]
        for tag, predicate, args in rows:
            slots = tuple(
                f"w:{colours[arg]}" if arg.__class__ is int else arg
                for arg in args
            )
            for pos, arg in enumerate(args):
                if arg.__class__ is int:
                    views[arg].append((tag, predicate, pos, slots))
        new_keys = [(colours[i], tuple(sorted(views[i]))) for i in range(n)]
        ranks = {k: r for r, k in enumerate(sorted(set(new_keys)))}
        new_colours = [ranks[k] for k in new_keys]
        if len(ranks) == len(set(colours)):
            return new_colours
        colours = new_colours
    return colours


def _canonical_atoms(
    tagged_atoms: Sequence[Tuple[str, Atom]], pins: Mapping[str, str]
) -> Tuple[Tuple[str, ...], bool]:
    """The least rendering of *tagged_atoms* over admissible labelings.

    The atoms are compiled once into rows whose arguments are free-variable
    indices (variables keyed by name) or fixed renderings, *pins* giving
    each pinned variable's, and every candidate labeling renders from the
    rows.  Returns ``(sorted rendered atoms, exact)``.
    """
    free: Dict[str, int] = {}
    rows: List[_Row] = []
    for tag, a in tagged_atoms:
        args: List[Union[int, str]] = []
        for t in a.args:
            if t.__class__ is Variable and t.name not in pins:
                args.append(free.setdefault(t.name, len(free)))
            else:
                args.append(_fixed(t, pins))
        rows.append((tag, a.predicate, args))
    n = len(free)
    if n < 2:
        return _render(rows, range(n)), True

    colours = _refine_colours(rows, n)
    classes = [
        [i for i in range(n) if colours[i] == rank]
        for rank in sorted(set(colours))
    ]
    search_space = 1
    for cls in classes:
        search_space *= factorial(len(cls))
        if search_space > LABELING_BUDGET:
            # Deterministic fallback: refinement order, then variable name.
            names = list(free)
            order = [
                i for cls in classes for i in sorted(cls, key=names.__getitem__)
            ]
            return _render(rows, order), False

    best: Optional[Tuple[str, ...]] = None
    for perms in itertools.product(
        *(itertools.permutations(cls) for cls in classes)
    ):
        rendered = _render(rows, [i for perm in perms for i in perm])
        if best is None or rendered < best:
            best = rendered
    assert best is not None
    return best, True


def _render(rows: Sequence[_Row], order: Sequence[int]) -> Tuple[str, ...]:
    """The sorted atoms under the labeling giving ``order[k]`` label ``k``."""
    labels = [""] * len(order)
    for k, i in enumerate(order):
        labels[i] = f"x:{k}"
    return tuple(
        sorted(
            f"{tag}|{predicate}("
            f"{','.join([labels[a] if a.__class__ is int else a for a in args])})"
            for tag, predicate, args in rows
        )
    )


# ---------------------------------------------------------------------------
# Canonical forms per structure
# ---------------------------------------------------------------------------


def canonical_cq(q: CQ) -> CanonicalForm:
    """Canonical text of a CQ (name-independent, α- and order-invariant)."""
    pins: Dict[str, str] = {}
    for t in q.head:
        if isinstance(t, Variable):
            pins.setdefault(t.name, f"h:{len(pins)}")
    rendered, exact = _canonical_atoms([("B", a) for a in q.body], pins)
    head = ",".join(_fixed(t, pins) for t in q.head)
    return CanonicalForm(f"({head})<-[{';'.join(rendered)}]", exact)


def canonical_ucq(q: UCQ) -> CanonicalForm:
    """Canonical text of a UCQ: sorted canonical disjuncts."""
    forms = [canonical_cq(d) for d in q.disjuncts]
    texts = sorted(f.text for f in forms)
    return CanonicalForm("|".join(texts), all(f.exact for f in forms))


def canonical_tgd(t: TGD) -> CanonicalForm:
    """Canonical text of a single tgd (all variables are searched)."""
    tagged = [("B", a) for a in t.body] + [("H", a) for a in t.head]
    rendered, exact = _canonical_atoms(tagged, {})
    return CanonicalForm(";".join(rendered), exact)


def canonical_tgds(sigma: Iterable[TGD]) -> CanonicalForm:
    """Canonical text of a tgd set: sorted per-rule canonical forms.

    Rules are universally closed sentences, so each is canonicalized
    independently and the set is order-insensitive.  Duplicate rules
    collapse (a set, per the paper's ``Σ``).
    """
    forms = [canonical_tgd(t) for t in sigma]
    texts = sorted(set(f.text for f in forms))
    return CanonicalForm("&".join(texts), all(f.exact for f in forms))


def canonical_schema(schema: Schema) -> str:
    """Canonical text of a schema: sorted ``name/arity`` pairs."""
    return ",".join(f"{p}/{schema.arity(p)}" for p in schema.predicates())


def canonical_omq(omq: OMQ) -> CanonicalForm:
    """Canonical text of an OMQ ``(S, Σ, q)``; the cosmetic name is ignored."""
    sigma = canonical_tgds(omq.sigma)
    query = canonical_ucq(omq.as_ucq())
    text = (
        f"S[{canonical_schema(omq.data_schema)}]"
        f"O[{sigma.text}]Q[{query.text}]"
    )
    return CanonicalForm(text, sigma.exact and query.exact)


def canonical_instance(instance) -> CanonicalForm:
    """Canonical text of an instance, invariant under null *renaming*.

    Labeled nulls are existentially quantified placeholders, so two chase
    outputs that differ only in which null idents their factories handed
    out must canonicalize identically — that is exactly the equivalence the
    kernel's chase-parity checks need.  Each null is re-cast as a variable
    and canonically labeled; constants (and atom/set order) never matter.
    """
    blanks: Dict[Term, Term] = {
        n: Variable(f"!n{n.ident}")
        for n in sorted(instance.nulls(), key=lambda n: str(n.ident))
    }
    tagged = [("I", a.substitute(blanks)) for a in instance.atoms]
    rendered, exact = _canonical_atoms(tagged, {})
    return CanonicalForm(";".join(rendered), exact)


# ---------------------------------------------------------------------------
# Content hashes
# ---------------------------------------------------------------------------


def _digest(kind: str, text: str) -> str:
    payload = f"repro-canon:{CANON_VERSION}:{kind}:{text}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def hash_cq(q: CQ) -> str:
    """Stable content hash of a CQ."""
    return _digest("cq", canonical_cq(q).text)


def hash_ucq(q: UCQ) -> str:
    """Stable content hash of a UCQ."""
    return _digest("ucq", canonical_ucq(q).text)


def hash_tgds(sigma: Iterable[TGD]) -> str:
    """Stable content hash of a tgd set."""
    return _digest("tgds", canonical_tgds(sigma).text)


def hash_omq(omq: OMQ) -> str:
    """Stable content hash of an OMQ."""
    return _digest("omq", canonical_omq(omq).text)


def hash_instance(instance) -> str:
    """Stable content hash of an instance (null-renaming invariant)."""
    return _digest("inst", canonical_instance(instance).text)
