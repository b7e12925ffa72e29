"""Parity pins for the canonical labeler (``repro.engine.canon``).

Every durable tier keys its rows by canonical hashes, so a change to how
canonical text is computed must leave every text byte-identical — or
bump ``CANON_VERSION`` and orphan every stored row.  Two checks hold the
labeler to that:

* on a fixed corpus, ``hash_omq``, ``hash_tgds``, ``hash_cq`` and
  ``hash_instance`` (and each form's ``exact`` flag) must equal the
  digests recorded with the string-rendering labeler that predates the
  compiled one (:data:`RECORDED`);
* on hypothesis-drawn CQs, tgds and instances, the canonical forms must
  equal those of that labeler, kept below as :func:`reference_atoms`
  (with its colour refinement, :func:`reference_refine_colours`).

The corpus is every :mod:`repro.generators` family at small sizes, 40
``random_omq_pair`` draws per fragment and mode (each seeded with
``zlib.crc32`` of its name), chase outputs with labeled nulls, one
symmetric body that only the exhaustive tie-break labels, and one body
past ``LABELING_BUDGET``, which takes the inexact fallback.  Each
group's digest is a sha256 over one line per hashed object holding its
hash and ``exact`` flag; none of it depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import zlib
from math import factorial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import generators as gen  # noqa: E402
from repro.chase import chase  # noqa: E402
from repro.core.atoms import Atom  # noqa: E402
from repro.core.instance import Instance  # noqa: E402
from repro.core.queries import CQ  # noqa: E402
from repro.core.terms import Constant, Null, Term, Variable  # noqa: E402
from repro.core.tgd import TGD  # noqa: E402
from repro.engine import canon  # noqa: E402
from repro.kernel.intern import INTERN  # noqa: E402


# -- reference: the string-rendering labeler ---------------------------------


def _render_term(
    t: Term,
    pins: Mapping[Variable, int],
    assignment: Mapping[Variable, int],
) -> str:
    if isinstance(t, Constant):
        return f"c:{t.name}"
    if isinstance(t, Null):
        return f"n:{t.ident}"
    if t in pins:
        return f"h:{pins[t]}"
    return f"x:{assignment[t]}"


def _render_atoms(
    tagged_atoms: Sequence[Tuple[str, Atom]],
    pins: Mapping[Variable, int],
    assignment: Mapping[Variable, int],
) -> Tuple[str, ...]:
    return tuple(
        sorted(
            f"{tag}|{a.predicate}({','.join(_render_term(t, pins, assignment) for t in a.args)})"
            for tag, a in tagged_atoms
        )
    )


def reference_refine_colours(
    tagged_atoms: Sequence[Tuple[str, Atom]],
    pins: Mapping[Variable, int],
    free: Sequence[Variable],
) -> Dict[Variable, int]:
    """Iterated colour refinement over order-preserving integer ranks."""
    if not free:
        return {}
    n = len(free)
    var_ix = {INTERN.term_id(v): i for i, v in enumerate(free)}
    tag_rank = {
        t: r for r, t in enumerate(sorted({tag for tag, _ in tagged_atoms}))
    }
    pred_rank = {
        p: r
        for r, p in enumerate(sorted({a.predicate for _, a in tagged_atoms}))
    }
    fixed_strs: Dict[int, str] = {}
    compiled: List[Tuple[int, int, int, List[int]]] = []
    for tag, a in tagged_atoms:
        codes: List[int] = []
        for t in a.args:
            tid = INTERN.term_id(t)
            i = var_ix.get(tid)
            if i is not None:
                codes.append(-i - 1)
            else:
                if tid not in fixed_strs:
                    if isinstance(t, Constant):
                        fixed_strs[tid] = f"c:{t.name}"
                    elif isinstance(t, Null):
                        fixed_strs[tid] = f"n:{t.ident}"
                    else:
                        fixed_strs[tid] = f"h:{pins[t]}"
                codes.append(tid)
        compiled.append((tag_rank[tag], pred_rank[a.predicate], a.arity, codes))
    fixed_rank = {
        s: r for r, s in enumerate(sorted(set(fixed_strs.values())))
    }
    for entry in compiled:
        codes = entry[3]
        for pos, code in enumerate(codes):
            if code >= 0:
                codes[pos] = fixed_rank[fixed_strs[code]]
    base = len(fixed_rank)
    strrank = [0] * n
    for r, colour in enumerate(sorted(range(n), key=str)):
        strrank[colour] = r
    occurrences: List[List[Tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for trk, prk, arity, codes in compiled:
        for pos, code in enumerate(codes):
            if code < 0:
                occurrences[-code - 1].append((trk, prk, arity, pos))
    keys = [tuple(sorted(occ)) for occ in occurrences]
    init_rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    colours = [init_rank[k] for k in keys]
    for _ in range(n):
        views: List[List[Tuple]] = [[] for _ in range(n)]
        for trk, prk, _arity, codes in compiled:
            slots = tuple(
                code if code >= 0 else base + strrank[colours[-code - 1]]
                for code in codes
            )
            for pos, code in enumerate(codes):
                if code < 0:
                    views[-code - 1].append((trk, prk, pos, slots))
        new_keys = [
            (colours[i], tuple(sorted(views[i]))) for i in range(n)
        ]
        ranks = {k: r for r, k in enumerate(sorted(set(new_keys)))}
        new_colours = [ranks[k] for k in new_keys]
        if len(ranks) == len(set(colours)):
            colours = new_colours
            break
        colours = new_colours
    return {free[i]: colours[i] for i in range(n)}


def reference_atoms(
    tagged_atoms: Sequence[Tuple[str, Atom]],
    pinned: Sequence[Variable] = (),
) -> Tuple[Tuple[str, ...], Dict[Variable, int], bool]:
    """The least rendering over admissible labelings, rendered as strings
    for every candidate: ``(sorted atoms, assignment, exact)``."""
    pins: Dict[Variable, int] = {}
    for v in pinned:
        if v not in pins:
            pins[v] = len(pins)
    seen: Dict[Variable, None] = {}
    for _, a in tagged_atoms:
        for t in a.args:
            if isinstance(t, Variable) and t not in pins:
                seen.setdefault(t, None)
    free = list(seen)
    if not free:
        return _render_atoms(tagged_atoms, pins, {}), {}, True
    colours = reference_refine_colours(tagged_atoms, pins, free)
    classes: List[List[Variable]] = []
    for rank in sorted(set(colours.values())):
        classes.append([v for v in free if colours[v] == rank])
    search_space = 1
    for cls in classes:
        search_space *= factorial(len(cls))
        if search_space > canon.LABELING_BUDGET:
            break
    if search_space > canon.LABELING_BUDGET:
        assignment: Dict[Variable, int] = {}
        for cls in classes:
            for v in sorted(cls, key=lambda v: v.name):
                assignment[v] = len(assignment)
        return _render_atoms(tagged_atoms, pins, assignment), assignment, False
    best: Optional[Tuple[Tuple[str, ...], Dict[Variable, int]]] = None
    for perms in itertools.product(
        *(itertools.permutations(cls) for cls in classes)
    ):
        assignment = {}
        for perm in perms:
            for v in perm:
                assignment[v] = len(assignment)
        rendered = _render_atoms(tagged_atoms, pins, assignment)
        if best is None or rendered < best[0]:
            best = (rendered, assignment)
    assert best is not None
    return best[0], best[1], True


def reference_cq(q: CQ) -> canon.CanonicalForm:
    pinned = [t for t in q.head if isinstance(t, Variable)]
    rendered, assignment, exact = reference_atoms(
        [("B", a) for a in q.body], pinned
    )
    pins: Dict[Variable, int] = {}
    for v in pinned:
        if v not in pins:
            pins[v] = len(pins)
    head = ",".join(_render_term(t, pins, assignment) for t in q.head)
    return canon.CanonicalForm(f"({head})<-[{';'.join(rendered)}]", exact)


def reference_tgd(t: TGD) -> canon.CanonicalForm:
    tagged = [("B", a) for a in t.body] + [("H", a) for a in t.head]
    rendered, _, exact = reference_atoms(tagged)
    return canon.CanonicalForm(";".join(rendered), exact)


def reference_instance(instance: Instance) -> canon.CanonicalForm:
    blanks = {
        n: Variable(f"!n{n.ident}")
        for n in sorted(instance.nulls(), key=lambda n: str(n.ident))
    }
    tagged = [("I", a.substitute(blanks)) for a in instance.atoms]
    rendered, _, exact = reference_atoms(tagged)
    return canon.CanonicalForm(";".join(rendered), exact)


# -- the labeler equals the reference ------------------------------------------

VARIABLES = tuple(Variable(n) for n in ("x", "y", "z", "w", "u", "v", "t"))
FIXED = (
    Constant("a"),
    Constant("b"),
    Constant("0"),
    Constant("x:1"),  # spelled like a rendered slot
    Null(0),
    Null(1),
    Null(12),
)
PREDICATES = (("P", 1), ("E", 2), ("R", 2), ("T", 3), ("G", 0))
VAR_SETTINGS = settings(max_examples=300, deadline=None)


@st.composite
def bodies(draw, min_atoms=1, max_atoms=7):
    """Atom lists over a small vocabulary: mostly variables (so symmetric
    bodies and tie-breaks are common), some constants and nulls."""
    terms = st.one_of(
        st.sampled_from(VARIABLES[: draw(st.integers(1, len(VARIABLES)))]),
        st.sampled_from(FIXED),
    )
    atoms = []
    for _ in range(draw(st.integers(min_atoms, max_atoms))):
        predicate, arity = draw(st.sampled_from(PREDICATES))
        atoms.append(Atom(predicate, tuple(draw(terms) for _ in range(arity))))
    return atoms


@st.composite
def cqs(draw):
    body = draw(bodies())
    body_vars = sorted(
        {t for a in body for t in a.args if isinstance(t, Variable)}, key=str
    )
    head_terms = st.sampled_from(tuple(body_vars) + FIXED[:2])
    head = tuple(draw(head_terms) for _ in range(draw(st.integers(0, 3))))
    return CQ(head, tuple(body), "q")


@st.composite
def tgds(draw):
    body = draw(bodies(max_atoms=4))
    head = draw(bodies(max_atoms=3))
    return TGD(tuple(body), tuple(head), "r")


@st.composite
def wide_bodies(draw):
    """Bodies of many interchangeable atoms: large colour classes, some
    past ``LABELING_BUDGET``."""
    n = draw(st.integers(3, 10))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    atoms = [Atom("P", (Variable(name),)) for name in names]
    if draw(st.booleans()):
        atoms.append(Atom("E", (Variable(names[0]), Variable(names[1]))))
    return CQ((), tuple(atoms), "q")


@VAR_SETTINGS
@given(cqs())
def test_cq_forms_equal_reference(q):
    assert canon.canonical_cq(q) == reference_cq(q)


@VAR_SETTINGS
@given(tgds())
def test_tgd_forms_equal_reference(t):
    assert canon.canonical_tgd(t) == reference_tgd(t)


@settings(max_examples=40, deadline=None)
@given(wide_bodies())
def test_wide_bodies_equal_reference(q):
    assert canon.canonical_cq(q) == reference_cq(q)


@VAR_SETTINGS
@given(bodies(max_atoms=8))
def test_instance_forms_equal_reference(atoms):
    nulls = {v: Null(ord(v.name)) for v in VARIABLES}
    ground = [a.substitute(nulls) for a in atoms]
    instance = Instance.of(ground)
    assert canon.canonical_instance(instance) == reference_instance(instance)


# -- the corpus ----------------------------------------------------------------

FAMILIES = {
    "linear_chain": (gen.linear_chain, (1, 2, 3, 4)),
    "linear_witness_family": (gen.linear_witness_family, (1, 2, 3, 4)),
    "non_recursive_doubling": (gen.non_recursive_doubling, (1, 2, 3)),
    "sticky_arity_family": (gen.sticky_arity_family, (2, 3, 4)),
    "sticky_recursive_family": (gen.sticky_recursive_family, (1, 2)),
    "guarded_reachability": (gen.guarded_reachability, (1, 2)),
    "guarded_acyclic": (gen.guarded_acyclic, (1, 2, 3)),
}
DRAWS = 40
PAIR_MODES = ("independent", "specialized", "alpha", "perturbed_pair")
CHASE_DRAWS = 48


def _seeded(name: str) -> random.Random:
    return random.Random(zlib.crc32(name.encode()))


def _omq_lines(case: str, omq) -> List[str]:
    omq_form = canon.canonical_omq(omq)
    sigma_form = canon.canonical_tgds(omq.sigma)
    lines = [
        f"{case}|omq|{canon.hash_omq(omq)}|{omq_form.exact}",
        f"{case}|tgds|{canon.hash_tgds(omq.sigma)}|{sigma_form.exact}",
    ]
    for i, query in enumerate(omq.as_ucq().disjuncts):
        form = canon.canonical_cq(query)
        lines.append(f"{case}|cq{i}|{canon.hash_cq(query)}|{form.exact}")
    return lines


def _instance_line(case: str, instance: Instance) -> str:
    form = canon.canonical_instance(instance)
    return f"{case}|inst|{canon.hash_instance(instance)}|{form.exact}"


def chased(fragment: str, k: int) -> Instance:
    """Draw *k* of *fragment*'s chase group: a random OMQ's ontology
    chased (to null depth 2) over a random database of its schema."""
    rng = _seeded(f"{fragment}/chase/{k}")
    omq = gen.random_omq(fragment, rng)
    db = gen.random_database(
        omq.data_schema, 4, rng.randint(2, 6), seed=rng.randrange(2**16)
    )
    return chase(
        db, omq.sigma, max_depth=2, max_steps=400, partial=True
    ).instance


#: A 3-cycle: colour refinement leaves one class of three variables, so
#: only the exhaustive tie-break (3! labelings) makes the form canonical.
SYMMETRIC = CQ(
    (),
    (
        Atom("E", (Variable("x"), Variable("y"))),
        Atom("E", (Variable("y"), Variable("z"))),
        Atom("E", (Variable("z"), Variable("x"))),
    ),
    "q",
)
#: Nine interchangeable unary atoms: 9! labelings exceed the budget.
OVER_BUDGET = CQ(
    (), tuple(Atom("P", (Variable(f"v{i}"),)) for i in range(9)), "q"
)


def corpus_lines(group: str) -> List[str]:
    """The hashed lines of one corpus group, in a fixed order."""
    if group in FAMILIES:
        build, sizes = FAMILIES[group]
        return [
            line for n in sizes for line in _omq_lines(f"{group}({n})", build(n))
        ]
    if group == "special":
        return [
            f"symmetric|cq|{canon.hash_cq(SYMMETRIC)}|{canon.canonical_cq(SYMMETRIC).exact}",
            f"over_budget|cq|{canon.hash_cq(OVER_BUDGET)}|{canon.canonical_cq(OVER_BUDGET).exact}",
        ]
    fragment, mode = group.split("/")
    if mode == "chase":
        return [
            _instance_line(str(k), chased(fragment, k))
            for k in range(CHASE_DRAWS)
        ]
    lines = []
    for k in range(DRAWS):
        q1, q2, _ = gen.random_omq_pair(fragment, _seeded(group + f"/{k}"), mode)
        lines.extend(_omq_lines(f"{k}/1", q1))
        lines.extend(_omq_lines(f"{k}/2", q2))
    return lines


def group_digest(group: str) -> str:
    digest = hashlib.sha256()
    for line in corpus_lines(group):
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()[:16]


#: Group digests of the corpus, recorded with the string-rendering labeler.
RECORDED: Dict[str, str] = {
    "linear_chain": "029d43a2ff8cfa06",
    "linear_witness_family": "605ab881aec19ed5",
    "non_recursive_doubling": "317c80c0ab0478e2",
    "sticky_arity_family": "634c60b1ccf31901",
    "sticky_recursive_family": "5c23eea21e8816dc",
    "guarded_reachability": "049ea6b69007bd0b",
    "guarded_acyclic": "6c055cadcb8880c3",
    "special": "786dc6395a479cd2",
    "linear/independent": "dbd72357ef83d2e5",
    "linear/specialized": "e16322776a8a4102",
    "linear/alpha": "0858558e1b0bbd42",
    "linear/perturbed_pair": "4c5b76d97583aa06",
    "linear/chase": "b95599ab31e6721a",
    "non_recursive/independent": "6645940aad001748",
    "non_recursive/specialized": "4826e612a6d229d3",
    "non_recursive/alpha": "ad734b8e4f1cfffc",
    "non_recursive/perturbed_pair": "a58dd207afded63c",
    "non_recursive/chase": "bd111103e3faef06",
    "sticky/independent": "ea99fb57adf197f8",
    "sticky/specialized": "c7121edd237513fd",
    "sticky/alpha": "80e9a21caef03f62",
    "sticky/perturbed_pair": "79a36ffa28991d22",
    "sticky/chase": "03e2b27a1036c15a",
    "guarded/independent": "601f590ebc427d20",
    "guarded/specialized": "08811879bf3bbcc0",
    "guarded/alpha": "a1b643eda49c996d",
    "guarded/perturbed_pair": "da90e03730063cb4",
    "guarded/chase": "cca9b4bfca1e9648",
    "propositional/independent": "95704be0f43a7658",
    "propositional/specialized": "b4390e41d1588391",
    "propositional/alpha": "86f9dbeb31f391de",
    "propositional/perturbed_pair": "f5115b20c790a775",
    "propositional/chase": "80e9b82d02d99db9",
}


def test_corpus_covers_every_fragment_and_mode():
    assert set(gen.PAIR_MODES) == set(PAIR_MODES)
    expected = (
        set(FAMILIES)
        | {"special"}
        | {f"{f}/{m}" for f in gen.FRAGMENTS for m in PAIR_MODES + ("chase",)}
    )
    assert set(RECORDED) == expected


def test_corpus_has_nulls_tie_breaks_and_the_fallback():
    with_nulls = sum(
        bool(chased(f, k).nulls())
        for f in gen.FRAGMENTS
        for k in range(CHASE_DRAWS)
    )
    assert with_nulls >= 60
    assert canon.canonical_cq(SYMMETRIC).exact
    assert not canon.canonical_cq(OVER_BUDGET).exact


@pytest.mark.parametrize("group", list(RECORDED))
def test_hashes_equal_recorded(group):
    assert group_digest(group) == RECORDED[group]
