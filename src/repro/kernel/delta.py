"""Delta-driven (semi-naive) trigger discovery for the chase.

A chase round must find every homomorphism of a rule body into the current
instance that it has not seen before.  A naive chase re-enumerates all
of them each round and skips the already-fired ones; this module
enumerates exactly the *new* ones — the homomorphisms that touch at least
one atom added since the previous round — using the standard semi-naive
partition:

    for each pivot position j in the body:
        body[0..j-1] ↦ old atoms        (seq <  old_mark)
        body[j]      ↦ delta atoms      (old_mark <= seq < new_mark)
        body[j+1..]  ↦ anything visible (seq <  new_mark)

Every new homomorphism has a unique minimal body index mapped into the
delta, so the union over pivots is exact and duplicate-free.  The pivot
atom is matched first against the interned delta window (int-tuple facts
against the pivot's compiled codes — see :mod:`repro.kernel.search`), and
its bindings seed the remaining body's windowed search.

On the first round (``old_mark == 0``) there is no "old" part and the
discovery degenerates to a plain full enumeration bounded by the
watermark — which also covers empty-body (fact) tgds, whose single empty
homomorphism exists only then.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..core.atoms import Atom
from ..core.terms import Term
from .instance import WorkingInstance
from .intern import INTERN
from .metrics import KERNEL_METRICS
from .search import compiled_search


def delta_triggers(
    body: Tuple[Atom, ...],
    target: WorkingInstance,
    old_mark: int,
    new_mark: int,
    fixed: Optional[Dict[Term, Term]] = None,
) -> Iterator[Dict[Term, Term]]:
    """Yield each *new* homomorphism of *body* into ``target[:new_mark]``.

    New means: not a homomorphism into ``target[:old_mark]`` (equivalently,
    at least one body atom maps to an atom with ``old_mark <= seq <
    new_mark``).  Exact and duplicate-free; enumeration order is
    deterministic but unspecified — the chase sorts triggers anyway.
    """
    initial: Dict[Term, Term] = dict(fixed) if fixed else {}
    if old_mark <= 0:
        # Cold start: everything below the watermark is "new".
        yield from compiled_search(body).search(
            target, initial, limit=new_mark
        )
        return
    if old_mark >= new_mark:
        return
    discovered = 0
    term_of = INTERN.term
    for j, pivot in enumerate(body):
        rest = body[:j] + body[j + 1 :]
        rest_search = compiled_search(rest)
        # Windows aligned with `rest`: before-pivot atoms see only the old
        # instance, after-pivot atoms see everything up to the watermark.
        windows = tuple(
            (0, old_mark) if k < j else (0, new_mark)
            for k in range(len(rest))
        )
        # The pivot is matched directly over the interned delta window: the
        # single-atom compiled search supplies its codes, and the base
        # assignment carries any pivot slots *fixed* already binds.
        psearch = compiled_search((pivot,))
        psearch.ensure_compiled()
        codes = psearch.codes[0]
        arity = len(codes)
        slot_terms = psearch.slot_terms
        base = [-1] * len(slot_terms)
        for s, t in enumerate(slot_terms):
            v = initial.get(t)
            if v is not None:
                base[s] = INTERN.term_id(v)
        facts, start, end = target.pred_candidates(
            psearch.pred_ids[0], old_mark, new_mark
        )
        for ci in range(start, end):
            candidate = facts[ci]
            if len(candidate) != arity:
                continue
            assign = base[:]
            matched = True
            for pos in range(arity):
                code = codes[pos]
                tid = candidate[pos]
                if code >= 0:
                    current = assign[code]
                    if current < 0:
                        assign[code] = tid
                    elif current != tid:
                        matched = False
                        break
                elif code != -tid - 1:
                    matched = False
                    break
            if not matched:
                continue
            seeded = dict(initial)
            for s, t in enumerate(slot_terms):
                seeded[t] = term_of(assign[s])
            for h in rest_search.search(target, seeded, ranges=windows):
                discovered += 1
                yield h
    if discovered:
        KERNEL_METRICS.counter("kernel.chase.delta_triggers").inc(discovered)
