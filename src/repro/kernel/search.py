"""The interned, planned backtracking homomorphism search.

This is the paper's single semantic primitive (CQ evaluation, Chandra–
Merlin containment, chase applicability, the small-witness test) compiled
into one engine.  Compared with the pre-kernel search in
``core/homomorphism.py`` it adds, without changing the answer set:

* **interned compilation** — a :class:`HomSearch` is compiled once per
  body into integer codes against the process intern table
  (:mod:`repro.kernel.intern`): each source atom becomes a predicate id
  plus a tuple of argument codes, where ``code >= 0`` is a *slot* (a
  mappable variable/null, numbered by first occurrence across the body)
  and ``code < 0`` encodes a fixed constant (``-term_id - 1``).  The
  match loop then compares machine ints against the target's int-tuple
  facts, and the partial assignment is a flat slot array with an undo
  trail instead of per-candidate dict copies;
* **cost-based join orders** — the per-call atom order comes from the
  planner (:mod:`repro.kernel.plan`): estimated candidate counts from the
  target's live cardinality statistics, cached per (body, bound set,
  stats fingerprint).  Enumeration order follows the plan (see the
  contract pinned in :mod:`repro.kernel.plan`); within an atom,
  candidates are always visited in the target's deterministic index
  order;
* **positional candidate selection** — when a source atom has a bound
  position (a constant, or a slot the partial assignment already binds),
  candidates come from the target's (predicate, position, term) index
  instead of the whole predicate column; the most selective bound position
  wins at runtime;
* **windows** — per-source-atom ``(lo, hi)`` sequence ranges against a
  :class:`~repro.kernel.instance.WorkingInstance`, the primitive under
  semi-naive (delta) trigger discovery;
* **instrumentation** — candidates scanned / matches / backtracks and
  plan-cache hits/misses are accumulated locally and flushed to
  :data:`~repro.kernel.metrics.KERNEL_METRICS` once per search (also when
  a caller abandons the generator early).
"""

from __future__ import annotations

from contextlib import closing
from functools import lru_cache
from itertools import count as _counter
from time import perf_counter
from typing import (
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom
from ..core.terms import Null, Term, Variable
from ..engine.registry import register_cache
from .. import obs
from .instance import view_of
from .intern import INTERN
from .metrics import flush_search_counts
from . import plan as _plan

#: A per-source-atom sequence window; ``None`` means unconstrained.
Ranges = Optional[Sequence[Tuple[int, Optional[int]]]]

#: Monotonic source of plan-cache keys: every (re)compile gets a fresh
#: one, so plans for a stale compilation are simply never hit again.
_PLAN_KEYS = _counter()


def is_mappable(term: Term) -> bool:
    """Variables and nulls are mapped by a homomorphism; constants are fixed."""
    return isinstance(term, (Variable, Null))


@lru_cache(maxsize=65_536)
def atom_str(a: Atom) -> str:
    """``str(a)``, memoized — the deterministic tie-break key used by join
    ordering, the chase's trigger sort, and XRewrite's subset enumeration."""
    return str(a)


class HomSearch:
    """A compiled homomorphism search for a fixed tuple of source atoms."""

    __slots__ = (
        "source",
        "_strs",
        "_gen",
        "pred_ids",
        "codes",
        "slot_terms",
        "slot_of",
        "plan_key",
    )

    def __init__(self, source: Sequence[Atom]) -> None:
        self.source: Tuple[Atom, ...] = tuple(source)
        # Precomputed once: the string sort keys (the pre-kernel code
        # recomputed str(a) inside a min() key on every comparison).
        self._strs: Tuple[str, ...] = tuple(atom_str(a) for a in self.source)
        self._gen = -1
        self._compile()

    # -- compilation -------------------------------------------------------

    def _compile(self) -> None:
        """Intern the body against the current table generation."""
        slot_of: Dict[Term, int] = {}
        pred_ids = []
        codes = []
        for a in self.source:
            pred_ids.append(INTERN.pred_id(a.predicate))
            atom_codes = []
            for t in a.args:
                if is_mappable(t):
                    s = slot_of.get(t)
                    if s is None:
                        s = slot_of[t] = len(slot_of)
                    atom_codes.append(s)
                else:
                    atom_codes.append(-INTERN.term_id(t) - 1)
            codes.append(tuple(atom_codes))
        self.pred_ids: Tuple[int, ...] = tuple(pred_ids)
        self.codes: Tuple[Tuple[int, ...], ...] = tuple(codes)
        self.slot_of = slot_of
        self.slot_terms: Tuple[Term, ...] = tuple(slot_of)
        self.plan_key = next(_PLAN_KEYS)
        self._gen = INTERN.generation

    def ensure_compiled(self) -> None:
        """Recompile if the intern table was cleared since the last compile."""
        if self._gen != INTERN.generation:
            self._compile()

    # -- the search -------------------------------------------------------

    def search(
        self,
        target,
        fixed: Optional[Mapping[Term, Term]] = None,
        *,
        limit: Optional[int] = None,
        ranges: Ranges = None,
    ) -> Iterator[Dict[Term, Term]]:
        """Yield every homomorphism of ``source`` into *target*.

        *fixed* pre-binds source terms (bindings for terms not in the body
        pass through to every yielded assignment unchanged, matching the
        pre-interned behaviour).  *limit* restricts every candidate to
        sequence numbers below it (a :class:`WorkingInstance` watermark:
        "the instance as of mark m").  *ranges*, aligned with ``source``,
        gives each source atom its own ``(lo, hi)`` window — the delta
        chase's semi-naive pivots.  Windows other than the full index
        require a WorkingInstance target.
        """
        view = view_of(target)
        self.ensure_compiled()
        source_codes = self.codes
        pred_ids = self.pred_ids
        slot_terms = self.slot_terms
        n_slots = len(slot_terms)
        assign = [-1] * n_slots
        passthrough: Dict[Term, Term] = {}
        if fixed:
            slot_of = self.slot_of
            for k, v in fixed.items():
                s = slot_of.get(k)
                if s is None or not is_mappable(k):
                    passthrough[k] = v
                else:
                    assign[s] = INTERN.term_id(v)
        bound_key = frozenset(s for s in range(n_slots) if assign[s] >= 0)
        order, plan_hit = _plan.order_for(self, view, bound_key)
        n = len(order)
        term_of = INTERN.term
        # Per-search instrumentation, flushed once (see finally below).
        counts = [0, 0, 0]  # candidates, matches, backtracks

        def window_for(src_index: int):
            codes = source_codes[src_index]
            if ranges is not None:
                lo, hi = ranges[src_index]
            else:
                lo, hi = 0, None
            if limit is not None:
                hi = limit if hi is None else min(hi, limit)
            pid = pred_ids[src_index]
            # Most selective bound position, if any.
            best = None
            best_size = None
            for pos, code in enumerate(codes):
                if code >= 0:
                    tid = assign[code]
                    if tid < 0:
                        continue
                else:
                    tid = -code - 1
                w = view.pos_candidates(pid, pos, tid, lo, hi)
                if w is None:
                    return None  # value never occurs there: no candidates
                size = w[2] - w[1]
                if best_size is None or size < best_size:
                    best, best_size = w, size
                    if size == 0:
                        return best
            if best is not None:
                return best
            return view.pred_candidates(pid, lo, hi)

        def emit() -> Dict[Term, Term]:
            out = dict(passthrough)
            for s in range(n_slots):
                out[slot_terms[s]] = term_of(assign[s])
            return out

        def extend(k: int):
            if k == n:
                yield emit()
                return
            src_index = order[k]
            codes = source_codes[src_index]
            arity = len(codes)
            window = window_for(src_index)
            produced = False
            if window is not None:
                facts, start, end = window
                counts[0] += end - start
                for ci in range(start, end):
                    candidate = facts[ci]
                    if len(candidate) != arity:
                        continue
                    # Inlined interned match: bind slots or skip, undoing
                    # via the trail instead of copying the assignment.
                    trail = None
                    matched = True
                    for pos in range(arity):
                        code = codes[pos]
                        tid = candidate[pos]
                        if code >= 0:
                            current = assign[code]
                            if current < 0:
                                assign[code] = tid
                                if trail is None:
                                    trail = [code]
                                else:
                                    trail.append(code)
                            elif current != tid:
                                matched = False
                                break
                        elif code != -tid - 1:
                            matched = False
                            break
                    if matched:
                        counts[1] += 1
                        produced = True
                        yield from extend(k + 1)
                    if trail:
                        for s in trail:
                            assign[s] = -1
            if not produced:
                counts[2] += 1

        # Trace rollup is per-search and sampled by is_active(): with no
        # open span this costs one bool test, and the per-candidate inner
        # loop above is never touched either way.
        timed = obs.is_active()
        if timed:
            t0 = perf_counter()
        try:
            yield from extend(0)
        finally:
            if timed:
                obs.add("hom.seconds", perf_counter() - t0)
            flush_search_counts(
                1,
                counts[0],
                counts[1],
                counts[2],
                1 if plan_hit else 0,
                0 if plan_hit else 1,
            )

    def find(
        self,
        target,
        fixed: Optional[Mapping[Term, Term]] = None,
        *,
        limit: Optional[int] = None,
        ranges: Ranges = None,
    ) -> Optional[Dict[Term, Term]]:
        """The first homomorphism, or None."""
        # Closed here rather than when collected: the search flushes its
        # counters in its ``finally``, and an exception raised there (a
        # SIGALRM cap, say) must reach this caller, not be printed and lost.
        with closing(
            self.search(target, fixed, limit=limit, ranges=ranges)
        ) as matches:
            return next(matches, None)


@lru_cache(maxsize=4096)
def compiled_search(source: Tuple[Atom, ...]) -> HomSearch:
    """The memoized compiled search for a body tuple.

    Chase rules, CQ bodies, and tgd heads recur across thousands of
    searches; compiling once per distinct tuple makes the interned codes,
    the plan-cache key, and the precomputed sort keys shared state.
    """
    return HomSearch(source)


register_cache("kernel.compiled_search", compiled_search.cache_clear)
register_cache("kernel.atom_str", atom_str.cache_clear)


# ---------------------------------------------------------------------------
# Module-level conveniences (the shim in core/homomorphism.py calls these)
# ---------------------------------------------------------------------------


def homomorphisms(
    source: Sequence[Atom],
    target,
    fixed: Optional[Mapping[Term, Term]] = None,
    *,
    limit: Optional[int] = None,
) -> Iterator[Dict[Term, Term]]:
    """Yield every homomorphism from *source* into *target*."""
    return compiled_search(tuple(source)).search(target, fixed, limit=limit)


def find_homomorphism(
    source: Sequence[Atom],
    target,
    fixed: Optional[Mapping[Term, Term]] = None,
    *,
    limit: Optional[int] = None,
) -> Optional[Dict[Term, Term]]:
    """The first homomorphism from *source* into *target*, or None."""
    return compiled_search(tuple(source)).find(target, fixed, limit=limit)


def has_homomorphism(
    source: Sequence[Atom],
    target,
    fixed: Optional[Mapping[Term, Term]] = None,
    *,
    limit: Optional[int] = None,
) -> bool:
    """True iff some homomorphism from *source* into *target* exists."""
    return find_homomorphism(source, target, fixed, limit=limit) is not None
