"""Cost-based join-order planning for the homomorphism kernel.

A join order that only looks at syntax (fewest unbound variables first)
is cardinality-blind: a binary atom over a 100k-fact relation beats a
4-ary atom over a 10-fact relation, and the search then scans the big
relation unfiltered.  This module orders joins with a classic greedy
cost-based planner driven by the live per-(predicate, position)
statistics every view maintains (:meth:`pred_count` /
:meth:`distinct_count`):

* the **estimated candidate count** of an atom under a set of bound slots
  is ``count(pred)`` if no position is bound, else the minimum over bound
  positions ``p`` of ``count(pred) / distinct(pred, p)`` — the average
  positional-index bucket size, i.e. what the search's index-driven
  candidate selection will actually scan;
* the plan repeatedly picks the atom with the smallest estimate, then
  marks its slots bound and re-estimates the rest.

Enumeration-order contract
--------------------------
Planning changes the order in which homomorphisms are *enumerated* (the
answer set is order-independent), so the kernel's tie-break is pinned
here, once: atoms are ordered by ``(estimated candidates, number of
unbound slots, atom string key)``.  Every component is a deterministic
function of the body and the target's statistics, so enumeration order is
reproducible run-to-run and process-to-process; consumers that need a
*specific* order (the chase) sort the results themselves.

Plans are cached per ``(compiled body, bound-slot set, statistics
fingerprint)`` in a bounded LRU with hit/miss/evict counters
(``kernel.plan.*``).  The fingerprint buckets each statistic by bit
length, so a plan is only re-derived when a relevant cardinality changes
by ~2x — repeated batch jobs over a stable target hit the cache every
time, which is exactly what the CI perf-profile guard asserts.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import RLock
from typing import Dict, FrozenSet, Tuple

from ..engine.registry import register_cache
from .. import obs
from .metrics import KERNEL_METRICS


class PlanCache:
    """A bounded LRU of computed join orders with hit/miss/evict metrics."""

    def __init__(self, capacity: int = 8192) -> None:
        self.capacity = capacity
        self._plans: "OrderedDict[Tuple, Tuple[int, ...]]" = OrderedDict()
        self._lock = RLock()
        self._evictions = KERNEL_METRICS.counter("kernel.plan.evictions")

    def get(self, key: Tuple) -> Tuple[int, ...]:
        with self._lock:
            order = self._plans.get(key)
            if order is not None:
                self._plans.move_to_end(key)
        # Hit/miss counters are incremented by the caller via the search's
        # batched flush, so the registry lock stays off the per-call path.
        return order

    def put(self, key: Tuple, order: Tuple[int, ...]) -> None:
        with self._lock:
            self._plans[key] = order
            if len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self._evictions.inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()


#: The process-wide plan cache (registered with ``repro.clear_caches``).
PLANS = PlanCache()

register_cache("kernel.plan", PLANS.clear)


def _estimate(view, pid: int, codes: Tuple[int, ...], bound) -> float:
    """Estimated candidates the search will scan for this atom.

    *bound* holds the slot indexes already bound by earlier atoms in the
    plan; constant positions (negative codes) are always bound.
    """
    n = view.pred_count(pid)
    if n == 0:
        return 0.0
    best = float(n)
    for pos, code in enumerate(codes):
        if code >= 0 and code not in bound:
            continue
        d = view.distinct_count(pid, pos)
        if d:
            est = n / d
            if est < best:
                best = est
    return best


def cost_order(search, view, bound_slots: FrozenSet[int]) -> Tuple[int, ...]:
    """The cost-based greedy join order for *search* against *view*.

    Deterministic tie-break (the kernel's pinned enumeration contract):
    ``(estimated candidates, unbound slot count, atom string key)``.
    """
    codes = search.codes
    pred_ids = search.pred_ids
    strs = search._strs
    n_atoms = len(codes)
    bound = set(bound_slots)
    remaining = list(range(n_atoms))
    ordered = []
    while remaining:
        best = None
        best_key = None
        for i in remaining:
            unbound = len(
                {c for c in codes[i] if c >= 0 and c not in bound}
            )
            key = (_estimate(view, pred_ids[i], codes[i], bound), unbound, strs[i])
            if best_key is None or key < best_key:
                best, best_key = i, key
        remaining.remove(best)
        ordered.append(best)
        bound.update(c for c in codes[best] if c >= 0)
    return tuple(ordered)


def _fingerprint(search, view) -> Tuple:
    """Bit-length-bucketed statistics signature of *view* for this body.

    Two views whose relevant cardinalities agree to within a factor of ~2
    fingerprint identically, so plans survive instance growth between
    rounds while still re-deriving when the size regime shifts.
    """
    out = []
    for i, pid in enumerate(search.pred_ids):
        out.append(
            (
                view.pred_count(pid).bit_length(),
                tuple(
                    view.distinct_count(pid, pos).bit_length()
                    for pos in range(len(search.codes[i]))
                ),
            )
        )
    return tuple(out)


_TRIVIAL_ORDERS = ((), (0,))


def order_for(
    search, view, bound_slots: FrozenSet[int]
) -> Tuple[Tuple[int, ...], bool]:
    """The join order for one search call: ``(order, cache_hit)``.

    Bodies with at most one atom have exactly one order — no statistics,
    no fingerprint, no cache traffic (they count as hits: compile-free).
    This matters: single-atom rule bodies dominate linear-ontology chases,
    and per-call fingerprinting there is pure overhead.  Other plans depend
    on the view's statistics fingerprint and live in the process-wide
    :data:`PLANS` LRU.
    """
    n_atoms = len(search.codes)
    if n_atoms <= 1:
        return _TRIVIAL_ORDERS[n_atoms], True
    key = (search.plan_key, tuple(sorted(bound_slots)), _fingerprint(search, view))
    order = PLANS.get(key)
    if order is not None:
        return order, True
    with obs.span("kernel.plan.compile", atoms=len(search.codes)):
        order = cost_order(search, view, bound_slots)
    PLANS.put(key, order)
    return order, False


def plan_cache_stats() -> Dict[str, int]:
    """Live plan-cache size (counters live in ``KERNEL_METRICS``)."""
    return {"size": len(PLANS), "capacity": PLANS.capacity}
