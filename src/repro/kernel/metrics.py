"""Process-wide instrumentation for the homomorphism kernel.

The kernel is the hot path under every decision procedure, so its counters
live in one module-level :class:`~repro.engine.metrics.MetricsRegistry`
(the same registry type the batch engine uses) rather than being threaded
through every call site.  ``BatchEngine.stats()`` and ``repro batch
--json`` surface a snapshot of this registry, and ``repro.clear_caches()``
resets it (registered below), which is what keeps tests isolated.

Counter names:

* ``kernel.hom.searches``    — hom-search invocations;
* ``kernel.hom.candidates``  — target facts scanned as join candidates;
* ``kernel.hom.matches``     — candidates that extended the assignment;
* ``kernel.hom.backtracks``  — search-tree retreats (a candidate list was
  exhausted without completing the embedding);
* ``kernel.plan.hits`` / ``kernel.plan.misses`` / ``kernel.plan.evictions``
  — the cost-based join-plan cache (:mod:`repro.kernel.plan`);
* ``kernel.chase.rounds``    — delta-chase rounds;
* ``kernel.chase.delta_triggers`` — triggers discovered via the delta
  (semi-naive) path rather than full re-enumeration;
* ``kernel.cardinality.<predicate>`` — facts materialized per predicate by
  completed delta chases (flushed once per run, capped name space);
* ``kernel.witness_search.databases`` — candidate databases scanned by the
  guarded bounded-witness layer;
* ``kernel.xrewrite.seconds`` — wall time of XRewrite runs (a timer);
* ``kernel.xrewrite.candidates`` / ``kernel.xrewrite.duplicates`` —
  queries XRewrite's steps built, and those it discarded as isomorphic to
  an earlier query (before or after core minimization);
* ``kernel.core.hom_checks`` — hom checks run by ``CQ.core()``.

:func:`kernel_snapshot` additionally reports the live sizes of the
kernel's caches (``kernel.cache.*.size``, ``kernel.intern.*``) so
long-lived serve processes can watch them from ``/metrics``; zero sizes
are omitted, matching the registry's snapshot convention.

Searches batch their increments (one ``inc`` per counter per search), so
the registry's lock is not on the per-candidate path.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..engine.metrics import MetricsRegistry
from ..engine.registry import register_cache
from .. import obs

#: The kernel's shared registry.  Module-level on purpose: every consumer
#: (chase, evaluation, containment, rewriting) reports here.
KERNEL_METRICS = MetricsRegistry()

register_cache("kernel.metrics", KERNEL_METRICS.reset)

#: Bound on distinct ``kernel.cardinality.<predicate>`` counter names; the
#: overflow bucket keeps adversarial schemas from growing the registry
#: without bound.
_CARDINALITY_NAME_CAP = 256
_cardinality_names: set = set()


def kernel_snapshot() -> Dict[str, object]:
    """A plain-dict snapshot of every kernel counter/timer plus cache sizes.

    Cache sizes are read live (they are not registry metrics — a size is
    state, not an event stream) and omitted when zero so that a freshly
    cleared process still snapshots as ``{}``.
    """
    out: Dict[str, object] = dict(KERNEL_METRICS.snapshot())
    from .intern import INTERN
    from .plan import PLANS
    from .search import atom_str, compiled_search

    sizes = {
        "kernel.cache.atom_str.size": atom_str.cache_info().currsize,
        "kernel.cache.compiled_search.size": compiled_search.cache_info().currsize,
        "kernel.plan.cache.size": len(PLANS),
    }
    for name, value in INTERN.sizes().items():
        sizes[f"kernel.intern.{name}"] = value
    for name, value in sizes.items():
        if value:
            out[name] = value
    return out


def flush_search_counts(
    searches: int,
    candidates: int,
    matches: int,
    backtracks: int,
    plan_hits: int = 0,
    plan_misses: int = 0,
) -> None:
    """Batch-add one search's locally accumulated counts to the registry.

    When a decision trace is active, the same batch also rolls up onto the
    current span — one ``add_many`` per search, never per candidate, so the
    tracer stays off the kernel's inner loop.
    """
    if searches:
        KERNEL_METRICS.counter("kernel.hom.searches").inc(searches)
    if candidates:
        KERNEL_METRICS.counter("kernel.hom.candidates").inc(candidates)
    if matches:
        KERNEL_METRICS.counter("kernel.hom.matches").inc(matches)
    if backtracks:
        KERNEL_METRICS.counter("kernel.hom.backtracks").inc(backtracks)
    if plan_hits:
        KERNEL_METRICS.counter("kernel.plan.hits").inc(plan_hits)
    if plan_misses:
        KERNEL_METRICS.counter("kernel.plan.misses").inc(plan_misses)
    if obs.is_active():
        obs.add_many(
            (name, count)
            for name, count in (
                ("hom.searches", searches),
                ("hom.candidates", candidates),
                ("hom.matches", matches),
                ("hom.backtracks", backtracks),
                ("plan.hits", plan_hits),
                ("plan.misses", plan_misses),
            )
            if count
        )


def flush_cardinality(stats: Mapping[str, Mapping[str, object]]) -> None:
    """Fold a working instance's per-predicate fact counts into the registry.

    Called once per completed delta chase (cheap: one counter per
    predicate), so ``/metrics`` exposes the cardinality regime the planner
    saw — ``kernel.cardinality.<predicate>`` accumulates facts materialized
    per predicate across runs.  Names beyond the cap fold into
    ``kernel.cardinality.other``.
    """
    for predicate, stat in stats.items():
        if (
            predicate in _cardinality_names
            or len(_cardinality_names) < _CARDINALITY_NAME_CAP
        ):
            _cardinality_names.add(predicate)
            name = f"kernel.cardinality.{predicate}"
        else:
            name = "kernel.cardinality.other"
        KERNEL_METRICS.counter(name).inc(int(stat["count"]))
