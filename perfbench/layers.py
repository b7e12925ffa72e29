"""The per-layer metrics every traced run prints, with their units.

Each workload prints all of them; a layer that does no work on a
workload reads 0 there (the serve and tier layers on ``decide_cold``,
the pool on ``serve_replay``).  README.md maps each metric to the
end-to-end metric it should move and the workload it moves on.
"""

from __future__ import annotations

from typing import Dict

SPAN_METRICS = tuple(
    f"{name}.self_ms"
    for name in (
        "containment.decide",
        "containment.subsumption",
        "containment.propositional",
        "containment.classify",
        "containment.small_witness",
        "witness.scan",
        "containment.guarded",
        "guarded.refutation",
        "witness.search",
        "rewrite.xrewrite",
        "evaluate.omq",
        "chase.run",
        "chase.round",
    )
)

METHODS = (
    "cq-subsumption",
    "small-witness",
    "propositional-enumeration",
    "partial-rewriting-refutation",
    "bounded-witness-search",
    "guarded-layered",
    "witness-replay",
    "catalog-equivalence",
)

KERNEL_COUNTERS = (
    "kernel.small_witness.shortcuts",
    "kernel.witness_search.databases",
    "kernel.chase.rounds",
    "kernel.chase.delta_triggers",
    "kernel.hom.searches",
    "kernel.hom.candidates",
    "kernel.hom.backtracks",
)

TIER_COUNTERS = (
    "engine.witness.exact_hits",
    "engine.witness.structural.hits",
    "engine.witness.structural.attempts",
    "engine.witness.structural.refuted_replays",
    "engine.witness.misses",
    "engine.witness.stored",
    "engine.catalog.short_circuits",
    "engine.catalog.noted",
    "cache.memory_hits",
    "cache.disk_hits",
    "cache.misses",
    "engine.scheduler.dispatched",
)

UNITS: Dict[str, str] = {
    "serve.submit_ms": "ms",
    "serve.handoff_ms": "ms",
    "parser.parse_ms": "ms",
    "canon.hash_ms": "ms",
    "witness.replay_ms": "ms",
    "witness.replay_yield": "ratio",
    "catalog.lookup_ms": "ms",
    "cache.get_ms": "ms",
    "tiers.disk_bytes": "bytes",
    "engine.scheduler.queue_wait": "ms",
    "pool.tasks": "count",
    "pool.failures": "count",
    "pool.busy_s": "s",
    "containment.unknown": "count",
    "xrewrite.generated": "count",
    "xrewrite.final_disjuncts": "count",
    "kernel.plan.hit_ratio": "ratio",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}
UNITS.update({name: "ms" for name in SPAN_METRICS})
UNITS.update({f"containment.method.{m}": "count" for m in METHODS})
UNITS.update({name: "count" for name in KERNEL_COUNTERS + TIER_COUNTERS})


def zeroed() -> Dict[str, float]:
    """Every per-layer metric at 0, in a stable order."""
    return {name: 0.0 for name in UNITS}
