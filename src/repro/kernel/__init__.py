"""repro.kernel — the indexed homomorphism kernel.

Every decision procedure in the reproduction (CQ evaluation, Chandra–
Merlin containment, chase applicability, the small-witness test, XRewrite
factorisation) reduces to homomorphism search.  This package is that
search, built once and shared:

* :mod:`repro.kernel.intern` — the process-wide symbol table mapping
  predicates and terms to dense integer ids (:data:`INTERN`);
* :mod:`repro.kernel.instance` — :class:`WorkingInstance` (mutable,
  append-only, incrementally indexed over int-tuple facts, with live
  per-(predicate, position) cardinality statistics) and the
  frozen-instance adapter;
* :mod:`repro.kernel.plan` — the cost-based join-order planner and its
  bounded plan cache;
* :mod:`repro.kernel.search` — the compiled, index-driven backtracking
  :class:`HomSearch` plus the memoizing :func:`compiled_search` factory;
* :mod:`repro.kernel.delta` — semi-naive (delta-driven) trigger discovery
  for the chase;
* :mod:`repro.kernel.metrics` — process-wide instrumentation counters.

``core/homomorphism.py`` remains the stable public API as a thin shim over
this package.
"""

from .delta import delta_triggers
from .instance import (
    WorkingInstance,
    instance_signature,
    trusted_instance,
    view_of,
)
from .intern import INTERN, InternTable
from .metrics import KERNEL_METRICS, flush_cardinality, kernel_snapshot
from .plan import PLANS, plan_cache_stats
from .search import (
    HomSearch,
    atom_str,
    compiled_search,
    find_homomorphism,
    has_homomorphism,
    homomorphisms,
    is_mappable,
)

__all__ = [
    "WorkingInstance",
    "instance_signature",
    "trusted_instance",
    "view_of",
    "INTERN",
    "InternTable",
    "HomSearch",
    "compiled_search",
    "homomorphisms",
    "find_homomorphism",
    "has_homomorphism",
    "atom_str",
    "is_mappable",
    "delta_triggers",
    "KERNEL_METRICS",
    "kernel_snapshot",
    "flush_cardinality",
    "PLANS",
    "plan_cache_stats",
]
