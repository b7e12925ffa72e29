"""The ``BatchEngine`` façade: cached, parallel, failure-isolated batches.

This is the layer the ROADMAP's production story needs between callers and
the per-call library API: a service-shaped object that (a) never computes
an answer it has already computed — lookups go through the canonical-hash
cache of :mod:`repro.engine.cache`, so α-equivalent inputs hit; (b) never
computes an answer it is *currently* computing — α-equivalent submissions
coalesce onto one in-flight job via :mod:`repro.engine.scheduler`;
(c) runs independent jobs across a :class:`repro.engine.pool.WorkerPool`,
where a hung or killed worker costs one UNKNOWN result, not the batch; and
(d) accounts for everything in a :class:`~repro.engine.metrics.MetricsRegistry`.

Two submission styles share all of that machinery:

* **async** — :meth:`submit` returns a
  :class:`~repro.engine.scheduler.JobHandle` immediately;
  :meth:`as_completed` streams outcomes as workers finish.
* **batch** — :meth:`run_batch` is now submit-all + drain over the same
  scheduler: results still come back in input order, but duplicated
  α-equivalent jobs inside the batch are detected up front and scheduled
  once (``engine.dedup.coalesced`` counts the absorbed copies).

``contains`` / ``rewrite`` / ``classify`` are one-job conveniences, and
:meth:`containment_matrix` builds the all-pairs verdict matrix that powers
minimization-at-scale (every off-diagonal ordered pair is an independent
job, so the matrix parallelizes and warm re-runs are nearly free).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.omq import OMQ
from ..core.tgd import TGD
from ..obs import TraceConfig
from .cache import ResultCache
from .catalog import OMQCatalog
from .jobs import (
    ClassificationOutcome,
    ClassifyJob,
    ContainmentJob,
    JobResult,
    RewriteJob,
)
from .metrics import MetricsRegistry
from .pool import WorkerPool
from .scheduler import DeadlinePolicy, JobHandle, Priority, Scheduler
from .witness_store import REPLAY_MODES, WitnessStore


class BatchEngine:
    """Batched containment/rewriting/classification with caching and a pool.

    Parameters
    ----------
    cache_dir:
        Directory for the persistent result cache; ``None`` keeps results
        in memory only.
    workers:
        Pool width.  ``1`` (the default) executes jobs in-process on the
        scheduler's serial thread — deterministic, no subprocesses.
    task_timeout:
        Per-task wall-clock limit in seconds, enforced when ``workers > 1``.
    cache:
        A pre-built :class:`~repro.engine.cache.ResultCache` to use
        as-is (``cache_dir``/``memory_cache_size`` are then ignored).
    catalog:
        Cross-session equivalence catalog: a path for a persistent
        :class:`~repro.engine.catalog.OMQCatalog`, a ready instance, or
        ``None`` (off).  Containment jobs then share cache rows within
        proven-equivalent OMQ groups and short-circuit when both sides
        are in one group.
    witness_store:
        Cross-session store of NOT_CONTAINED counterexamples: a path for
        a persistent :class:`~repro.engine.witness_store.WitnessStore`, a
        ready instance, or ``None`` (off).  Containment jobs then replay
        stored witnesses — the exact pair ahead of the catalog, the
        cross-pair scan (at most two cheap hom-checks per candidate)
        after the cache — instead of running the full decision
        procedure, and every NOT_CONTAINED verdict deposits its
        signature-keyed witness for future sessions.
    witness_replay:
        Replay-mode override for the store — ``"exact"`` (the exact pair
        and same-LHS/same-RHS candidates only), ``"structural"`` (adds
        signature-keyed candidates; the default for path-built stores),
        or ``"off"``.
        ``None`` leaves a ready store instance's own mode untouched.
    max_inflight / aging_interval:
        Scheduler tuning: dispatch-window width (default: worker count)
        and seconds-per-class priority aging (see
        :class:`~repro.engine.scheduler.Scheduler`).
    deadline_policy:
        Admission/expiry policy for deadline-carrying submissions
        (:class:`~repro.engine.scheduler.DeadlinePolicy`); the serving
        tier tunes ``floor_s`` per deployment.
    trace:
        Decision tracing for every job the engine runs: ``None``/"off"
        disables, a mode string ("always", "per-job") or a full
        :class:`repro.obs.TraceConfig` enables.  The config ships to pool
        workers with each task, completed span trees ride back with the
        results (``JobResult.trace``), and :meth:`traces` /
        ``stats()["traces"]`` collect them engine-wide.
    max_traces:
        Bound on the engine-wide trace sink (oldest trees dropped past
        it).  ``None`` (the default) keeps every tree — right for batch
        runs that export a trace file on exit; long-lived servers that
        trace continuously must set a bound.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        task_timeout: Optional[float] = None,
        memory_cache_size: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
        start_method: Optional[str] = None,
        trace: Union[None, str, TraceConfig] = None,
        cache: Optional[ResultCache] = None,
        catalog: Union[None, str, OMQCatalog] = None,
        witness_store: Union[None, str, WitnessStore] = None,
        witness_replay: Optional[str] = None,
        max_inflight: Optional[int] = None,
        aging_interval: Optional[float] = 5.0,
        deadline_policy: Optional[DeadlinePolicy] = None,
        max_traces: Optional[int] = None,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.cache = cache if cache is not None else ResultCache(
            cache_dir, memory_cache_size, metrics=self.metrics
        )
        if isinstance(catalog, (str, bytes)) or hasattr(catalog, "__fspath__"):
            catalog = OMQCatalog(str(catalog))
        self.catalog: Optional[OMQCatalog] = catalog
        if witness_replay is not None and witness_replay not in REPLAY_MODES:
            raise ValueError(
                f"unknown witness_replay {witness_replay!r}; "
                f"choose from {REPLAY_MODES}"
            )
        if isinstance(witness_store, (str, bytes)) or hasattr(
            witness_store, "__fspath__"
        ):
            witness_store = WitnessStore(
                str(witness_store),
                replay_mode=witness_replay or "structural",
                metrics=self.metrics,
            )
        elif witness_store is not None:
            if witness_store.metrics is None:
                # Adopt the engine's registry so engine.witness.* counters
                # surface in stats() and the serve tier's /metrics.
                witness_store.metrics = self.metrics
            if witness_replay is not None:
                witness_store.replay_mode = witness_replay
        self.witness_store: Optional[WitnessStore] = witness_store
        self.pool = WorkerPool(
            workers=workers,
            task_timeout=task_timeout,
            start_method=start_method,
        )
        if isinstance(trace, str):
            trace = None if trace == "off" else TraceConfig(mode=trace)
        self.trace_config: Optional[TraceConfig] = trace
        # deque(maxlen) drops the *oldest* tree on overflow — the bound a
        # continuously-tracing server wants; appends stay O(1) either way.
        self._traces: Any = (
            deque(maxlen=max_traces) if max_traces else []
        )
        self.scheduler = Scheduler(
            self.pool,
            self.cache,
            self.metrics,
            trace_config=self.trace_config,
            trace_sink=self._traces,
            catalog=self.catalog,
            witness_store=self.witness_store,
            max_inflight=max_inflight,
            aging_interval=aging_interval,
            deadline_policy=deadline_policy,
        )

    # -- async submission --------------------------------------------------

    def submit(
        self,
        job: Any,
        *,
        priority: Union[Priority, int, str] = Priority.NORMAL,
        submitter: str = "default",
        deadline: Optional[float] = None,
    ) -> JobHandle:
        """Enqueue *job* without blocking; resolves from the witness
        store, the catalog, the cache, an α-equivalent in-flight
        computation, or a worker.
        *priority* and *submitter* feed the scheduler's class-based,
        weighted-fair-share dispatch order; *deadline* (seconds) arms
        the scheduler's degradation policy."""
        return self.scheduler.submit(
            job, priority=priority, submitter=submitter, deadline=deadline
        )

    def submit_batch(
        self,
        jobs: Sequence[Any],
        *,
        priority: Union[Priority, int, str] = Priority.NORMAL,
        submitter: str = "default",
    ) -> List[JobHandle]:
        """Submit all *jobs*; handles are aligned with the input order.

        α-equivalent duplicates within the batch are coalesced
        deterministically: only the first copy of each canonical key is
        scheduled, and the other copies' handles ride on it.  With a
        catalog attached, keys are group-representative keys, so
        proven-equivalent (not just α-equivalent) copies coalesce too.
        """
        first_by_key: dict = {}
        handles: List[JobHandle] = []
        for job in jobs:
            key = self.scheduler.effective_key(job)
            primary = first_by_key.get(key) if key is not None else None
            if primary is not None:
                handles.append(self.scheduler.attach(primary, job))
                continue
            handle = self.scheduler.submit(
                job, priority=priority, submitter=submitter
            )
            if key is not None:
                first_by_key[key] = handle
            handles.append(handle)
        return handles

    def as_completed(
        self,
        handles: Iterable[JobHandle],
        timeout: Optional[float] = None,
    ) -> Iterator[JobHandle]:
        """Yield handles as their results arrive (completion order)."""
        return self.scheduler.as_completed(handles, timeout)

    # -- the batch primitive ---------------------------------------------

    def run_batch(
        self,
        jobs: Sequence[Any],
        *,
        priority: Union[Priority, int, str] = Priority.NORMAL,
        submitter: str = "default",
    ) -> List[JobResult]:
        """Run *jobs*, consulting the cache first; results in input order."""
        with self.metrics.timer("engine.batch").time():
            handles = self.submit_batch(
                list(jobs), priority=priority, submitter=submitter
            )
            return [h.result() for h in handles]

    # -- one-job conveniences --------------------------------------------

    def contains(self, q1: OMQ, q2: OMQ, **params) -> JobResult:
        """Cached/pooled ``contains(q1, q2)``; value is a ContainmentResult."""
        return self.run_batch([ContainmentJob(q1, q2, **params)])[0]

    def rewrite(self, omq: OMQ, budget: int = 20_000) -> JobResult:
        """Cached/pooled XRewrite; value is a RewritingResult."""
        return self.run_batch([RewriteJob(omq, budget)])[0]

    def classify(self, sigma: Sequence[TGD]) -> JobResult:
        """Cached/pooled fragment classification of a tgd set."""
        return self.run_batch([ClassifyJob(tuple(sigma))])[0]

    # -- the all-pairs helper --------------------------------------------

    def containment_matrix(
        self, omqs: Sequence[OMQ], **params
    ) -> List[List[JobResult]]:
        """The ``n × n`` matrix of ``omqs[i] ⊆ omqs[j]`` results.

        Off-diagonal entries are independent jobs (parallel, cached,
        deduplicated); diagonal entries are trivially CONTAINED and never
        scheduled.  This is the scale-out substrate for ``optimize.py``-
        style minimization over query catalogs.
        """
        from ..containment.result import contained

        n = len(omqs)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        batch = self.run_batch(
            [ContainmentJob(omqs[i], omqs[j], **params) for i, j in pairs]
        )
        matrix: List[List[Optional[JobResult]]] = [
            [None] * n for _ in range(n)
        ]
        for i in range(n):
            matrix[i][i] = JobResult(
                None, contained("reflexivity", "Q ⊆ Q trivially"), cached=True
            )
        for (i, j), result in zip(pairs, batch):
            matrix[i][j] = result
        return matrix  # type: ignore[return-value]

    # -- accounting -------------------------------------------------------

    def traces(self) -> List[dict]:
        """Serialized decision-span trees collected so far (tracing on)."""
        return list(self._traces)

    def stats(self) -> dict:
        """Cache statistics plus one unified, namespaced metric snapshot.

        ``metrics`` merges the engine registry (``engine.*``), the kernel
        registry (``kernel.*``), and the tracer's registry (``obs.*``) —
        the namespaces are disjoint by convention, so the merge is exactly
        their union.  ``kernel`` is kept as a separate key for callers of
        the pre-unification shape.  Kernel/obs numbers reflect this
        process's registries — fully populated with ``workers=1`` (jobs
        execute in-process on the scheduler's serial thread); with a
        process pool the workers' counters stay in the workers, but span
        trees still ride back (``traces``).
        """
        from ..kernel import kernel_snapshot
        from ..obs import obs_snapshot

        kernel = kernel_snapshot()
        out = {
            "cache": self.cache.stats(),
            "metrics": {
                **self.metrics.snapshot(),
                **kernel,
                **obs_snapshot(),
            },
            "kernel": kernel,
        }
        if self.catalog is not None:
            out["catalog"] = self.catalog.stats()
        if self.witness_store is not None:
            out["witness_store"] = self.witness_store.stats()
        if self.trace_config is not None:
            out["traces"] = self.traces()
        return out

    def close(self) -> None:
        self.pool.close()
        self.cache.close()
        if self.catalog is not None:
            self.catalog.close()
        if self.witness_store is not None:
            self.witness_store.close()

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
