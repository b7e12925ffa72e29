"""Async job scheduling: canonical dedup, priorities, fair share, catalog.

The batch engine's ``run_batch`` answers "run these N jobs and wait";
this module is the service-shaped layer underneath it and beside it:
:meth:`Scheduler.submit` enqueues one job *without blocking* and returns
a :class:`JobHandle` that resolves when the job's result exists — from
the witness store, the catalog or the cache, from a worker, or from
somebody else's identical in-flight computation.

**The lookup ladder.**  Every hash-keyed tier answers before any
evaluation runs: the exact witness pair (one dict probe), then catalog
equivalence, then the result cache.  Only when all three miss does the
witness store's cross-pair scan hom-check stored witnesses against the
job — so a cached answer never pays for checks whose result it cannot
use — and only then does the job coalesce, queue and dispatch.

**Dedup** is the original point.  Real OMQ catalogs are full of
α-equivalent queries (renamed variables, reordered atoms/rules — the
symmetries the semantics ignores), and a containment check is
2EXPTIME-worst-case, so computing the same answer twice because two
callers spelled the same OMQ differently is the most expensive no-op in
the system.  Before dispatch, every cacheable job is keyed by its
canonical cache key (:mod:`repro.engine.canon` hashes plus procedure
parameters); a submission whose key matches an in-flight computation
*coalesces* onto it — no new pool task — and every attached handle
resolves from the single outcome.

**Priorities and fairness** make the scheduler safe to share.  Flights
wait in a ready queue and at most one pool slot's worth of work per
worker is dispatched at a time (the *dispatch window*), so ordering is
decided here rather than in the pool's FIFO.  Selection ranks flights by

1. *effective priority* — the submitted :class:`Priority` class, aged
   toward ``HIGH`` by one class per *aging_interval* seconds in queue,
   so a saturating high-priority stream cannot starve the backlog;
2. *submitter pass* — stride scheduling over the per-submitter virtual
   "pass" clock: each dispatch charges the winning submitter
   ``1/weight``, so submitters with equal weights alternate and a
   weight-2 submitter gets twice the slots of a weight-1 one
   (:meth:`Scheduler.set_weight`);
3. submission sequence — FIFO among equals, which keeps the default
   single-submitter, single-priority behaviour exactly the old FIFO.

Coalescing interacts with priority: attaching a higher-priority
submission to a queued flight *promotes* the flight (a flight runs at
the most urgent class anyone riding it asked for).  Cancelling the last
handle of a queued flight retires it without ever touching the pool;
cancelling a dispatched flight propagates to the pool ticket as before.

**Catalog** (optional): with an :class:`~repro.engine.catalog.OMQCatalog`
attached, containment jobs are keyed by equivalence-group
representatives (``ContainmentJob.catalog_key``) so proven-equivalent
spellings share cache rows, jobs whose two sides are in one group
short-circuit to CONTAINED without dispatching, and every CONTAINED
verdict the engine produces (fresh or cached) is fed back as a catalog
edge.

Accounting (all visible in ``BatchEngine.stats()`` / ``repro batch
--json``):

* ``engine.scheduler.submitted`` / ``.dispatched`` / ``.completed`` /
  ``.cancelled`` — handle lifecycle counters;
* ``engine.scheduler.inflight`` — gauge of currently scheduled flights
  (with its high-water mark);
* ``engine.scheduler.priority.queued`` — gauge of flights waiting in the
  ready queue; ``engine.scheduler.priority.dispatched.{high,normal,low}``
  — dispatches per effective class; ``engine.scheduler.priority.aged`` —
  dispatches that ran above their submitted class thanks to aging;
  ``engine.scheduler.queue_wait`` — time from submit to dispatch;
* ``engine.dedup.coalesced`` — submissions that were absorbed by an
  existing flight (or, in ``BatchEngine.submit_batch``, by an earlier
  α-equivalent job in the same batch);
* ``engine.scheduler.deadline.degraded`` / ``.expired`` — deadline-policy
  outcomes: submissions refused upfront because the budget could not
  cover a fresh decision, and admitted handles abandoned at expiry
  (:class:`DeadlinePolicy`);
* ``engine.catalog.short_circuits`` / ``.same_hash`` / ``.noted`` /
  ``.merges`` — pairs answered from a proven-equivalent catalog group,
  pairs answered because both sides share one canonical hash, recorded
  containment facts, and group merges.

Thread model: ``submit``/``cancel`` may be called from any thread; handle
resolution runs on the pool's coordinator thread via ticket callbacks.
The scheduler's lock is reentrant because a cancellation that empties a
flight completes the pool ticket synchronously, which re-enters the
completion path on the same thread.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterable, Iterator, List, Optional, Tuple, Union

from .cache import ResultCache
from .catalog import OMQCatalog
from .jobs import JobResult
from .witness_store import WitnessStore
from .metrics import LATENCY_BUCKETS, MetricsRegistry
from .pool import CANCELLED, POOL_CLOSED, PoolTicket, WorkerPool
from ..obs import TraceConfig, TracedOutcome, TracedTask, span


class Priority(IntEnum):
    """Dispatch classes; lower value dispatches first."""

    HIGH = 0
    NORMAL = 1
    LOW = 2


def _coerce_priority(value: Union[Priority, int, str]) -> Priority:
    if isinstance(value, Priority):
        return value
    if isinstance(value, str):
        try:
            return Priority[value.upper()]
        except KeyError:
            raise ValueError(
                f"unknown priority {value!r}; choose from "
                f"{', '.join(p.name.lower() for p in Priority)}"
            ) from None
    return Priority(int(value))


#: Failure/`JobResult.error` string for handles abandoned by the deadline
#: policy (refused upfront or expired mid-flight).
DEADLINE = "deadline"


@dataclass(frozen=True)
class DeadlinePolicy:
    """How the scheduler spends a caller's latency budget.

    A submission carrying ``deadline`` (seconds of budget) walks the cheap
    ladder first — the exact witness pair, catalog equivalence, the
    result cache, the bounded cross-pair witness scan, then coalescing
    onto an identical in-flight computation — all far cheaper than a
    decision.  Only when the ladder misses does the policy decide
    whether a *fresh* decision procedure fits the budget:

    * the estimated cost of a fresh run is the per-kind EWMA of observed
      run durations (``ewma_alpha``), but never below ``floor_s`` — the
      paper's procedures are up to 2ExpTime, so a tiny budget can never
      honestly cover a fresh decision no matter how fast recent inputs
      happened to be;
    * a budget below the estimate **degrades immediately**: the handle
      resolves to the job's failure result with reason ``"deadline"``
      without ever occupying a queue slot or pool worker;
    * a budget above the estimate dispatches normally, with a timer that
      abandons the handle (same ``"deadline"`` result) if the computation
      has not produced a value by the deadline.  Co-riders of the flight
      are unaffected; a sole-rider queued flight is retired without the
      pool ever hearing about it.
    """

    floor_s: float = 0.25
    ewma_alpha: float = 0.2


class JobHandle:
    """One submitted job's future result.

    ``done()`` never blocks; ``result(timeout)`` blocks until the handle
    resolves (raising ``TimeoutError`` on expiry); ``cancel()`` resolves
    the handle with a ``"cancelled"`` error if the computation has not
    produced a value for it yet — and releases the underlying pool task
    (or the scheduler's queue slot) when this was the last handle
    interested in it.
    """

    __slots__ = ("job", "key", "_scheduler", "_flight", "_event", "_result",
                 "_lock", "_callbacks", "_primary")

    def __init__(
        self, job: Any, key: Optional[str], scheduler: "Scheduler"
    ) -> None:
        self.job = job
        self.key = key
        self._scheduler = scheduler
        self._flight: Optional[_Flight] = None
        self._event = threading.Event()
        self._result: Optional[JobResult] = None
        self._lock = threading.Lock()
        self._callbacks: List[Any] = []
        self._primary: Optional["JobHandle"] = None

    def done(self) -> bool:
        return self._event.is_set()

    @property
    def coalesced_onto(self) -> Optional["JobHandle"]:
        """The handle whose computation this one rides on, or ``None``.

        Set when a submission coalesces onto an α-equivalent in-flight
        flight (or is attached within a batch): the returned handle is the
        flight's *primary* — the submission that actually got scheduled.
        Cancelling this handle never cancels the primary; a caller that
        wants to report *which* computation keeps running (the serve
        tier's DELETE handler) reads it here.
        """
        return self._primary

    def result(self, timeout: Optional[float] = None) -> JobResult:
        if not self._event.wait(timeout):
            raise TimeoutError(f"job not done after {timeout}s")
        assert self._result is not None
        return self._result

    def cancel(self) -> bool:
        return self._scheduler._cancel(self)

    def add_done_callback(self, callback) -> None:
        """Run ``callback(handle)`` when the handle resolves (now if done).

        Callbacks fire on whichever thread resolves the handle — the pool
        coordinator, a deadline timer, or the canceller — so keep them
        short and non-blocking (the serve tier uses this to hop results
        onto its asyncio loop via ``call_soon_threadsafe``).
        """
        self._add_done_callback(callback)

    # -- internal ---------------------------------------------------------

    def _resolve(self, result: JobResult) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._result = result
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                pass
        return True

    def _add_done_callback(self, callback) -> None:
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)


class _Flight:
    """One scheduled computation and every handle riding on it."""

    __slots__ = ("key", "handles", "ticket", "priority", "submitter",
                 "enqueued", "seq", "dispatched")

    def __init__(
        self,
        key: Optional[str],
        handle: JobHandle,
        priority: Priority,
        submitter: str,
        seq: int,
    ) -> None:
        self.key = key
        self.handles: List[JobHandle] = [handle]
        self.ticket: Optional[PoolTicket] = None
        self.priority = priority
        self.submitter = submitter
        self.enqueued = time.monotonic()
        self.seq = seq
        self.dispatched = False


class Scheduler:
    """Dedup-aware, priority-aware async submission over a WorkerPool.

    Owns no workers and no storage — it composes the pool, the result
    cache, the optional catalog, and the metrics registry handed to it
    (all shared with the :class:`~repro.engine.engine.BatchEngine`
    façade).

    Parameters
    ----------
    catalog:
        An :class:`~repro.engine.catalog.OMQCatalog`; enables
        group-representative cache keys, equivalence short-circuits, and
        verdict feedback for containment jobs.
    witness_store:
        A :class:`~repro.engine.witness_store.WitnessStore`; containment
        submissions probe it for their exact pair first (ahead of the
        catalog short-circuit) and scan it for cross-pair witnesses
        after the cache misses, and every fresh or cached NOT_CONTAINED
        verdict deposits its witness for future sessions.
    max_inflight:
        The dispatch window — how many flights may sit in the pool at
        once.  Defaults to the pool's worker count, which keeps every
        worker busy while leaving queue ordering to the scheduler.
    aging_interval:
        Seconds in queue per one-class priority boost (starvation
        guard).  ``None`` or ``0`` disables aging.
    deadline_policy:
        How deadline-carrying submissions are admitted and expired; see
        :class:`DeadlinePolicy`.  Always present (defaults apply when
        ``None`` is passed).
    """

    def __init__(
        self,
        pool: WorkerPool,
        cache: ResultCache,
        metrics: Optional[MetricsRegistry] = None,
        trace_config: Optional[TraceConfig] = None,
        trace_sink: Optional[List[dict]] = None,
        catalog: Optional[OMQCatalog] = None,
        witness_store: Optional[WitnessStore] = None,
        max_inflight: Optional[int] = None,
        aging_interval: Optional[float] = 5.0,
        deadline_policy: Optional[DeadlinePolicy] = None,
    ) -> None:
        self.pool = pool
        self.cache = cache
        self.catalog = catalog
        self.witness_store = witness_store
        self.metrics = metrics or MetricsRegistry()
        # With a trace config, every dispatched job is wrapped in a
        # TracedTask: the config ships to the worker, the completed span
        # tree rides back inside the result payload, and completed trees
        # land in *trace_sink* (the BatchEngine's list) on unwrap.
        self.trace_config = (
            trace_config
            if trace_config is None or trace_config.mode != "off"
            else None
        )
        self.trace_sink = trace_sink
        self.aging_interval = aging_interval
        self._window = (
            max_inflight
            if max_inflight is not None
            else max(1, pool.workers)
        )
        self._lock = threading.RLock()
        self._inflight: dict = {}
        self._queue: List[_Flight] = []
        self._dispatched_now = 0
        self._flight_seq = itertools.count()
        self._pass: dict = {}
        self._weights: dict = {}
        self.deadline_policy = deadline_policy or DeadlinePolicy()
        self._cost_ewma: dict = {}

    # -- fairness configuration -------------------------------------------

    def set_weight(self, submitter: str, weight: float) -> None:
        """Give *submitter* a fair-share *weight* (default 1.0).  Each
        dispatch charges the submitter ``1/weight`` on its pass clock, so
        doubling the weight doubles its share of contended slots."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        with self._lock:
            self._weights[submitter] = float(weight)

    # -- submission -------------------------------------------------------

    def effective_key(self, job: Any) -> Optional[str]:
        """*job*'s cache key, with catalog group representatives folded
        in for containment jobs (equivalent spellings share rows)."""
        key = job.cache_key()
        if (
            key is not None
            and self.catalog is not None
            and hasattr(job, "catalog_key")
        ):
            return job.catalog_key(self.catalog.rep)
        return key

    def submit(
        self,
        job: Any,
        *,
        priority: Union[Priority, int, str] = Priority.NORMAL,
        submitter: str = "default",
        deadline: Optional[float] = None,
    ) -> JobHandle:
        """Enqueue *job*; returns immediately with its handle.

        Resolution order: the exact witness pair, catalog equivalence,
        the result cache (α-equivalent inputs hit), the witness store's
        cross-pair scan, coalescing onto an in-flight computation with
        the same canonical key, then the priority queue and the pool.

        *deadline* is a latency budget in seconds.  The cheap rungs above
        always run; a fresh dispatch is admitted only when the budget
        covers the estimated cost of a full decision procedure, and an
        admitted-but-unlucky handle is abandoned with reason
        ``"deadline"`` when the budget runs out (see
        :class:`DeadlinePolicy`).
        """
        priority = _coerce_priority(priority)
        self.metrics.counter("engine.scheduler.submitted").inc()
        store = self.witness_store
        value = store.lookup(job) if store is not None else None
        if value is None and self.catalog is not None:
            value = self._catalog_equivalence(job)
        if value is not None:
            return self._answered(JobHandle(job, job.cache_key(), self), value)
        key = self.effective_key(job)
        handle = JobHandle(job, key, self)
        if key is not None:
            found, value = self.cache.get(key)
            if found:
                self.metrics.counter(f"engine.{job.kind}.cache_hits").inc()
                self._note_verdict(job, value)
                return self._answered(handle, value)
        if store is not None:
            value = store.replay(job)
            if value is not None:
                return self._answered(handle, value)
        coalesced = False
        degraded = False
        with self._lock:
            if key is not None:
                flight = self._inflight.get(key)
                if flight is not None:
                    handle._flight = flight
                    handle._primary = flight.handles[0]
                    flight.handles.append(handle)
                    self.metrics.counter("engine.dedup.coalesced").inc()
                    if priority < flight.priority and not flight.dispatched:
                        # A flight runs at the most urgent class anyone
                        # riding it asked for.
                        flight.priority = priority
                    coalesced = True
            if not coalesced:
                if (
                    deadline is not None
                    and deadline < self._estimated_cost_locked(
                        getattr(job, "kind", "?")
                    )
                ):
                    # The budget cannot honestly cover a fresh decision
                    # procedure: degrade now, occupy nothing.
                    degraded = True
                else:
                    flight = _Flight(
                        key, handle, priority, submitter,
                        next(self._flight_seq),
                    )
                    handle._flight = flight
                    if key is not None:
                        self._inflight[key] = flight
                    if submitter not in self._pass:
                        # New submitters join at the current minimum pass
                        # so they neither jump the line nor inherit a
                        # historic deficit.
                        self._pass[submitter] = min(
                            self._pass.values(), default=0.0
                        )
                    self._queue.append(flight)
        if degraded:
            self.metrics.counter("engine.scheduler.deadline.degraded").inc()
            handle._resolve(
                JobResult(
                    job, job.failure_result(DEADLINE), error=DEADLINE
                )
            )
            self.metrics.counter("engine.scheduler.completed").inc()
            return handle
        if deadline is not None:
            self._arm_deadline(handle, deadline)
        if coalesced:
            return handle
        self.metrics.gauge("engine.scheduler.inflight").add()
        self.metrics.gauge("engine.scheduler.priority.queued").add()
        self._dispatch_ready()
        return handle

    # -- deadlines ---------------------------------------------------------

    def _estimated_cost_locked(self, kind: str) -> float:
        est = self._cost_ewma.get(kind)
        floor = self.deadline_policy.floor_s
        return floor if est is None else max(est, floor)

    def estimated_cost(self, kind: str) -> float:
        """The policy's current estimate (seconds) of a fresh *kind* run."""
        with self._lock:
            return self._estimated_cost_locked(kind)

    def _observe_cost(self, kind: str, duration: float) -> None:
        alpha = self.deadline_policy.ewma_alpha
        with self._lock:
            prev = self._cost_ewma.get(kind)
            self._cost_ewma[kind] = (
                duration
                if prev is None
                else (1.0 - alpha) * prev + alpha * duration
            )

    def _arm_deadline(self, handle: JobHandle, budget: float) -> None:
        """Expire *handle* with a ``"deadline"`` result after *budget* s."""
        timer = threading.Timer(budget, self._expire_deadline, args=(handle,))
        timer.daemon = True
        # Resolution through any path (worker, cache race, cancel) defuses
        # the timer; registering first means a handle that is already done
        # cancels before start, which Timer supports.
        handle._add_done_callback(lambda _h: timer.cancel())
        timer.start()

    def _expire_deadline(self, handle: JobHandle) -> None:
        with self._lock:
            if handle.done():
                return
            job = handle.job
            if not handle._resolve(
                JobResult(
                    job, job.failure_result(DEADLINE), error=DEADLINE
                )
            ):
                return
            self.metrics.counter("engine.scheduler.deadline.expired").inc()
            self.metrics.counter("engine.scheduler.completed").inc()
            self._retire_if_abandoned_locked(handle._flight)

    def attach(self, primary: JobHandle, job: Any) -> JobHandle:
        """A handle for *job* that rides on *primary*'s computation.

        Used by ``BatchEngine.submit_batch`` to coalesce α-equivalent
        duplicates *within* one batch deterministically (the in-flight
        map alone cannot promise a coalesce — with a fast worker the
        first copy may already have finished and turned into a plain
        cache hit by the time the second is submitted).
        """
        handle = JobHandle(job, primary.key, self)
        handle._primary = primary
        self.metrics.counter("engine.scheduler.submitted").inc()
        self.metrics.counter("engine.dedup.coalesced").inc()

        def _forward(done: JobHandle) -> None:
            r = done._result
            assert r is not None
            if handle._resolve(
                JobResult(
                    job,
                    r.value if r.ok else job.failure_result(r.error),
                    cached=r.cached,
                    error=r.error,
                    duration=r.duration,
                    coalesced=True,
                    trace=r.trace,
                )
            ):
                self.metrics.counter("engine.scheduler.completed").inc()

        primary._add_done_callback(_forward)
        return handle

    # -- the ready queue ---------------------------------------------------

    def _select_locked(self) -> Tuple[_Flight, Priority]:
        """Pick the next flight (queue is non-empty; lock held).

        Rank: (effective priority after aging, submitter pass, seq); the
        winner's submitter is charged 1/weight on its pass clock.
        """
        now = time.monotonic()
        best: Optional[_Flight] = None
        best_rank: Optional[Tuple[int, float, int]] = None
        best_eff = Priority.NORMAL
        for flight in self._queue:
            eff = int(flight.priority)
            if self.aging_interval:
                boost = int((now - flight.enqueued) / self.aging_interval)
                if boost > 0:
                    eff = max(int(Priority.HIGH), eff - boost)
            rank = (eff, self._pass.get(flight.submitter, 0.0), flight.seq)
            if best_rank is None or rank < best_rank:
                best, best_rank, best_eff = flight, rank, Priority(eff)
        assert best is not None
        weight = self._weights.get(best.submitter, 1.0)
        self._pass[best.submitter] = (
            self._pass.get(best.submitter, 0.0) + 1.0 / weight
        )
        return best, best_eff

    def _dispatch_ready(self) -> None:
        """Dispatch queued flights while the window has room."""
        while True:
            with self._lock:
                if self._dispatched_now >= self._window or not self._queue:
                    return
                flight, eff = self._select_locked()
                self._queue.remove(flight)
                flight.dispatched = True
                self._dispatched_now += 1
                if eff < flight.priority:
                    self.metrics.counter(
                        "engine.scheduler.priority.aged"
                    ).inc()
                waited = time.monotonic() - flight.enqueued
                job = flight.handles[0].job
            self.metrics.gauge("engine.scheduler.priority.queued").sub()
            self.metrics.counter(
                f"engine.scheduler.priority.dispatched.{eff.name.lower()}"
            ).inc()
            self.metrics.timer("engine.scheduler.queue_wait").observe(waited)
            task: Any = job
            if self.trace_config is not None:
                task = TracedTask(job, self.trace_config, time.time())
            with span(
                "scheduler.dispatch",
                kind=getattr(job, "kind", "?"),
                priority=eff.name.lower(),
                submitter=flight.submitter,
                waited_s=round(waited, 6),
            ):
                try:
                    ticket = self.pool.submit(task)
                except RuntimeError:
                    self._fail_flight(flight, POOL_CLOSED)
                    continue
            self.metrics.counter("engine.scheduler.dispatched").inc()
            with self._lock:
                flight.ticket = ticket
                orphaned = all(h.done() for h in flight.handles)
            ticket.add_done_callback(
                lambda t, flight=flight: self._on_ticket_done(flight, t)
            )
            if orphaned:
                # Every rider cancelled during the dispatch gap: release
                # the pool slot if the task has not started.
                self.pool.cancel(ticket)

    def _fail_flight(self, flight: _Flight, reason: str) -> None:
        """Resolve every rider of an undispatchable flight with *reason*."""
        with self._lock:
            self._dispatched_now -= 1
            if flight.key is not None:
                self._inflight.pop(flight.key, None)
            handles = list(flight.handles)
        self.metrics.gauge("engine.scheduler.inflight").sub()
        for i, h in enumerate(handles):
            if h.done():
                continue
            if h._resolve(
                JobResult(
                    h.job,
                    h.job.failure_result(reason),
                    error=reason,
                    coalesced=i > 0,
                )
            ):
                self.metrics.counter("engine.scheduler.completed").inc()

    # -- the cheap ladder ---------------------------------------------------

    def _answered(self, handle: JobHandle, value: Any) -> JobHandle:
        """*handle*, resolved now with *value* from one of the tiers."""
        handle._resolve(JobResult(handle.job, value, cached=True))
        self.metrics.counter("engine.scheduler.completed").inc()
        return handle

    def _catalog_equivalence(self, job: Any) -> Any:
        """A CONTAINED result if both sides of *job* have one canonical
        form, or the catalog puts them in one proven-equivalent group,
        else ``None``."""
        assert self.catalog is not None
        if getattr(job, "kind", None) != "containment":
            return None
        if not hasattr(job, "content_hashes"):
            return None
        h1, h2 = job.content_hashes()
        from ..containment.result import contained

        if h1 == h2:
            self.metrics.counter("engine.catalog.same_hash").inc()
            return contained(
                "catalog-equivalence", "both OMQs have one canonical form"
            )
        if not self.catalog.equivalent(h1, h2):
            return None
        self.metrics.counter("engine.catalog.short_circuits").inc()
        return contained(
            "catalog-equivalence",
            "both OMQs are members of one proven-equivalent catalog group",
        )

    def _note_verdict(self, job: Any, value: Any) -> None:
        """Feed a decided verdict back into the durable layers.

        CONTAINED becomes a catalog edge; NOT_CONTAINED deposits its
        witness in the witness store.  Only genuinely decided results
        reach this point: deadline-degraded and pool-failure results are
        UNKNOWN and carry no witness, so neither store can absorb them
        (the regression tests in ``test_witness_store.py`` pin this).
        """
        if getattr(job, "kind", None) != "containment":
            return
        if not hasattr(job, "content_hashes"):
            return
        from ..containment.result import Verdict

        verdict = getattr(value, "verdict", None)
        if (
            self.witness_store is not None
            and verdict is Verdict.NOT_CONTAINED
            and getattr(value, "witness", None) is not None
        ):
            h1, h2 = job.content_hashes()
            # The OMQs ride along so the row is signature-keyed and can
            # serve structural (non-hash-equal) replays.
            self.witness_store.record(
                h1,
                h2,
                value.witness,
                q1=getattr(job, "q1", None),
                q2=getattr(job, "q2", None),
            )
        if self.catalog is None or verdict is not Verdict.CONTAINED:
            return
        h1, h2 = job.content_hashes()
        if h1 == h2:
            return
        merged = self.catalog.note_contained(h1, h2)
        self.metrics.counter("engine.catalog.noted").inc()
        if merged:
            self.metrics.counter("engine.catalog.merges").inc()

    # -- streaming --------------------------------------------------------

    def as_completed(
        self,
        handles: Iterable[JobHandle],
        timeout: Optional[float] = None,
    ) -> Iterator[JobHandle]:
        """Yield handles as they resolve, soonest first.

        Unlike draining ``result()`` in input order, the caller sees each
        outcome the moment a worker produces it.  ``timeout`` bounds the
        *total* wait; expiry raises ``TimeoutError`` with the stragglers
        still pending.
        """
        handles = list(handles)
        done_queue: "queue.Queue[JobHandle]" = queue.Queue()
        for h in handles:
            h._add_done_callback(done_queue.put)
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for _ in range(len(handles)):
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                yield done_queue.get(timeout=remaining)
            except queue.Empty:
                raise TimeoutError(
                    f"batch not done after {timeout}s"
                ) from None

    # -- cancellation -----------------------------------------------------

    def _cancel(self, handle: JobHandle) -> bool:
        with self._lock:
            if handle.done():
                return False
            job = handle.job
            resolved = handle._resolve(
                JobResult(
                    job,
                    job.failure_result(CANCELLED),
                    error=CANCELLED,
                )
            )
            if not resolved:
                return False
            self.metrics.counter("engine.scheduler.cancelled").inc()
            self._retire_if_abandoned_locked(handle._flight)
        return True

    def _retire_if_abandoned_locked(self, flight: Optional[_Flight]) -> None:
        """Release *flight*'s resources if no rider is waiting any more."""
        if flight is None or not all(h.done() for h in flight.handles):
            return
        if flight.ticket is not None:
            # Release the pool slot if the task has not started
            # (completing the ticket re-enters _on_ticket_done on
            # this thread — the RLock allows it).
            self.pool.cancel(flight.ticket)
        elif not flight.dispatched:
            # Still waiting in the ready queue: retire it without
            # the pool ever hearing about it.
            try:
                self._queue.remove(flight)
            except ValueError:
                pass
            else:
                if flight.key is not None:
                    self._inflight.pop(flight.key, None)
                self.metrics.gauge("engine.scheduler.inflight").sub()
                self.metrics.gauge("engine.scheduler.priority.queued").sub()
        # A flight mid-dispatch (dispatched, no ticket yet) is
        # handled by the dispatcher's post-submit orphan check.

    # -- completion (runs on the pool's coordinator thread) ---------------

    def _on_ticket_done(self, flight: _Flight, ticket: PoolTicket) -> None:
        outcome = ticket.outcome
        assert outcome is not None
        job = flight.handles[0].job
        cancelled = outcome.failure == CANCELLED
        # Traced tasks bundle the span tree with the value; unwrap before
        # caching so the cache stores plain values, and bank the tree.
        value = outcome.value
        trace: Optional[dict] = None
        if isinstance(value, TracedOutcome):
            trace = value.trace
            value = value.value
            if trace is not None and self.trace_sink is not None:
                self.trace_sink.append(trace)
        if not cancelled:
            self.metrics.counter(f"engine.{job.kind}.runs").inc()
            self.metrics.timer(f"engine.{job.kind}.time").observe(
                outcome.duration
            )
            # Per-kind latency distribution; a traced run leaves its
            # decision id as the bucket exemplar, so a slow bucket in
            # /metrics points at a concrete span tree.
            self.metrics.histogram(
                f"engine.job.seconds.{job.kind}", buckets=LATENCY_BUCKETS
            ).observe(
                outcome.duration,
                exemplar=trace["id"] if trace is not None else None,
            )
            self._observe_cost(job.kind, outcome.duration)
            if outcome.ok:
                if flight.key is not None:
                    self.cache.put(flight.key, value)
                self._note_verdict(job, value)
            else:
                self.metrics.counter(f"engine.{job.kind}.failures").inc()
        # The cache now holds the value (if any), so a submit that races
        # the pop below lands on a cache hit rather than a recompute.
        with self._lock:
            self._dispatched_now -= 1
            if flight.key is not None:
                self._inflight.pop(flight.key, None)
            handles = list(flight.handles)
        self.metrics.gauge("engine.scheduler.inflight").sub()
        for i, h in enumerate(handles):
            if h.done():  # individually cancelled earlier
                continue
            if outcome.ok:
                result = JobResult(
                    h.job,
                    value,
                    duration=outcome.duration,
                    coalesced=i > 0,
                    trace=trace,
                )
            else:
                result = JobResult(
                    h.job,
                    h.job.failure_result(outcome.failure),
                    error=outcome.failure,
                    duration=outcome.duration,
                    coalesced=i > 0,
                    trace=trace,
                )
            if h._resolve(result):
                self.metrics.counter("engine.scheduler.completed").inc()
        # A slot opened: pull the next queued flight in priority order.
        self._dispatch_ready()
