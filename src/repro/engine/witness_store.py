"""Cross-session index of NOT_CONTAINED counterexamples, replayed cheaply.

The catalog (:mod:`repro.engine.catalog`) compounds *positive* verdicts:
proven-equivalent OMQs short-circuit to CONTAINED.  This module is its
negative dual.  A NOT_CONTAINED verdict is self-certifying — it carries a
witness database ``D`` and a tuple ``c̄`` with ``c̄ ∈ Q1(D) \\ Q2(D)`` —
so persisting ``(hash(Q1), hash(Q2)) → (D, c̄)`` turns every future
re-decision of that pair (and of many structurally different pairs) into
at most two homomorphism-search evaluations instead of a full 2EXPTIME
decision procedure.

Two lookups, at two places in the scheduler's ladder (exact witness →
catalog → result cache → cross-pair scan):

1. **Exact pair** (:meth:`WitnessStore.lookup`) — a stored witness under
   exactly ``(h1, h2)`` is returned with *zero* evaluations.  Canonical
   hashes are isomorphism invariant and NOT_CONTAINED verdicts are only
   ever produced exactly (budget exhaustion yields UNKNOWN, never
   NOT_CONTAINED), so the stored fact ``c̄ ∈ Q1(D)`` and ``c̄ ∉ Q2(D)``
   is a semantic fact about this very pair — independent of the
   chase/rewriting budgets either session used.
2. **Cross-pair scan** (:meth:`WitnessStore.replay`, after the exact
   probe) — one bounded candidate list: witnesses stored under the same
   LHS hash, then the same RHS hash (at most ``scan_limit`` together),
   then under the same *predicate-signature pair* (:func:`omq_signature`;
   at most ``scan_limit`` more).  Every candidate gets one check that
   evaluates only the sides whose canonical hash differs from the stored
   pair's:

   * ``c̄ ∈ Q1_cand(D)`` — stored fact when the LHS hash matches;
     otherwise a fresh evaluation, sound even when inexact (a truncated
     chase under-approximates the certain answers, so membership in the
     approximation implies membership);
   * ``c̄ ∉ Q2_cand(D)`` — stored fact when the RHS hash matches;
     otherwise a fresh evaluation that counts only when *exact*.

   A candidate matching one side hash runs under the job's own budgets;
   a *structural* candidate (neither side matches) runs under
   ``min(job budget, replay_budget)``, and a blown budget makes its
   negative evaluation inexact — structural replay can stall, never lie.

A cross-pair hit is re-recorded under the candidate pair (origin
``hash-replay`` or ``structural-replay``), so the second time around it
is an exact hit.  Any failure during a candidate check — schema
mismatch, budget blow-up, a corrupted row — degrades that candidate to a
miss; replay never raises.

Persistence is the durable-store contract of :mod:`repro.engine.store`
over one ``witnesses`` table.  The schema-v1 → v2 signature-column
migration rides the stamp, so a v1 store is discarded and rebuilt empty,
never replayed over unkeyed rows; undecodable rows are skipped, never
fatal.  The in-memory index follows the kernel intern table's
generation-stamped rebuild contract: ``repro.clear_caches()`` and
any :meth:`InternTable.clear` bump trigger a lazy :meth:`reload` from the
serialized documents, so no deserialized object outlives an
invalidation.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, islice
from threading import RLock
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..containment.result import ContainmentResult, Witness, not_contained
from ..core.serialize import witness_from_json, witness_to_json
from ..kernel.instance import instance_signature
from ..kernel.intern import INTERN
from .metrics import MetricsRegistry
from .registry import register_instance_cache, unregister_cache
from .store import ReadOnlyStore, SqliteStore, StoreBacked, StoreError

#: Bump when the witness store's sqlite layout changes.  "2" added the
#: per-side predicate-signature columns and the provenance column; a "1"
#: store is discarded and rebuilt (the stamp contract), never replayed.
WITNESS_SCHEMA_VERSION = "2"

_DDL = (
    "CREATE TABLE IF NOT EXISTS witnesses "
    "(lhs TEXT, rhs TEXT, lhs_sig TEXT DEFAULT '', "
    "rhs_sig TEXT DEFAULT '', origin TEXT DEFAULT 'decided', "
    "doc TEXT, PRIMARY KEY (lhs, rhs))",
    "CREATE INDEX IF NOT EXISTS witnesses_by_signature "
    "ON witnesses (lhs_sig, rhs_sig)",
)

_COLUMNS = "lhs, rhs, lhs_sig, rhs_sig, origin, doc"


def omq_signature(omq: Any) -> str:
    """The predicate-signature key of one OMQ side.

    The sorted ``pred/arity`` pairs of ``S ∪ sch(Σ)`` ∪ the query's
    predicates, comma-joined — everything the OMQ can mention, in a
    canonical spelling.  Atom reorderings, variable renamings, and
    redundant atoms over existing predicates all preserve it; a predicate
    rename does not.  Returns ``""`` (which never keys the structural
    index) when the argument has no well-formed schema.
    """
    try:
        relations = omq.full_schema().relations
    except Exception:
        return ""
    return ",".join(f"{p}/{a}" for p, a in sorted(relations.items()))


def instance_signature_key(database: Any) -> str:
    """The witness database's own signature, via the interned kernel view."""
    try:
        pairs = instance_signature(database)
    except Exception:
        return ""
    return ",".join(f"{p}/{a}" for p, a in sorted(pairs))


@dataclass(frozen=True)
class StoredWitness:
    """One persisted counterexample: the pair it refutes and its witness.

    ``lhs_sig``/``rhs_sig`` are the predicate-signature keys of the two
    sides (empty when the recording call site could not supply the OMQs);
    ``origin`` records provenance — ``"decided"`` for a fresh verdict,
    ``"hash-replay"``/``"structural-replay"`` for re-records of cross-pair
    hits.  ``doc`` is the canonical JSON document the witness was stored
    as; it is kept alongside the deserialized form so a generation-stamped
    :meth:`WitnessStore.reload` can rebuild every in-memory object from
    scratch without touching the disk file.
    """

    lhs: str
    rhs: str
    lhs_sig: str
    rhs_sig: str
    origin: str
    doc: str
    witness: Witness


def _decode(row: Iterable[Any]) -> Optional[StoredWitness]:
    """One stored row as a :class:`StoredWitness`, or ``None`` when its
    document does not parse (a bad row is skipped, never fatal)."""
    lhs, rhs, lhs_sig, rhs_sig, origin, doc = row
    try:
        witness = witness_from_json(json.loads(doc))
    except Exception:
        return None
    return StoredWitness(
        str(lhs),
        str(rhs),
        str(lhs_sig or ""),
        str(rhs_sig or ""),
        str(origin or "decided"),
        str(doc),
        witness,
    )


class WitnessStore(StoreBacked):
    """Persistent structural index of NOT_CONTAINED witnesses.

    ``path=None`` keeps the store in memory (still useful within one
    long-lived engine: witnesses survive result-cache eviction).  All
    operations are total — storage failures cost durability, never
    correctness, and :meth:`replay` degrades to a miss on any anomaly.

    Parameters
    ----------
    max_entries:
        Cap on stored witnesses; the oldest entry is evicted first
        (``engine.witness.evictions``).
    scan_limit:
        How many candidates the cross-pair scan may check per part —
        same-LHS/same-RHS together, and signature-keyed separately —
        after the exact-pair probe misses.  Bounds the inline work a
        submission can spend before falling through to the full
        decision procedure.
    replay_budget:
        Per-evaluation step cap for structural candidates' two fresh
        checks (``min``-ed with the job's own budgets).  A check the
        budget cannot settle degrades that candidate to a miss.
    metrics:
        The registry the ``engine.witness.*`` counters land in; the
        :class:`~repro.engine.engine.BatchEngine` shares its own registry
        so the counters surface in ``stats()`` and ``/metrics``.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        max_entries: int = 4096,
        scan_limit: int = 8,
        replay_budget: int = 20_000,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._lock = RLock()
        self.metrics = metrics
        self.max_entries = max(1, int(max_entries))
        self.scan_limit = max(0, int(scan_limit))
        self.replay_budget = max(1, int(replay_budget))
        #: (lhs, rhs) -> StoredWitness, insertion-ordered for eviction.
        self._records: "OrderedDict[Tuple[str, str], StoredWitness]" = (
            OrderedDict()
        )
        self._by_lhs: Dict[str, List[Tuple[str, str]]] = {}
        self._by_rhs: Dict[str, List[Tuple[str, str]]] = {}
        #: (lhs_sig, rhs_sig) -> keys; rows with an empty signature on
        #: either side never enter (they cannot be structurally matched).
        self._by_signature: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        self.skipped_rows = 0
        self.replay_errors = 0
        self._generation = INTERN.generation
        self._store = SqliteStore(
            path,
            _DDL,
            table="witnesses",
            schema_version=WITNESS_SCHEMA_VERSION,
        )
        for row in self._store.read(
            f"SELECT {_COLUMNS} FROM witnesses ORDER BY rowid"
        ):
            self._index_decoded(row)
        # clear_caches() reloads (re-deserializes) the in-memory index; it
        # never discards the durable facts.  Weakly registered, so a
        # closed-and-dropped store unregisters itself.
        self._registry_key = register_instance_cache(
            "engine.witness_store", self, "reload"
        )

    # -- metrics ----------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None and value:
            self.metrics.counter(name).inc(value)

    # -- the in-memory index ----------------------------------------------

    def _index_decoded(self, row: Iterable[Any]) -> None:
        record = _decode(row)
        if record is None:
            self.skipped_rows += 1
        else:
            self._index_locked(record)

    def _index_locked(self, record: StoredWitness) -> None:
        key = (record.lhs, record.rhs)
        if key in self._records:
            return
        self._records[key] = record
        self._by_lhs.setdefault(record.lhs, []).append(key)
        self._by_rhs.setdefault(record.rhs, []).append(key)
        if record.lhs_sig and record.rhs_sig:
            self._by_signature.setdefault(
                (record.lhs_sig, record.rhs_sig), []
            ).append(key)

    def _unindex_locked(self, key: Tuple[str, str]) -> None:
        record = self._records.pop(key, None)
        if record is None:
            return
        indexes: List[Tuple[Dict, Any]] = [
            (self._by_lhs, record.lhs),
            (self._by_rhs, record.rhs),
        ]
        if record.lhs_sig and record.rhs_sig:
            indexes.append(
                (self._by_signature, (record.lhs_sig, record.rhs_sig))
            )
        for index, index_key in indexes:
            keys = index.get(index_key)
            if keys is not None:
                try:
                    keys.remove(key)
                except ValueError:
                    pass
                if not keys:
                    del index[index_key]

    def _maybe_reload_locked(self) -> None:
        if INTERN.generation != self._generation:
            self._reload_locked()

    def _reload_locked(self) -> None:
        """Rebuild every in-memory object from the serialized documents.

        This is the generation-stamped invalidation contract: after an
        intern-table clear (``repro.clear_caches()`` or a direct
        ``INTERN.clear()``), nothing deserialized before the bump
        survives — each witness is re-parsed from its canonical JSON doc,
        so instances re-enter the (new) intern world lazily like any
        other fresh object.
        """
        old = list(self._records.values())
        self._records = OrderedDict()
        self._by_lhs = {}
        self._by_rhs = {}
        self._by_signature = {}
        for stale in old:
            self._index_decoded(
                (
                    stale.lhs,
                    stale.rhs,
                    stale.lhs_sig,
                    stale.rhs_sig,
                    stale.origin,
                    stale.doc,
                )
            )
        self._generation = INTERN.generation

    # -- public API -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def record(
        self,
        h1: str,
        h2: str,
        witness: Witness,
        *,
        q1: Any = None,
        q2: Any = None,
        lhs_sig: str = "",
        rhs_sig: str = "",
        origin: str = "decided",
    ) -> bool:
        """Persist *witness* as a counterexample to ``hash h1 ⊆ hash h2``.

        Returns True iff the pair was new.  The first witness for a pair
        wins (any stored witness refutes the pair; churning rows buys
        nothing).  When the call site can supply the OMQs (``q1``/``q2``)
        or precomputed keys, the row is signature-keyed and joins the
        structural index; without them it is still a same-LHS/same-RHS
        candidate.  Serialization failures drop the witness silently —
        durability is best-effort, correctness never depends on it.
        """
        if not lhs_sig and q1 is not None:
            lhs_sig = omq_signature(q1)
        if not rhs_sig and q2 is not None:
            rhs_sig = omq_signature(q2)
        with self._lock:
            self._maybe_reload_locked()
            key = (h1, h2)
            if key in self._records:
                return False
            try:
                doc = json.dumps(
                    witness_to_json(witness),
                    sort_keys=True,
                    separators=(",", ":"),
                )
            except Exception:
                return False
            self._index_locked(
                StoredWitness(h1, h2, lhs_sig, rhs_sig, origin, doc, witness)
            )
            self._count("engine.witness.stored")
            evicted: List[tuple] = []
            while len(self._records) > self.max_entries:
                oldest = next(iter(self._records))
                self._unindex_locked(oldest)
                evicted.append(oldest)
            self._count("engine.witness.evictions", len(evicted))
            self._store.write(
                (
                    "INSERT OR REPLACE INTO witnesses VALUES (?, ?, ?, ?, ?, ?)",
                    [(h1, h2, lhs_sig, rhs_sig, origin, doc)],
                ),
                ("DELETE FROM witnesses WHERE lhs = ? AND rhs = ?", evicted),
            )
            return True

    def _hit(self, origin: str, witness: Witness, detail: str) -> ContainmentResult:
        self._count("engine.witness.hits")
        if origin == "exact":
            self._count("engine.witness.exact_hits")
        elif origin == "structural-replay":
            self._count("engine.witness.structural.hits")
        return not_contained(
            "witness-replay", witness.database, witness.answer, detail
        )

    def _pair(self, job: Any) -> Optional[Tuple[str, str]]:
        """*job*'s canonical pair, or ``None`` when replay cannot apply."""
        if getattr(job, "kind", None) != "containment" or not hasattr(
            job, "content_hashes"
        ):
            return None
        return job.content_hashes()

    def lookup(self, job: Any) -> Optional[ContainmentResult]:
        """The exact-pair probe: a stored witness under exactly *job*'s
        canonical pair, as a NOT_CONTAINED result, with zero evaluations.

        ``None`` on a miss and for non-containment jobs.
        """
        pair = self._pair(job)
        if pair is None:
            return None
        with self._lock:
            self._maybe_reload_locked()
            exact = self._records.get(pair)
        if exact is None:
            return None
        return self._hit(
            "exact",
            exact.witness,
            "stored witness for this exact canonical pair",
        )

    def _candidates_locked(
        self, h1: str, h2: str, lhs_sig: str, rhs_sig: str
    ) -> List[StoredWitness]:
        """The bounded cross-pair scan list, without repeats: same-LHS,
        then same-RHS (at most ``scan_limit`` together), then same
        signature pair (at most ``scan_limit`` more)."""
        seen = {(h1, h2)}

        def take(keys: Iterable[Tuple[str, str]]) -> List[Tuple[str, str]]:
            taken: List[Tuple[str, str]] = []
            for key in keys:
                if len(taken) >= self.scan_limit:
                    break
                if key not in seen:
                    seen.add(key)
                    taken.append(key)
            return taken

        keys = take(chain(self._by_lhs.get(h1, ()), self._by_rhs.get(h2, ())))
        if lhs_sig and rhs_sig:
            keys += take(self._by_signature.get((lhs_sig, rhs_sig), ()))
        return [self._records[key] for key in keys]

    def replay(self, job: Any) -> Optional[ContainmentResult]:
        """Try to refute *job* (a ContainmentJob) from stored witnesses:
        the exact-pair probe, then the cross-pair scan.

        Returns a NOT_CONTAINED result with the replayed witness attached,
        or ``None`` (a miss — including every anomaly: schema mismatch,
        evaluation failure, inexact negative evidence, blown replay
        budget).
        """
        hit = self.lookup(job)
        pair = self._pair(job)
        if hit is not None or pair is None:
            return hit
        h1, h2 = pair
        lhs_sig = omq_signature(getattr(job, "q1", None))
        rhs_sig = omq_signature(getattr(job, "q2", None))
        with self._lock:
            self._maybe_reload_locked()
            candidates = self._candidates_locked(h1, h2, lhs_sig, rhs_sig)
        # Evaluations run outside the lock: a hom-check is cheap but not
        # free, and replay must never serialize concurrent submitters.
        for candidate in candidates:
            result = self._check(job, h1, h2, candidate)
            if result is not None:
                # Re-record under the candidate pair: next time it is an
                # exact (zero-evaluation) hit.
                self.record(
                    h1,
                    h2,
                    result.witness,
                    lhs_sig=lhs_sig,
                    rhs_sig=rhs_sig,
                    origin=(
                        "hash-replay"
                        if h1 == candidate.lhs or h2 == candidate.rhs
                        else "structural-replay"
                    ),
                )
                return result
        self._count("engine.witness.misses")
        return None

    def _job_budgets(self, job: Any, cap: Optional[int]) -> Dict[str, Any]:
        """Evaluation kwargs from the job's budgets, optionally capped."""
        steps = getattr(job, "chase_max_steps", 200_000)
        kwargs: Dict[str, Any] = {
            "chase_max_steps": min(steps, cap) if cap else steps,
            "chase_max_depth": getattr(job, "chase_max_depth", None),
        }
        budget = getattr(job, "rewriting_budget", None)
        if cap:
            kwargs["rewriting_budget"] = (
                min(budget, cap) if budget is not None else cap
            )
        elif budget is not None:
            kwargs["rewriting_budget"] = budget
        return kwargs

    def _check(
        self, job: Any, h1: str, h2: str, candidate: StoredWitness
    ) -> Optional[ContainmentResult]:
        """Does *candidate*'s witness ``(D, c̄)`` refute *job*'s pair?

        A side whose canonical hash matches the stored pair's needs no
        evaluation: NOT_CONTAINED verdicts are exact, so the stored
        membership ``c̄ ∈ Q1(D)`` or non-membership ``c̄ ∉ Q2(D)`` is a
        semantic fact about that hash.  Every other side is evaluated
        fresh — membership counts even from an inexact evaluation (it
        under-approximates), non-membership only from an exact one.  A
        one-sided check runs under the job's budgets; a *structural*
        candidate (neither hash matches, only the signature pair) runs
        both checks under ``min(job, replay_budget)``, and its
        disconfirmation counts as a refuted replay.

        A necessary test first refutes, unevaluated, a ``c̄`` whose arity
        differs from Q1's head or a D whose predicates derive no disjunct
        of Q1 under Σ1 (``engine.witness.pruned``).
        """
        from ..evaluation import answerable_from, evaluate_omq

        lhs_known, rhs_known = candidate.lhs == h1, candidate.rhs == h2
        structural = not (lhs_known or rhs_known)
        self._count("engine.witness.replays")
        if structural:
            self._count("engine.witness.structural.attempts")
        witness = candidate.witness
        kwargs = self._job_budgets(
            job, self.replay_budget if structural else None
        )
        try:
            if lhs_known:
                refutes = True
            elif len(witness.answer) != job.q1.arity or not answerable_from(
                job.q1, witness.database.predicates()
            ):
                self._count("engine.witness.pruned")
                refutes = False
            else:
                refutes = witness.answer in evaluate_omq(
                    job.q1, witness.database, **kwargs
                ).answers
            if refutes and not rhs_known:
                rhs = evaluate_omq(job.q2, witness.database, **kwargs)
                refutes = rhs.exact and witness.answer not in rhs.answers
        except Exception:
            # Anything — schema mismatch, arity mismatch, a budget
            # exception — degrades this candidate to a miss.
            self.replay_errors += 1
            return None
        if structural and not refutes:
            self._count("engine.witness.structural.refuted_replays")
        if not refutes:
            return None
        if structural:
            return self._hit(
                "structural-replay",
                witness,
                "structural replay: signature-compatible witness "
                f"for {candidate.lhs[:12]} ⊄ {candidate.rhs[:12]} "
                "re-confirmed against both candidate sides",
            )
        if lhs_known:
            detail = (
                f"stored witness for lhs {h1[:12]} replayed "
                "against the candidate RHS"
            )
        else:
            detail = (
                f"stored witness for rhs {h2[:12]} replayed "
                "against the candidate LHS"
            )
        return self._hit("hash-replay", witness, detail)

    @staticmethod
    def _entry_dict(record: StoredWitness) -> Dict[str, Any]:
        return {
            "lhs": record.lhs,
            "rhs": record.rhs,
            "lhs_sig": record.lhs_sig,
            "rhs_sig": record.rhs_sig,
            "origin": record.origin,
            "db_sig": instance_signature_key(record.witness.database),
            "atoms": len(record.witness.database.atoms),
            "answer": [str(t) for t in record.witness.answer],
        }

    def entries(self) -> List[Dict[str, Any]]:
        """A listing for inspection: one dict per stored pair, insertion
        order preserved.  Prefer :meth:`iter_entries` (or the read-only
        classmethod :meth:`inspect`) for large stores."""
        return list(self.iter_entries())

    def iter_entries(
        self, limit: Optional[int] = None
    ) -> Iterator[Dict[str, Any]]:
        """Stream up to *limit* entry dicts without materializing them all.

        The record list is snapshotted under the lock (references only);
        rendering happens outside it.
        """
        with self._lock:
            self._maybe_reload_locked()
            records = list(self._records.values())
        if limit is not None:
            records = records[: max(0, limit)]
        for record in records:
            yield self._entry_dict(record)

    @classmethod
    def inspect(
        cls, path: str, *, limit: Optional[int] = None
    ) -> Tuple[Dict[str, Any], Iterator[Dict[str, Any]]]:
        """Read-only streaming view of a store *file*: ``(stats, rows)``.

        Unlike constructing a :class:`WitnessStore` (which loads every
        row into the in-memory index, and — per the stamp contract —
        *discards* a version-mismatched file), ``inspect`` opens the file
        through :class:`~repro.engine.store.ReadOnlyStore`, computes the
        stats with SQL aggregates, and yields at most *limit* decoded
        rows lazily.  Inspection of an arbitrarily large or
        foreign-versioned store is O(limit) memory and never mutates the
        file.  Raises :class:`~repro.engine.store.StoreError` (a
        :class:`ValueError`) when the file is not a readable witness
        store.
        """
        view = ReadOnlyStore(path)
        try:
            ((entries, lhs_keys, rhs_keys),) = view.rows(
                "SELECT COUNT(*), COUNT(DISTINCT lhs), "
                "COUNT(DISTINCT rhs) FROM witnesses"
            )
        except StoreError as exc:
            view.close()
            raise StoreError(f"not a witness store: {exc}") from None
        stats = {
            "entries": int(entries),
            "lhs_keys": int(lhs_keys),
            "rhs_keys": int(rhs_keys),
            **view.stamp_stats(WITNESS_SCHEMA_VERSION),
        }

        def _rows() -> Iterator[Dict[str, Any]]:
            with view:
                try:
                    rows = view.rows(
                        f"SELECT {_COLUMNS} FROM witnesses ORDER BY rowid"
                    )
                except StoreError:
                    # A schema-v1 file has no signature columns; it still
                    # deserves a listing (replay would discard it, but
                    # inspection must not).
                    rows = view.rows(
                        "SELECT lhs, rhs, '', '', 'decided', doc "
                        "FROM witnesses ORDER BY rowid"
                    )
                decoded = (record for record in map(_decode, rows) if record)
                for record in islice(decoded, limit):
                    yield cls._entry_dict(record)

        return stats, _rows()

    def reload(self) -> None:
        """Drop and rebuild the in-memory index from serialized docs."""
        with self._lock:
            self._reload_locked()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._records),
                "lhs_keys": len(self._by_lhs),
                "rhs_keys": len(self._by_rhs),
                "signature_keys": len(self._by_signature),
                "max_entries": self.max_entries,
                "scan_limit": self.scan_limit,
                "replay_budget": self.replay_budget,
                "persistent": self.persistent,
                "generation": self._generation,
                "recoveries": self.recoveries,
                "transient_errors": self.transient_errors,
                "skipped_rows": self.skipped_rows,
                "replay_errors": self.replay_errors,
            }

    def clear(self) -> None:
        """Forget every witness (memory and disk)."""
        with self._lock:
            self._records = OrderedDict()
            self._by_lhs = {}
            self._by_rhs = {}
            self._by_signature = {}
            self._store.write(("DELETE FROM witnesses", [()]))

    def close(self) -> None:
        with self._lock:
            unregister_cache(self._registry_key)
            self._store.close()

    def __enter__(self) -> "WitnessStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
