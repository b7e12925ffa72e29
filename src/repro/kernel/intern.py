"""The kernel's symbol table: dense integer ids for predicates and terms.

Every hot loop in the kernel — candidate matching in
:class:`~repro.kernel.search.HomSearch`, pivot matching in
:func:`~repro.kernel.delta.delta_triggers`, index maintenance in
:class:`~repro.kernel.instance.WorkingInstance` — used to compare
:class:`~repro.core.terms.Term` dataclasses, which means string compares
behind dataclass ``__eq__`` and tuple hashing behind every dict probe.
This module interns predicates and terms into dense non-negative ints so
those loops compare machine ints instead, and so instances can store
facts as flat tuples of ints.

One process-wide table (:data:`INTERN`) is shared by every instance,
compiled search, and plan: ids are only meaningful relative to the table
that minted them, and sharing is what lets a compiled body be matched
against any target without translation.

Invalidation contract
---------------------
``clear()`` (registered with :func:`repro.clear_caches`) resets the maps
and bumps :attr:`InternTable.generation`.  Everything that stores interned
ids — working instances, frozen-view memos, compiled searches, cached
plans — records the generation it was built under and lazily rebuilds
when it observes a newer one, so clearing any subset of the kernel caches
can never make stale ids alias fresh ones.

Ids are *never* used for ordering anything user-visible: deterministic
enumeration order always comes from seq order / the frozen instance's
sorted order, and planner tie-breaks use atom string keys.  Interning
order (and therefore the ids themselves) may differ between processes
without affecting any result.
"""

from __future__ import annotations

from threading import RLock
from typing import Dict, List, Tuple

from ..core.terms import Term
from ..engine.registry import register_cache


class InternTable:
    """A bidirectional predicate/term ↔ dense-int mapping."""

    __slots__ = (
        "_term_ids",
        "_terms",
        "_pred_ids",
        "_preds",
        "generation",
        "_lock",
    )

    def __init__(self) -> None:
        self._term_ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._pred_ids: Dict[str, int] = {}
        self._preds: List[str] = []
        self.generation = 0
        self._lock = RLock()

    # -- terms -----------------------------------------------------------

    def term_id(self, term: Term) -> int:
        """The dense id of *term*, interning it on first sight."""
        tid = self._term_ids.get(term)
        if tid is not None:
            return tid
        with self._lock:
            tid = self._term_ids.get(term)
            if tid is None:
                tid = len(self._terms)
                self._terms.append(term)
                self._term_ids[term] = tid
            return tid

    def term_ids(self, terms: Tuple[Term, ...]) -> Tuple[int, ...]:
        """Intern a tuple of terms (one fact / one atom's args)."""
        get = self._term_ids.get
        out = []
        for t in terms:
            tid = get(t)
            out.append(self.term_id(t) if tid is None else tid)
        return tuple(out)

    def term(self, tid: int) -> Term:
        """The term behind a dense id."""
        return self._terms[tid]

    # -- predicates ------------------------------------------------------

    def pred_id(self, predicate: str) -> int:
        """The dense id of a predicate name, interning on first sight."""
        pid = self._pred_ids.get(predicate)
        if pid is not None:
            return pid
        with self._lock:
            pid = self._pred_ids.get(predicate)
            if pid is None:
                pid = len(self._preds)
                self._preds.append(predicate)
                self._pred_ids[predicate] = pid
            return pid

    def pred(self, pid: int) -> str:
        """The predicate name behind a dense id."""
        return self._preds[pid]

    # -- lifecycle -------------------------------------------------------

    def sizes(self) -> Dict[str, int]:
        """Current table sizes (for ``kernel_snapshot`` / ``/metrics``)."""
        return {"terms": len(self._terms), "predicates": len(self._preds)}

    def clear(self) -> None:
        """Reset the table and advance the generation.

        Holders of interned ids (instances, views, compiled searches)
        compare their recorded generation against :attr:`generation` and
        rebuild lazily, so a clear can never cause stale ids to alias.
        """
        with self._lock:
            self._term_ids = {}
            self._terms = []
            self._pred_ids = {}
            self._preds = []
            self.generation += 1

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return (
            f"InternTable({len(self._terms)} terms, "
            f"{len(self._preds)} predicates, gen {self.generation})"
        )


#: The process-wide table every kernel structure shares.
INTERN = InternTable()

register_cache("kernel.intern", INTERN.clear)
