"""Cross-session catalog of OMQ groups proven semantically equivalent.

The result cache answers "have I seen *this question* before?"; the
catalog answers the stronger "have I proven *these OMQs interchangeable*
before?".  It records directed containment facts between canonical OMQ
hashes (:func:`repro.engine.canon.hash_omq`) — from EQUIVALENT verdict
pairs, and from any two CONTAINED edges whose reps close a cycle — and
keeps the strongly connected components of that fact graph as
equivalence groups in a union-find.  Each new edge merges the one
component it closes, found by searching only the groups it can reach,
so a note costs the subgraph it explores, not the whole graph.  The
payoff compounds across sessions:

* a containment job whose two sides land in the same group is answered
  instantly (verdict CONTAINED, procedure ``"catalog-equivalence"``)
  without touching cache or pool — even if the original cache rows were
  evicted long ago;
* containment cache keys are built from group *representatives* rather
  than raw hashes (see ``ContainmentJob.catalog_key``), so a cached
  verdict for ``Q1 ⊆ Q2`` is served for every pair drawn from the same
  two groups.

Only *containment* consults the catalog: a containment verdict depends
on the OMQs' semantics alone, so substituting an equivalent query cannot
change it.  Rewriting and classification output depends on the *syntax*
of the rule set (two equivalent OMQs can have different rewritings), so
their keys never go through the catalog.

Soundness note: α-equivalent OMQs already share a canonical hash, so the
catalog's edges are between genuinely distinct spellings whose
equivalence was *proven* by the decision procedures.  A procedure may
answer UNKNOWN for one member of a group and CONTAINED for another;
serving the cached UNKNOWN to an equivalent query loses an answer we
might have found, but never reports a wrong verdict.

Persistence is the durable-store contract of :mod:`repro.engine.store`
(WAL, schema + canon stamps — a canon bump invalidates every hash in the
file — degrade, never crash) over two tables, ``members`` and ``edges``.
Representatives are chosen deterministically (the lexicographically
least hash in the group), so concurrent sessions converge on the same
reps and their rep-based cache keys agree.
"""

from __future__ import annotations

from threading import RLock
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .store import ReadOnlyStore, SqliteStore, StoreBacked

#: Bump when the catalog's sqlite layout changes.
CATALOG_SCHEMA_VERSION = "1"

_DDL = (
    "CREATE TABLE IF NOT EXISTS members (hash TEXT PRIMARY KEY, rep TEXT)",
    "CREATE TABLE IF NOT EXISTS edges "
    "(src TEXT, dst TEXT, PRIMARY KEY (src, dst))",
)


class OMQCatalog(StoreBacked):
    """Persistent union-find over proven-equivalent canonical OMQ hashes.

    ``path=None`` keeps the catalog in memory (still useful within one
    long-lived engine: groups survive cache eviction).  All operations
    are total — storage failures cost durability, never correctness.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._lock = RLock()
        #: hash -> parent hash (union-find forest, path-compressed).
        self._parent: Dict[str, str] = {}
        #: directed CONTAINED facts between *raw* hashes.
        self._edges: Set[Tuple[str, str]] = set()
        #: rep -> the far ends (raw hashes, read through _find) of the
        #: facts that leave / enter its group.
        self._out: Dict[str, Set[str]] = {}
        self._in: Dict[str, Set[str]] = {}
        self.merges = 0
        self._store = SqliteStore(
            path, _DDL, table="members", schema_version=CATALOG_SCHEMA_VERSION
        )
        self._load(
            self._store.read("SELECT hash, rep FROM members"),
            self._store.read("SELECT src, dst FROM edges"),
        )

    def _load(
        self,
        members: Iterable[Tuple[str, str]],
        edges: Iterable[Tuple[str, str]],
    ) -> None:
        for h, rep in members:
            self._parent[h] = rep
            self._parent.setdefault(rep, rep)
        for src, dst in edges:
            self._link(src, dst)

    @classmethod
    def inspect(
        cls, path: str
    ) -> Tuple[Dict[str, object], Dict[str, Tuple[str, ...]]]:
        """Read-only view of a catalog *file*: ``(stats, groups)``.

        The file is never created, stamped or rebuilt, whatever it holds
        (constructing an :class:`OMQCatalog` would rebuild a stale one);
        the stats carry its stamps and whether they are ``current``.
        Raises :class:`~repro.engine.store.StoreError` (a
        :class:`ValueError`) when the file is not a readable catalog.
        """
        with ReadOnlyStore(path) as view:
            members = list(view.rows("SELECT hash, rep FROM members"))
            edges = list(view.rows("SELECT src, dst FROM edges"))
            stamps = view.stamp_stats(CATALOG_SCHEMA_VERSION)
        catalog = cls()
        catalog._load(members, edges)
        stats = catalog.stats()
        keys = ("hashes", "edges", "groups", "grouped_hashes")
        return {**{k: stats[k] for k in keys}, **stamps}, catalog.groups()

    # -- union-find -------------------------------------------------------

    def _find(self, h: str) -> str:
        root = h
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        # Path compression keeps repeated rep() lookups O(1) amortized.
        while self._parent.get(h, h) != root:
            self._parent[h], h = root, self._parent[h]
        return root

    def _link(self, h1: str, h2: str) -> bool:
        """Add the fact ``h1 ⊆ h2``; returns True iff it closed a cycle.

        Every earlier cycle is merged already, so the graph of groups is
        acyclic and the edge closes one only when rep(h2) reaches rep(h1).
        The cycle's groups — those reachable from rep(h2) that reach
        rep(h1), e.g. all three of ``A⊆B, B⊆C, C⊆A`` — merge under the
        lexicographically least rep, so every session converges on the
        same rep for the same group.
        """
        self._edges.add((h1, h2))
        self._parent.setdefault(h1, h1)
        self._parent.setdefault(h2, h2)
        r1, r2 = self._find(h1), self._find(h2)
        if r1 == r2:
            return False
        self._out.setdefault(r1, set()).add(h2)
        self._in.setdefault(r2, set()).add(h1)
        ahead = self._reach(r2, self._out)
        if r1 not in ahead:
            return False
        cycle = self._reach(r1, self._in, within=ahead)
        keep = min(cycle)
        folds = cycle - {keep}
        for fold in folds:
            self._parent[fold] = keep
        for index in (self._out, self._in):
            ends = set().union(*(index.pop(rep, ()) for rep in cycle))
            index[keep] = {h for h in ends if self._find(h) != keep}
        self.merges += len(folds)
        # Rewrite every member of the folded groups, then record the
        # folded hashes themselves.
        self._store.write(
            (
                "UPDATE members SET rep = ? WHERE rep = ?",
                [(keep, fold) for fold in folds],
            ),
            (
                "INSERT OR REPLACE INTO members VALUES (?, ?)",
                [(fold, keep) for fold in folds],
            ),
        )
        return True

    def _reach(
        self,
        start: str,
        adjacency: Dict[str, Set[str]],
        within: Optional[Set[str]] = None,
    ) -> Set[str]:
        """The groups *adjacency* leads to from group *start*, *start*
        included, never leaving *within* when it is given.  A group's
        inner facts are not in *adjacency*, so they cost nothing."""
        seen = {start}
        todo = [start]
        while todo:
            for h in adjacency.get(todo.pop(), ()):
                rep = self._find(h)
                if rep not in seen and (within is None or rep in within):
                    seen.add(rep)
                    todo.append(rep)
        return seen

    # -- public API -------------------------------------------------------

    def rep(self, h: str) -> str:
        """The canonical representative of *h*'s equivalence group
        (*h* itself while unmerged)."""
        with self._lock:
            return self._find(h)

    def equivalent(self, h1: str, h2: str) -> bool:
        """Whether *h1* and *h2* are in the same proven-equivalent group."""
        with self._lock:
            return h1 == h2 or self._find(h1) == self._find(h2)

    def note_contained(self, h1: str, h2: str) -> bool:
        """Record the proven fact ``hash h1 ⊆ hash h2``.

        Returns True iff the new edge closed a cycle and merged groups
        (directly, or through a longer chain of recorded facts).
        """
        with self._lock:
            if h1 == h2 or (h1, h2) in self._edges:
                return False
            self._store.write(
                ("INSERT OR IGNORE INTO edges VALUES (?, ?)", [(h1, h2)]),
                (
                    "INSERT OR IGNORE INTO members VALUES (?, ?)",
                    [(h1, self._find(h1)), (h2, self._find(h2))],
                ),
            )
            return self._link(h1, h2)

    def note_equivalent(self, h1: str, h2: str) -> bool:
        """Record a proven equivalence (both containment directions)."""
        merged = self.note_contained(h1, h2)
        return self.note_contained(h2, h1) or merged

    def groups(self) -> Dict[str, Tuple[str, ...]]:
        """rep -> sorted members, for every non-singleton group."""
        with self._lock:
            by_rep: Dict[str, List[str]] = {}
            for h in self._parent:
                by_rep.setdefault(self._find(h), []).append(h)
            return {
                rep: tuple(sorted(members))
                for rep, members in sorted(by_rep.items())
                if len(members) > 1
            }

    def stats(self) -> dict:
        with self._lock:
            groups = self.groups()
            return {
                "hashes": len(self._parent),
                "edges": len(self._edges),
                "groups": len(groups),
                "grouped_hashes": sum(len(m) for m in groups.values()),
                "merges": self.merges,
                "persistent": self.persistent,
                "recoveries": self.recoveries,
                "transient_errors": self.transient_errors,
            }

    def clear(self) -> None:
        """Forget every fact (memory and disk)."""
        with self._lock:
            for index in (self._parent, self._edges, self._out, self._in):
                index.clear()
            self._store.write(
                ("DELETE FROM members", [()]), ("DELETE FROM edges", [()])
            )

    def close(self) -> None:
        with self._lock:
            self._store.close()

    def __enter__(self) -> "OMQCatalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
