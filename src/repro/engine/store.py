"""The durable store under the engine's three tiers: one sqlite file each.

The result cache (:mod:`repro.engine.cache`), the equivalence catalog
(:mod:`repro.engine.catalog`) and the witness store
(:mod:`repro.engine.witness_store`) each keep their facts in a sqlite
file of their own.  :class:`SqliteStore` owns that file; a tier brings
only its table DDL, its schema stamp and its in-memory logic.  The
contract (DESIGN.md, "The durable store"):

* **Connection.**  WAL mode, so several processes read and write one
  file, and a busy timeout (:data:`BUSY_TIMEOUT_MS`), so a commit waits
  on a lock instead of failing at once.
* **Stamps.**  A ``meta`` table holds ``schema_version`` and
  ``canon_version``.  A store whose stamps differ speaks a dead dialect
  (a canon bump changes every stored hash): it is discarded and rebuilt,
  never migrated.
* **Whose file.**  A file is deleted only when it is this tier's own: a
  SQLite file (by its 16-byte header) that sqlite reports as damaged, or
  one that holds this tier's table under stale stamps.  Anything else at
  the path — a text file, another tier's store, a database without this
  tier's table — stays byte-for-byte unchanged; the tier runs memory-only
  and logs one warning that names the path.
* **Degrade, never crash.**  Each write is one best-effort transaction.
  An ``OperationalError`` (a lock held too long, a full disk) rolls it
  back and counts ``transient_errors``; the file stays, since other
  processes may be using it.  Any other sqlite error means damage: the
  file is discarded and rebuilt, and ``recoveries`` counts it.  Reads
  return nothing when they fail.
* **Inspection.**  :class:`ReadOnlyStore` opens a file read-only: it
  never creates, stamps or discards anything (``repro witnesses`` and
  ``repro catalog`` go through it).

``SqliteStore(None, ...)`` is the memory-only store: not persistent,
reads return nothing and writes do nothing, so a tier needs no second
code path for "no file".  This is the only module that imports
:mod:`sqlite3`.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import quote

from .canon import CANON_VERSION

#: How long a connection waits on a locked database before giving up.
#: Module-level so tests can shrink it without a 5 s stall.
BUSY_TIMEOUT_MS = 5_000

#: The first 16 bytes of every SQLite database file.
SQLITE_HEADER = b"SQLite format 3\x00"

_META_DDL = "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"

#: One write statement and the parameter rows it runs over.
Statement = Tuple[str, Sequence[tuple]]


class StoreError(ValueError):
    """A file that cannot be read as the store it was asked to be."""


def _stamps_for(schema_version: str) -> Dict[str, str]:
    """The ``meta`` stamps a current store of this schema carries."""
    return {"schema_version": schema_version, "canon_version": CANON_VERSION}


def _header(path: Path) -> Optional[bytes]:
    """The first 16 bytes at *path*, or ``None`` when nothing is there."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(SQLITE_HEADER))
    except FileNotFoundError:
        return None


class SqliteStore:
    """One tier's sqlite file, opened under the store contract.

    *ddl* creates the tier's tables (``CREATE ... IF NOT EXISTS``);
    *table* is the one that marks a database as this tier's store;
    *schema_version* is the tier's layout stamp.  ``path=None`` gives the
    memory-only store.
    """

    def __init__(
        self,
        path: Optional[str],
        ddl: Sequence[str],
        *,
        table: str,
        schema_version: str,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self._ddl = (_META_DDL, *ddl)
        self._table = table
        self._stamps = _stamps_for(schema_version)
        self.recoveries = 0
        self.transient_errors = 0
        self._conn: Optional[sqlite3.Connection] = None
        if self.path is not None:
            self._open()

    @property
    def persistent(self) -> bool:
        """Whether writes currently reach the file."""
        return self._conn is not None

    # -- opening ----------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), check_same_thread=False)
        # The timeout comes first: every later statement may meet a lock.
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_MS)}")
        return conn

    def _create(self, conn: sqlite3.Connection) -> None:
        """WAL mode, the tables and the stamps, in one transaction (a
        concurrent opener sees either no tables or all of them)."""
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("BEGIN IMMEDIATE")
        for statement in self._ddl:
            conn.execute(statement)
        conn.executemany(
            "INSERT OR IGNORE INTO meta VALUES (?, ?)",
            sorted(self._stamps.items()),
        )
        conn.commit()

    def _open(self) -> None:
        """Open, adopt, rebuild or refuse the file at ``path``; never raises."""
        assert self.path is not None
        conn: Optional[sqlite3.Connection] = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            header = _header(self.path)
            if header and header != SQLITE_HEADER:
                self._refuse("it is not a SQLite database")
                return
            conn = self._connect()
            # Only reads until the file is known to be ours: even the WAL
            # pragma rewrites the header of someone else's database.
            names = {
                name for (name,) in conn.execute("SELECT name FROM sqlite_master")
            }
            if names and self._table not in names:
                conn.close()
                self._refuse(f"the database holds no {self._table!r} table")
                return
            stamps: Dict[str, str] = {}
            if "meta" in names:
                stamps = dict(conn.execute("SELECT key, value FROM meta"))
            if stamps and stamps != self._stamps:
                conn.close()
                conn = None
                self._rebuild()
                return
            self._create(conn)
            self._conn = conn
        except sqlite3.OperationalError:
            # Locked, busy or unopenable: run memory-only for now, but
            # leave the shared file alone.
            self.transient_errors += 1
            self._close(conn)
        except sqlite3.Error:
            # A SQLite header over pages sqlite cannot read: damage.
            self._close(conn)
            self._rebuild()
        except OSError as exc:
            self._close(conn)
            self._refuse(f"it cannot be opened ({exc})")

    def _refuse(self, reason: str) -> None:
        # Imported on this rare path only: at module level, ``logging``
        # and its imports would load into every process using the engine.
        import logging

        logging.getLogger("repro.engine.store").warning(
            "%s: left unchanged because %s; running memory-only",
            self.path,
            reason,
        )

    def _rebuild(self) -> None:
        """Discard this tier's own file and start it afresh; give up the
        disk when even that fails."""
        self._close(self._conn)
        self._conn = None
        self.recoveries += 1
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass
        conn: Optional[sqlite3.Connection] = None
        try:
            conn = self._connect()
            self._create(conn)
            self._conn = conn
        except (sqlite3.Error, OSError):
            self._close(conn)

    @staticmethod
    def _close(conn: Optional[sqlite3.Connection]) -> None:
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    # -- reads and writes -------------------------------------------------

    def _failed(self, exc: sqlite3.Error) -> None:
        if isinstance(exc, sqlite3.OperationalError):
            self.transient_errors += 1
            try:
                self._conn.rollback()  # type: ignore[union-attr]
            except sqlite3.Error:
                pass
        else:
            self._rebuild()

    def read(self, sql: str, params: tuple = ()) -> List[tuple]:
        """Every row *sql* selects; ``[]`` without a file or on failure."""
        if self._conn is None:
            return []
        try:
            return self._conn.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            self._failed(exc)
            return []

    def write(self, *statements: Statement) -> None:
        """Run each ``(sql, rows)`` statement in one transaction, best
        effort: a failure rolls the whole transaction back; see the
        module docstring for what each kind of failure costs."""
        if self._conn is None:
            return
        try:
            for sql, rows in statements:
                self._conn.executemany(sql, rows)
            self._conn.commit()
        except sqlite3.Error as exc:
            self._failed(exc)

    def close(self) -> None:
        """Release the file; the store is memory-only from here on."""
        self._close(self._conn)
        self._conn = None


class StoreBacked:
    """What every tier reports of its :class:`SqliteStore` (``_store``)."""

    _store: SqliteStore

    @property
    def persistent(self) -> bool:
        return self._store.persistent

    @property
    def recoveries(self) -> int:
        return self._store.recoveries

    @property
    def transient_errors(self) -> int:
        return self._store.transient_errors


class ReadOnlyStore:
    """A store file opened for inspection: nothing is created, stamped,
    rebuilt or deleted, whatever the file holds.

    The URI is built from the quoted absolute path, so a ``#`` or ``?``
    in a file name is part of the name.  Raises :class:`StoreError` when
    the file is not a readable store (no ``meta`` table, not SQLite).
    """

    def __init__(self, path: str) -> None:
        uri = f"file:{quote(os.path.abspath(path))}?mode=ro"
        try:
            self._conn = sqlite3.connect(uri, uri=True, check_same_thread=False)
        except sqlite3.Error as exc:
            raise StoreError(str(exc)) from None
        try:
            self.stamps: Dict[str, str] = dict(
                self._conn.execute("SELECT key, value FROM meta")
            )
        except sqlite3.Error as exc:
            self.close()
            raise StoreError(str(exc)) from None

    def stamp_stats(self, schema_version: str) -> Dict[str, Any]:
        """The file's stamps, and whether they are ``current`` — whether
        a writable open would keep the file rather than rebuild it."""
        return {
            "schema_version": self.stamps.get("schema_version", ""),
            "canon_version": self.stamps.get("canon_version", ""),
            "current": self.stamps == _stamps_for(schema_version),
        }

    def rows(self, sql: str) -> Iterator[tuple]:
        """The rows *sql* selects, streamed; sqlite errors, now or while
        streaming, become :class:`StoreError`."""
        try:
            cursor = self._conn.execute(sql)
        except sqlite3.Error as exc:
            raise StoreError(str(exc)) from None
        return self._stream(cursor)

    @staticmethod
    def _stream(cursor: sqlite3.Cursor) -> Iterator[tuple]:
        try:
            for row in cursor:
                yield row
        except sqlite3.Error as exc:
            raise StoreError(str(exc)) from None

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:
            pass

    def __enter__(self) -> "ReadOnlyStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
