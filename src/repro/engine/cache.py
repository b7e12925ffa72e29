"""The engine's result store: an in-memory LRU over one sqlite file.

Design (see DESIGN.md, "Batch engine" and section 8):

* **Keys** are canonical-content strings built by the jobs in
  :mod:`repro.engine.jobs` from the hashes of :mod:`repro.engine.canon`
  plus every procedure parameter that can change the answer (budgets,
  step limits).  α-equivalent inputs therefore hit the same row.
* **Values** are pickled library objects (``ContainmentResult``,
  ``RewritingResult``, classification outcomes) — everything the library
  returns is a frozen dataclass over hashable cores, so pickling is safe
  and round-trips exactly.
* **Disk layer**: ``<cache_dir>/repro-cache.sqlite``, one ``results``
  table under the durable-store contract of :mod:`repro.engine.store`
  (WAL, version stamps, degrade-never-crash).  ``cache_dir=None`` keeps
  results in memory only.  A payload that fails to unpickle costs one
  miss and its row.
* The in-memory LRU fronts the disk store so warm-batch lookups never
  touch sqlite; it registers with :mod:`repro.engine.registry` so
  ``repro.clear_caches()`` empties it.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict
from threading import RLock
from typing import Any, Optional, Tuple

from . import registry
from .metrics import MetricsRegistry
from .store import SqliteStore, StoreBacked

#: Bump when the on-disk layout changes; old stores are discarded on open.
SCHEMA_VERSION = "1"

_DB_NAME = "repro-cache.sqlite"

_DDL = (
    "CREATE TABLE IF NOT EXISTS results "
    "(key TEXT PRIMARY KEY, payload BLOB, created REAL)",
)


class ResultCache(StoreBacked):
    """A two-level (LRU memory, sqlite disk) store for results.

    ``cache_dir=None`` gives a memory-only cache.  All operations are
    total: lookups return ``(found, value)`` and failures of the disk
    layer only ever cost performance, never correctness.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        memory_size: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._lock = RLock()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._memory_size = max(1, memory_size)
        self.metrics = metrics or MetricsRegistry()
        self._store = SqliteStore(
            os.path.join(cache_dir, _DB_NAME) if cache_dir is not None else None,
            _DDL,
            table="results",
            schema_version=SCHEMA_VERSION,
        )
        registry.register_instance_cache(
            "engine.result_cache", self, "clear_memory"
        )

    # -- public API ------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """Look *key* up; returns ``(found, value)``."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.metrics.counter("cache.memory_hits").inc()
                return True, self._memory[key]
            rows = self._store.read(
                "SELECT payload FROM results WHERE key = ?", (key,)
            )
            if rows:
                try:
                    value = pickle.loads(rows[0][0])
                except Exception:
                    # A payload we cannot decode is useless to every
                    # process — drop the entry, serve a miss.
                    self._store.write(
                        ("DELETE FROM results WHERE key = ?", [(key,)])
                    )
                else:
                    self._remember(key, value)
                    self.metrics.counter("cache.disk_hits").inc()
                    return True, value
            self.metrics.counter("cache.misses").inc()
            return False, None

    def put(self, key: str, value: Any) -> None:
        """Store *value* under *key* in both layers (best effort on disk)."""
        with self._lock:
            self._remember(key, value)
            if not self._store.persistent:
                return
            try:
                payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            except Exception:
                return  # unpicklable values live in memory only
            self._write_payload(key, payload)

    def clear_memory(self) -> None:
        """Empty the in-memory layer (the disk layer persists)."""
        with self._lock:
            self._memory.clear()

    def clear(self) -> None:
        """Empty both layers."""
        with self._lock:
            self._memory.clear()
            self._store.write(("DELETE FROM results", [()]))

    def stats(self) -> dict:
        """Hit/miss counters plus sizes, as plain data."""
        with self._lock:
            rows = self._store.read("SELECT COUNT(*) FROM results")
            snap = self.metrics.snapshot()
            memory_hits = snap.get("cache.memory_hits", 0)
            disk_hits = snap.get("cache.disk_hits", 0)
            misses = snap.get("cache.misses", 0)
            lookups = memory_hits + disk_hits + misses
            return {
                "backend": "memory" if self._store.path is None else "sqlite",
                "memory_entries": len(self._memory),
                "disk_entries": rows[0][0] if rows else 0,
                "memory_hits": memory_hits,
                "disk_hits": disk_hits,
                "misses": misses,
                "hit_rate": (
                    (memory_hits + disk_hits) / lookups if lookups else 0.0
                ),
                "persistent": self.persistent,
                "recoveries": self.recoveries,
                "transient_errors": self.transient_errors,
            }

    def close(self) -> None:
        with self._lock:
            self._store.close()

    # -- internals -------------------------------------------------------

    def _write_payload(self, key: str, payload: bytes) -> None:
        self._store.write(
            (
                "INSERT OR REPLACE INTO results VALUES (?, ?, ?)",
                [(key, payload, time.time())],
            )
        )

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_size:
            self._memory.popitem(last=False)
