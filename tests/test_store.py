"""The durable-store contract, once for all three tiers.

The result cache, the catalog and the witness store each keep one sqlite
file through :mod:`repro.engine.store`.  Every test here runs against
all three tables (``results``, ``members``/``edges``, ``witnesses``):

* stale stamps are discarded; a damaged file is rebuilt;
* a locked database and a full disk cost only misses, never the file;
* two processes writing one file lose no rows and cause no recoveries;
* a file at the path that is not this tier's own store stays
  byte-for-byte unchanged, and the tier runs memory-only;
* the inspection commands read stores read-only, whatever the path.
"""

import hashlib
import json
import logging
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.containment.result import Witness
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant
from repro.engine import store as store_module
from repro.engine.cache import _DB_NAME, ResultCache
from repro.engine.catalog import OMQCatalog
from repro.engine.store import SQLITE_HEADER
from repro.engine.witness_store import WitnessStore

REPO_ROOT = Path(__file__).resolve().parent.parent

_WITNESS = Witness(Instance.of([Atom("P", (Constant("a"),))]), (Constant("a"),))


class CacheTier:
    name = "cache"

    def path(self, tmp_path):
        return tmp_path / "cache" / _DB_NAME

    def open(self, path):
        return ResultCache(str(Path(path).parent))

    def add(self, tier, tag):
        tier.put(tag, {"fact": tag})

    def facts(self, path):
        """The tags stored on disk, read by a fresh tier."""
        tier = self.open(path)
        try:
            rows = tier._store.read("SELECT key FROM results")
            return {key for (key,) in rows}
        finally:
            tier.close()


class CatalogTier:
    name = "catalog"

    def path(self, tmp_path):
        return tmp_path / "catalog.sqlite"

    def open(self, path):
        return OMQCatalog(str(path))

    def add(self, tier, tag):
        tier.note_contained(tag, tag + "'")

    def facts(self, path):
        with OMQCatalog(str(path)) as tier:
            return {src for src, _ in tier._edges}


class WitnessTier:
    name = "witnesses"

    def path(self, tmp_path):
        return tmp_path / "witnesses.sqlite"

    def open(self, path):
        return WitnessStore(str(path))

    def add(self, tier, tag):
        tier.record(tag, tag + "'", _WITNESS)

    def facts(self, path):
        with WitnessStore(str(path)) as tier:
            return {entry["lhs"] for entry in tier.entries()}


TIERS = {tier.name: tier for tier in (CacheTier(), CatalogTier(), WitnessTier())}


@pytest.fixture(params=sorted(TIERS))
def tier(request):
    return TIERS[request.param]


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _stamp(path, key, value):
    conn = sqlite3.connect(str(path))
    conn.execute("UPDATE meta SET value = ? WHERE key = ?", (value, key))
    conn.commit()
    conn.close()


class FullDisk:
    """A connection whose writes fail as they do on a full disk."""

    def __init__(self, conn):
        self._conn = conn

    def executemany(self, *args):
        raise sqlite3.OperationalError("database or disk is full")

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestStoreContract:
    def test_fresh_store_is_stamped_and_persistent(self, tier, tmp_path):
        path = tier.path(tmp_path)
        opened = tier.open(path)
        tier.add(opened, "a")
        assert opened.persistent
        assert (opened.recoveries, opened.transient_errors) == (0, 0)
        opened.close()
        conn = sqlite3.connect(str(path))
        stamps = dict(conn.execute("SELECT key, value FROM meta"))
        mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        conn.close()
        assert set(stamps) == {"schema_version", "canon_version"}
        assert mode == "wal"
        assert tier.facts(path) == {"a"}

    @pytest.mark.parametrize("key", ["schema_version", "canon_version"])
    def test_stale_stamps_are_discarded(self, tier, tmp_path, key):
        path = tier.path(tmp_path)
        opened = tier.open(path)
        tier.add(opened, "old")
        opened.close()
        _stamp(path, key, "0-stale")
        reopened = tier.open(path)
        assert reopened.recoveries == 1
        assert reopened.persistent
        tier.add(reopened, "new")
        reopened.close()
        assert tier.facts(path) == {"new"}

    def test_damaged_file_is_rebuilt(self, tier, tmp_path):
        path = tier.path(tmp_path)
        opened = tier.open(path)
        tier.add(opened, "old")
        opened.close()
        # An intact SQLite header over pages sqlite cannot read.
        path.write_bytes(SQLITE_HEADER + b"\x00garbage, not sqlite\xff" * 64)
        rebuilt = tier.open(path)
        assert rebuilt.recoveries == 1
        assert rebuilt.persistent
        tier.add(rebuilt, "new")
        rebuilt.close()
        assert tier.facts(path) == {"new"}

    def test_locked_database_degrades_without_deletion(
        self, tier, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(store_module, "BUSY_TIMEOUT_MS", 50)
        path = tier.path(tmp_path)
        opened = tier.open(path)
        tier.add(opened, "before")
        locker = sqlite3.connect(str(path))
        locker.execute("BEGIN IMMEDIATE")  # hold the write lock
        try:
            tier.add(opened, "during")  # blocked: a transient error
            assert opened.transient_errors >= 1
            assert opened.recoveries == 0
            assert opened.persistent
            assert path.exists()
        finally:
            locker.rollback()
            locker.close()
        tier.add(opened, "after")  # the same connection works again
        assert opened.recoveries == 0
        opened.close()
        assert tier.facts(path) == {"before", "after"}

    def test_full_disk_costs_only_a_miss(self, tier, tmp_path):
        path = tier.path(tmp_path)
        opened = tier.open(path)
        tier.add(opened, "before")
        store = opened._store
        conn = store._conn
        store._conn = FullDisk(conn)
        try:
            tier.add(opened, "lost")  # must not raise
        finally:
            store._conn = conn
        assert opened.transient_errors == 1
        assert opened.recoveries == 0
        assert opened.persistent
        tier.add(opened, "after")
        opened.close()
        assert tier.facts(path) == {"before", "after"}

    def test_two_processes_lose_no_rows(self, tier, tmp_path):
        path = tier.path(tmp_path)
        script = (
            "import json, sys\n"
            "name, tag, path = sys.argv[1:4]\n"
            "sys.path.insert(0, 'tests')\n"
            "from test_store import TIERS\n"
            "tier = TIERS[name]\n"
            "opened = tier.open(path)\n"
            "for i in range(40):\n"
            "    tier.add(opened, f'{tag}:{i}')\n"
            "print(json.dumps({'recoveries': opened.recoveries,\n"
            "                  'persistent': opened.persistent}))\n"
            "opened.close()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tier.name, tag, str(path)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=REPO_ROOT,
                env={"PYTHONPATH": str(REPO_ROOT / "src")},
            )
            for tag in ("a", "b")
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            reports.append(json.loads(out))
        assert [r["recoveries"] for r in reports] == [0, 0]
        assert all(r["persistent"] for r in reports)
        expected = {f"{tag}:{i}" for tag in "ab" for i in range(40)}
        assert tier.facts(path) == expected


def _foreign_files(tmp_path, tier):
    """Files at a tier's path that are not its own store, by kind."""
    text = tmp_path / "text"
    text.write_text("schema: E/2\nquery: q() :- E(x, y)\n", encoding="utf-8")
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"\x00garbage, not sqlite\xff" * 64)
    other_db = tmp_path / "other.db"
    conn = sqlite3.connect(str(other_db))  # rollback journal, not WAL
    conn.execute("CREATE TABLE notes (body TEXT)")
    conn.execute("INSERT INTO notes VALUES ('keep me')")
    conn.commit()
    conn.close()
    files = {"text": text, "headerless-garbage": garbage, "database": other_db}
    for other in TIERS.values():
        if other.name != tier.name:
            path = other.path(tmp_path / other.name)
            opened = other.open(path)
            other.add(opened, "theirs")
            opened.close()
            files[f"{other.name}-store"] = path
    return files


class TestForeignFiles:
    def test_foreign_file_stays_unchanged(self, tier, tmp_path, caplog):
        for kind, foreign in _foreign_files(tmp_path, tier).items():
            path = tier.path(tmp_path / "at" / kind)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(foreign.read_bytes())
            before = _sha256(path)
            caplog.clear()
            with caplog.at_level(logging.WARNING, "repro.engine.store"):
                opened = tier.open(path)
            assert not opened.persistent, kind
            assert opened.recoveries == 0, kind
            tier.add(opened, "mine")  # still works, in memory only
            opened.close()
            assert _sha256(path) == before, kind
            warnings = [r.getMessage() for r in caplog.records]
            assert len(warnings) == 1 and str(path) in warnings[0], kind


def _write_omq(path, body):
    path.write_text(f"schema: E/2\nquery: q() :- {body}\n", encoding="utf-8")
    return str(path)


class TestForeignFilesCLI:
    """The tier flags and the inspection commands leave other files alone."""

    def test_catalog_command_leaves_an_omq_file_alone(self, tmp_path, capsys):
        mine = _write_omq(tmp_path / "mine.omq", "E(x, y)")
        before = _sha256(mine)
        assert main(["catalog", mine]) == 2
        assert _sha256(mine) == before

    def test_witness_store_flag_leaves_an_input_alone(self, tmp_path, capsys):
        other = _write_omq(tmp_path / "other.omq", "E(x, y)")
        before = _sha256(other)
        main(["contains", other, other, "--witness-store", other])
        assert _sha256(other) == before

    def test_catalog_flag_leaves_a_witness_store_alone(self, tmp_path, capsys):
        a = _write_omq(tmp_path / "a.omq", "E(x, y), E(y, z)")
        b = _write_omq(tmp_path / "b.omq", "E(x, y), E(y, z), E(z, w)")
        store = str(tmp_path / "w.sqlite")
        assert main(["contains", a, b, "--witness-store", store]) == 1
        before = _sha256(store)
        assert main(["contains", b, a, "--catalog", store]) == 0
        assert _sha256(store) == before
        capsys.readouterr()
        assert main(["witnesses", store, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["entries"] == 1

    def test_catalog_command_reads_stale_stamps_read_only(
        self, tmp_path, capsys
    ):
        path = tmp_path / "catalog.sqlite"
        with OMQCatalog(str(path)) as catalog:
            catalog.note_equivalent("a", "b")
        _stamp(path, "canon_version", "0-stale")
        before = _sha256(path)
        assert main(["catalog", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 equivalence group(s)" in out
        assert "stale stamps" in out
        assert _sha256(path) == before

    def test_inspection_reads_paths_with_hash_and_question_mark(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        witnesses = "a#b?c.sqlite"
        with WitnessStore(witnesses) as store:
            store.record("l", "r", _WITNESS)
        catalog = "c?d#e.sqlite"
        with OMQCatalog(catalog) as cat:
            cat.note_equivalent("x", "y")
        assert main(["witnesses", witnesses, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["entries"] == 1
        assert main(["catalog", catalog, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["groups"] == 1
        stray = {p.name for p in tmp_path.iterdir()} - {
            witnesses,
            catalog,
            *(name + suffix for name in (witnesses, catalog)
              for suffix in ("-wal", "-shm")),
        }
        assert not stray, stray
