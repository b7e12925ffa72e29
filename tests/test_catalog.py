"""The cross-session OMQ equivalence catalog (``repro.engine.catalog``).

Covers the union-find/SCC core (including cycles longer than two), the
sqlite persistence contract (reopen, version invalidation, corruption
recovery), the engine integration (catalog short-circuit, rep-based
cache keys, verdict harvesting), and the ``repro catalog`` CLI.
"""

import json
import sqlite3

import pytest

from repro import OMQ, Schema, parse_cq, parse_tgds
from repro.containment.result import Verdict
from repro.engine import BatchEngine, ContainmentJob
from repro.engine.canon import hash_omq
from repro.engine.catalog import CATALOG_SCHEMA_VERSION, OMQCatalog
from repro.engine.store import SQLITE_HEADER


class TestUnionFindCore:
    def test_unmerged_hashes_are_their_own_reps(self):
        cat = OMQCatalog()
        assert cat.rep("h1") == "h1"
        assert not cat.equivalent("h1", "h2")
        assert cat.equivalent("h1", "h1")

    def test_one_direction_does_not_merge(self):
        cat = OMQCatalog()
        assert not cat.note_contained("a", "b")
        assert not cat.equivalent("a", "b")
        assert cat.stats()["edges"] == 1
        assert cat.stats()["groups"] == 0

    def test_cycle_of_two_merges(self):
        cat = OMQCatalog()
        cat.note_contained("b", "a")
        assert cat.note_contained("a", "b")
        assert cat.equivalent("a", "b")
        # Deterministic rep: lexicographically least member.
        assert cat.rep("b") == "a"
        assert cat.groups() == {"a": ("a", "b")}

    def test_cycle_of_three_merges(self):
        """A⊆B, B⊆C, C⊆A — only SCC condensation catches this."""
        cat = OMQCatalog()
        assert not cat.note_contained("a", "b")
        assert not cat.note_contained("b", "c")
        assert cat.note_contained("c", "a")
        assert cat.equivalent("a", "c")
        assert cat.equivalent("b", "c")
        assert cat.rep("c") == "a"
        assert cat.stats()["groups"] == 1
        assert cat.stats()["grouped_hashes"] == 3

    def test_note_equivalent_shortcut(self):
        cat = OMQCatalog()
        assert cat.note_equivalent("x", "y")
        assert cat.equivalent("x", "y")

    def test_groups_merge_transitively(self):
        cat = OMQCatalog()
        cat.note_equivalent("a", "b")
        cat.note_equivalent("c", "d")
        assert cat.stats()["groups"] == 2
        cat.note_equivalent("b", "c")
        assert cat.stats()["groups"] == 1
        assert cat.groups()["a"] == ("a", "b", "c", "d")

    def test_duplicate_edges_are_idempotent(self):
        cat = OMQCatalog()
        cat.note_contained("a", "b")
        cat.note_contained("a", "b")
        assert cat.stats()["edges"] == 1

    def test_clear_forgets_everything(self):
        cat = OMQCatalog()
        cat.note_equivalent("a", "b")
        cat.clear()
        assert not cat.equivalent("a", "b")
        assert cat.stats()["hashes"] == 0


class TestPersistence:
    def test_groups_survive_reopen(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite")
        with OMQCatalog(path) as c1:
            c1.note_equivalent("a", "b")
            c1.note_contained("x", "y")
            assert c1.persistent
        with OMQCatalog(path) as c2:
            assert c2.equivalent("a", "b")
            assert not c2.equivalent("x", "y")
            # The one-directional edge also survived: closing the cycle
            # in the second session merges.
            assert c2.note_contained("y", "x")
            assert c2.equivalent("x", "y")

    def test_cycle_split_across_sessions(self, tmp_path):
        """Each session records one arc of a 3-cycle; the last one merges."""
        path = str(tmp_path / "catalog.sqlite")
        with OMQCatalog(path) as c:
            c.note_contained("a", "b")
        with OMQCatalog(path) as c:
            c.note_contained("b", "c")
        with OMQCatalog(path) as c:
            assert c.note_contained("c", "a")
            assert c.equivalent("a", "c")

    def test_stale_version_is_discarded(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        with OMQCatalog(str(path)) as c1:
            c1.note_equivalent("a", "b")
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE meta SET value = '0-stale' WHERE key = 'canon_version'"
        )
        conn.commit()
        conn.close()
        with OMQCatalog(str(path)) as c2:
            assert c2.recoveries == 1
            assert not c2.equivalent("a", "b")  # dead dialect discarded
            assert c2.persistent

    def test_corrupted_file_is_rebuilt(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        with OMQCatalog(str(path)) as c1:
            c1.note_equivalent("a", "b")
        # Damage behind an intact SQLite header: the catalog's own file.
        path.write_bytes(SQLITE_HEADER + b"\xffnot sqlite\x00" * 32)
        with OMQCatalog(str(path)) as c2:
            assert c2.recoveries == 1
            assert c2.persistent
            c2.note_equivalent("p", "q")
        with OMQCatalog(str(path)) as c3:
            assert c3.equivalent("p", "q")

    def test_memory_only_catalog_is_not_persistent(self):
        cat = OMQCatalog()
        assert not cat.persistent
        assert cat.stats()["persistent"] is False

    def test_schema_version_stamped(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        OMQCatalog(str(path)).close()
        conn = sqlite3.connect(str(path))
        stamps = dict(conn.execute("SELECT key, value FROM meta"))
        conn.close()
        assert stamps["schema_version"] == CATALOG_SCHEMA_VERSION


def _equivalent_pair():
    """Two hash-distinct but semantically equivalent OMQs: the second
    carries an extra tautological rule."""
    schema = Schema.of(E=2)
    query = parse_cq("q(x) :- P(x)")
    sigma1 = tuple(parse_tgds("E(x, y) -> P(x)"))
    sigma2 = tuple(parse_tgds("E(x, y) -> P(x)\nP(x) -> P(x)"))
    q1 = OMQ(schema, sigma1, query, name="Q1")
    q2 = OMQ(schema, sigma2, query, name="Q2")
    assert hash_omq(q1) != hash_omq(q2)
    return q1, q2


class TestEngineIntegration:
    def test_contained_verdicts_feed_the_catalog(self, tmp_path):
        q1, q2 = _equivalent_pair()
        path = str(tmp_path / "catalog.sqlite")
        with BatchEngine(catalog=path) as engine:
            engine.contains(q1, q2)
            engine.contains(q2, q1)
            stats = engine.stats()["catalog"]
            assert stats["merges"] == 1
            assert stats["groups"] == 1

    def test_second_session_short_circuits(self, tmp_path):
        q1, q2 = _equivalent_pair()
        path = str(tmp_path / "catalog.sqlite")
        with BatchEngine(catalog=path) as engine:
            engine.contains(q1, q2)
            engine.contains(q2, q1)
        # Fresh engine, fresh (empty) cache — only the catalog carries over.
        with BatchEngine(catalog=path) as engine:
            result = engine.contains(q1, q2)
            assert result.value.verdict is Verdict.CONTAINED
            assert result.value.method == "catalog-equivalence"
            assert result.cached
            snap = engine.metrics.snapshot()
            assert snap.get("engine.catalog.short_circuits", 0) == 1

    def test_catalog_rewrites_cache_keys_to_reps(self, tmp_path):
        """A cached verdict for Q1 ⊆ Q3 is served for Q2 ⊆ Q3 once
        Q1 ≡ Q2 is in the catalog."""
        q1, q2 = _equivalent_pair()
        q3 = OMQ(
            Schema.of(E=2),
            tuple(parse_tgds("E(x, y) -> P(y)")),
            parse_cq("q(x) :- P(x)"),
            name="Q3",
        )
        path = str(tmp_path / "catalog.sqlite")
        with BatchEngine(catalog=path) as engine:
            engine.contains(q1, q2)
            engine.contains(q2, q1)  # Q1 ≡ Q2 proven
            first = engine.contains(q1, q3)
            assert not first.cached
            second = engine.contains(q2, q3)  # different raw cache key
            assert second.cached
            assert second.value.verdict == first.value.verdict

    def test_catalog_instance_can_be_shared(self):
        cat = OMQCatalog()
        q1, q2 = _equivalent_pair()
        with BatchEngine(catalog=cat) as engine:
            engine.contains(q1, q2)
            engine.contains(q2, q1)
        assert cat.equivalent(hash_omq(q1), hash_omq(q2))

    def test_engine_without_catalog_unchanged(self):
        q1, q2 = _equivalent_pair()
        with BatchEngine() as engine:
            result = engine.contains(q1, q2)
            assert result.value.verdict is Verdict.CONTAINED
            assert "catalog" not in engine.stats()

    def test_unknown_is_never_noted(self, tmp_path):
        """UNKNOWN verdicts must not create catalog facts."""
        diverging = OMQ(
            Schema.of(P=1),
            tuple(parse_tgds("P(x) -> R(x, w)\nR(x, y) -> R(y, z)")),
            parse_cq("q(x) :- R(x, y), R(y, x)"),
            name="Qdiv",
        )
        other = OMQ(
            Schema.of(P=1),
            tuple(parse_tgds("P(x) -> R(x, w)\nR(x, y) -> R(y, z)")),
            parse_cq("q(x) :- R(x, y), R(y, x), R(x, x)"),
            name="Qdiv2",
        )
        path = str(tmp_path / "catalog.sqlite")
        with BatchEngine(catalog=path) as engine:
            result = engine.contains(
                diverging, other, chase_max_steps=5, rewriting_budget=5
            )
            if result.value.verdict is Verdict.UNKNOWN:
                assert engine.stats()["catalog"]["edges"] == 0


class TestCatalogCLI:
    def _populate(self, tmp_path):
        q1, q2 = _equivalent_pair()
        path = str(tmp_path / "catalog.sqlite")
        with BatchEngine(catalog=path) as engine:
            engine.contains(q1, q2)
            engine.contains(q2, q1)
        return path

    def test_inspect_text(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populate(tmp_path)
        code = main(["catalog", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "equivalence group" in out
        assert "2 members" in out

    def test_inspect_json(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populate(tmp_path)
        code = main(["catalog", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["stats"]["groups"] == 1
        (members,) = payload["groups"].values()
        assert len(members) == 2

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["catalog", str(tmp_path / "absent.sqlite")])
        assert code == 2

    def test_batch_accepts_catalog_flag(self, tmp_path, capsys):
        from repro.cli import main

        q = tmp_path / "q.omq"
        q.write_text(
            "schema: E/2\nrules:\n    E(x, y) -> P(x)\n"
            "query: q(x) :- P(x)\n",
            encoding="utf-8",
        )
        manifest = tmp_path / "batch.txt"
        manifest.write_text("contains q.omq q.omq\n", encoding="utf-8")
        catalog_path = str(tmp_path / "catalog.sqlite")
        code = main(
            [
                "batch", str(manifest),
                "--catalog", catalog_path, "--json",
            ]
        )
        capsys.readouterr()
        assert code == 0
