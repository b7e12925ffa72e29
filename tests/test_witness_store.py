"""The cross-session NOT_CONTAINED witness store (``repro.engine.witness_store``).

Covers the store core (record/replay, eviction, persistence stamps,
corruption contract), the engine integration (replay shortcut ahead of
the catalog, verdict harvesting, metrics), the canonical-serialization
fix for colliding null renderings, the deadline-degradation regression
(UNKNOWN must never become durable), the generation-stamped reload
contract, the all-fragment replay parity suite, and the ``repro
witnesses`` CLI.
"""

import json
import random
import sqlite3

import pytest

import repro
from repro.containment.dispatch import contains
from repro.containment.result import Verdict, Witness
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.parser import parse_omq
from repro.core.serialize import witness_from_json, witness_to_json
from repro.core.terms import Constant, Null
from repro.engine import BatchEngine, ContainmentJob
from repro.engine.canon import hash_omq
from repro.engine.store import SQLITE_HEADER
from repro.engine.witness_store import (
    WITNESS_SCHEMA_VERSION,
    WitnessStore,
)
from repro.generators.random_omqs import FRAGMENTS, random_omq_pair
from repro.kernel.intern import INTERN


def _path_omq(length: int) -> "repro.OMQ":
    """A Boolean E-path query of the given length (no rules)."""
    body = ", ".join(f"E(x{i}, x{i + 1})" for i in range(length))
    return parse_omq(f"schema: E/2\nquery: q() :- {body}\n")


def _not_contained_pair():
    """A pair with Q1 ⊄ Q2: a 2-path has no 3-path."""
    return _path_omq(2), _path_omq(3)


def _simple_witness(n: int = 1) -> Witness:
    db = Instance.of(
        Atom("E", (Constant(f"a{i}"), Constant(f"b{i}"))) for i in range(n)
    )
    return Witness(db, ())


class TestStoreCore:
    def test_record_then_exact_replay(self, tmp_path):
        q1, q2 = _not_contained_pair()
        h1, h2 = hash_omq(q1), hash_omq(q2)
        verdict = contains(q1, q2)
        assert verdict.verdict is Verdict.NOT_CONTAINED
        store = WitnessStore(str(tmp_path / "w.sqlite"))
        assert store.record(h1, h2, verdict.witness)
        # Second record of the same pair is a no-op.
        assert not store.record(h1, h2, verdict.witness)
        replayed = store.replay(ContainmentJob(q1, q2))
        assert replayed is not None
        assert replayed.verdict is Verdict.NOT_CONTAINED
        assert replayed.method == "witness-replay"
        assert replayed.witness.database == verdict.witness.database
        store.close()

    def test_contained_pair_never_replays(self, tmp_path):
        q1, q2 = _not_contained_pair()
        store = WitnessStore(str(tmp_path / "w.sqlite"))
        verdict = contains(q1, q2)
        store.record(hash_omq(q1), hash_omq(q2), verdict.witness)
        # The reverse direction (3-path ⊆ 2-path... actually contained)
        # shares neither side's role, so replay must miss, not guess.
        assert store.replay(ContainmentJob(q2, q1)) is None
        store.close()

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "w.sqlite")
        q1, q2 = _not_contained_pair()
        verdict = contains(q1, q2)
        with WitnessStore(path) as store:
            store.record(hash_omq(q1), hash_omq(q2), verdict.witness)
        with WitnessStore(path) as reopened:
            assert len(reopened) == 1
            replayed = reopened.replay(ContainmentJob(q1, q2))
            assert replayed is not None
            assert replayed.verdict is Verdict.NOT_CONTAINED

    def test_eviction_drops_oldest(self, tmp_path):
        store = WitnessStore(str(tmp_path / "w.sqlite"), max_entries=2)
        for i in range(4):
            assert store.record(f"l{i}", f"r{i}", _simple_witness())
        assert len(store) == 2
        stats = store.stats()
        assert stats["entries"] == 2
        assert [e["lhs"] for e in store.entries()] == ["l2", "l3"]
        store.close()
        # Evictions are durable too.
        with WitnessStore(str(tmp_path / "w.sqlite")) as reopened:
            assert [e["lhs"] for e in reopened.entries()] == ["l2", "l3"]

    def test_schema_version_mismatch_discards_file(self, tmp_path):
        path = str(tmp_path / "w.sqlite")
        with WitnessStore(path) as store:
            store.record("a", "b", _simple_witness())
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = 'antique' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        with WitnessStore(path) as reopened:
            assert len(reopened) == 0
            assert reopened.recoveries == 1
            assert reopened.persistent

    def test_corrupted_file_degrades_to_empty_never_crashes(self, tmp_path):
        # Damage behind an intact SQLite header: the store's own file,
        # rebuilt.  (Headerless bytes are somebody else's file and stay
        # untouched; tests/test_store.py covers that case.)
        path = tmp_path / "w.sqlite"
        path.write_bytes(SQLITE_HEADER + b"this is not a sqlite database at all")
        with WitnessStore(str(path)) as store:
            assert store.recoveries == 1
            assert len(store) == 0
            assert store.replay(ContainmentJob(*_not_contained_pair())) is None
            # The recovered file accepts new rows again.
            assert store.record("a", "b", _simple_witness())
            assert store.persistent

    def test_corrupted_rows_are_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "w.sqlite")
        q1, q2 = _not_contained_pair()
        verdict = contains(q1, q2)
        with WitnessStore(path) as store:
            store.record(hash_omq(q1), hash_omq(q2), verdict.witness)
            store.record("other", "pair", _simple_witness())
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE witnesses SET doc = '{not json' WHERE lhs = 'other'"
        )
        conn.commit()
        conn.close()
        with WitnessStore(path) as reopened:
            assert len(reopened) == 1
            assert reopened.skipped_rows == 1
            assert reopened.replay(ContainmentJob(q1, q2)) is not None

    def test_unserializable_witness_is_dropped(self, tmp_path):
        from repro.core.terms import Variable

        bad = Witness(Instance.empty(), (Variable("x"),))
        with WitnessStore(str(tmp_path / "w.sqlite")) as store:
            assert not store.record("a", "b", bad)
            assert len(store) == 0


class TestCanonicalWitnessSerialization:
    """Satellite: colliding null renderings must not scramble listings."""

    def _colliding_witness(self) -> Witness:
        # str(Null(1)) == "_:n1" == str(Constant("_:n1")): sorting atoms
        # by str is ambiguous for exactly this database.
        db = Instance.of(
            [
                Atom("P", (Null(1),)),
                Atom("P", (Constant("_:n1"),)),
                Atom("R", (Null(2), Constant("_:n2"))),
                Atom("R", (Constant("_:n2"), Null(2))),
            ]
        )
        return Witness(db, (Null(1), Constant("_:n1")))

    def test_round_trip_equality_with_colliding_nulls(self):
        w = self._colliding_witness()
        assert witness_from_json(witness_to_json(w)) == w

    def test_listing_order_is_canonical_and_aligned(self):
        w = self._colliding_witness()
        doc = witness_to_json(w)
        # Constants sort before nulls within a predicate band, so the
        # order is fully determined — not an accident of set iteration.
        assert doc["database"] == [
            {"predicate": "P", "args": [{"const": "_:n1"}]},
            {"predicate": "P", "args": [{"null": 1}]},
            {"predicate": "R", "args": [{"const": "_:n2"}, {"null": 2}]},
            {"predicate": "R", "args": [{"null": 2}, {"const": "_:n2"}]},
        ]
        # database_text line i renders database entry i.
        assert len(doc["database_text"]) == len(doc["database"])
        assert doc["database_text"][0] == doc["database_text"][1] == "P(_:n1)"
        assert json.dumps(doc)  # JSON-safe throughout

    def test_null_heavy_round_trip(self):
        rng = random.Random(7)
        atoms = [
            Atom(
                "T",
                (Null(rng.randint(0, 5)), Constant(f"_:n{rng.randint(0, 5)}")),
            )
            for _ in range(20)
        ]
        w = Witness(Instance.of(atoms), (Null(0),))
        assert witness_from_json(witness_to_json(w)) == w
        # Serialization is deterministic across calls.
        assert witness_to_json(w) == witness_to_json(w)


class TestEngineIntegration:
    def test_cold_stores_then_warm_replays(self, tmp_path):
        path = str(tmp_path / "w.sqlite")
        q1, q2 = _not_contained_pair()
        with BatchEngine(witness_store=path) as cold:
            result = cold.contains(q1, q2)
            assert result.value.verdict is Verdict.NOT_CONTAINED
            assert result.value.method != "witness-replay"
            snap = cold.stats()
            assert snap["witness_store"]["entries"] == 1
            assert snap["metrics"]["engine.witness.stored"] == 1
        # A fresh engine with a fresh cache: only the store is shared.
        with BatchEngine(witness_store=path) as warm:
            result = warm.contains(q1, q2)
            assert result.value.verdict is Verdict.NOT_CONTAINED
            assert result.value.method == "witness-replay"
            assert result.value.witness is not None
            assert result.cached
            snap = warm.stats()["metrics"]
            assert snap["engine.witness.hits"] == 1
            assert snap.get("engine.containment.runs", 0) == 0

    def test_alpha_equivalent_spelling_replays(self, tmp_path):
        path = str(tmp_path / "w.sqlite")
        q1, q2 = _not_contained_pair()
        q1_alpha = parse_omq(
            "schema: E/2\nquery: q() :- E(u, v), E(v, w)\n"
        )
        with BatchEngine(witness_store=path) as cold:
            cold.contains(q1, q2)
        with BatchEngine(witness_store=path) as warm:
            result = warm.contains(q1_alpha, q2)
            assert result.value.method == "witness-replay"

    def test_cross_pair_replay_same_lhs(self, tmp_path):
        """A stored witness refutes a *different* RHS with one check."""
        path = str(tmp_path / "w.sqlite")
        q1 = _path_omq(2)
        with BatchEngine(witness_store=path) as cold:
            cold.contains(q1, _path_omq(3))
        with BatchEngine(witness_store=path) as warm:
            result = warm.contains(q1, _path_omq(4))
            assert result.value.verdict is Verdict.NOT_CONTAINED
            assert result.value.method == "witness-replay"
            snap = warm.stats()["metrics"]
            assert snap["engine.witness.replays"] >= 1
            assert snap.get("engine.containment.runs", 0) == 0
            # The cross-pair hit is re-recorded: now it replays exactly.
            assert warm.stats()["witness_store"]["entries"] == 2

    def test_replay_runs_ahead_of_catalog(self, tmp_path):
        q1, q2 = _not_contained_pair()
        store = WitnessStore(str(tmp_path / "w.sqlite"))
        verdict = contains(q1, q2)
        store.record(hash_omq(q1), hash_omq(q2), verdict.witness)
        with BatchEngine(
            catalog=str(tmp_path / "cat.sqlite"), witness_store=store
        ) as engine:
            result = engine.contains(q1, q2)
            assert result.value.method == "witness-replay"
            snap = engine.stats()["metrics"]
            assert snap.get("engine.catalog.short_circuits", 0) == 0

    def test_degraded_deadline_unknown_never_becomes_durable(self, tmp_path):
        """Satellite regression: a deadline-degraded UNKNOWN must not
        poison the cache, the catalog, or the witness store."""
        q1, q2 = _not_contained_pair()
        with BatchEngine(
            cache_dir=str(tmp_path / "cache"),
            catalog=str(tmp_path / "cat.sqlite"),
            witness_store=str(tmp_path / "w.sqlite"),
        ) as engine:
            degraded = engine.submit(ContainmentJob(q1, q2), deadline=0.001)
            result = degraded.result(timeout=5)
            assert result.error == "deadline"
            assert result.value.verdict is Verdict.UNKNOWN
            assert engine.stats()["witness_store"]["entries"] == 0
            assert engine.stats()["catalog"]["edges"] == 0
            # The real run is not served a stale UNKNOWN from any layer.
            real = engine.contains(q1, q2)
            assert real.value.verdict is Verdict.NOT_CONTAINED
            assert engine.stats()["witness_store"]["entries"] == 1
        # And the next session replays the *real* verdict.
        with BatchEngine(
            witness_store=str(tmp_path / "w.sqlite")
        ) as warm:
            replayed = warm.contains(q1, q2)
            assert replayed.value.verdict is Verdict.NOT_CONTAINED

    def test_pool_failure_unknown_not_stored(self, tmp_path):
        q1, q2 = _not_contained_pair()
        job = ContainmentJob(q1, q2)
        with BatchEngine(witness_store=str(tmp_path / "w.sqlite")) as engine:
            # Simulate what a crashed worker produces and feed it through
            # the verdict path: UNKNOWN carries no witness, nothing lands.
            engine.scheduler._note_verdict(job, job.failure_result("boom"))
            assert engine.stats()["witness_store"]["entries"] == 0


class TestInvalidationContract:
    """Satellite: clear_caches()/intern clears rebuild the in-memory index."""

    def test_clear_caches_reloads_and_still_replays(self, tmp_path):
        path = str(tmp_path / "w.sqlite")
        q1, q2 = _not_contained_pair()
        with BatchEngine(witness_store=path) as engine:
            engine.contains(q1, q2)
            before = engine.witness_store.stats()["generation"]
            repro.clear_caches()  # bumps INTERN.generation, reloads index
            after = engine.witness_store.stats()["generation"]
            assert after > before
            assert engine.stats()["witness_store"]["entries"] == 1
            result = engine.contains(q1, q2)
            assert result.value.verdict is Verdict.NOT_CONTAINED

    def test_intern_generation_bump_triggers_lazy_reload(self, tmp_path):
        store = WitnessStore(str(tmp_path / "w.sqlite"))
        q1, q2 = _not_contained_pair()
        verdict = contains(q1, q2)
        store.record(hash_omq(q1), hash_omq(q2), verdict.witness)
        old_record = next(iter(store._records.values()))
        INTERN.clear()
        # The next lookup notices the stale generation and re-parses
        # every witness from its serialized document.
        replayed = store.replay(ContainmentJob(q1, q2))
        assert replayed is not None
        new_record = next(iter(store._records.values()))
        assert new_record is not old_record
        assert new_record.witness == old_record.witness
        assert store.stats()["generation"] == INTERN.generation
        store.close()

    def test_memory_only_store_survives_reload(self):
        store = WitnessStore()  # no path: memory only
        store.record("a", "b", _simple_witness(3))
        store.reload()
        assert len(store) == 1
        assert store.entries()[0]["atoms"] == 3
        store.close()


class TestReplayParity:
    """Satellite: stored-then-replayed witnesses agree with the full
    procedure on every fragment the generators cover."""

    #: Small budgets keep each draw cheap; draws the procedures cannot
    #: settle within them come back UNKNOWN and are skipped.
    BUDGETS = {"rewriting_budget": 2_000, "chase_max_steps": 5_000}

    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_fragment_parity(self, fragment, tmp_path):
        rng = random.Random(20180611)
        disagreements = []
        replayed = 0
        store_path = str(tmp_path / f"{fragment}.sqlite")
        cases = 0
        for _ in range(40):
            if cases >= 4:
                break
            q1, q2, _ = random_omq_pair(
                fragment, rng, mode="independent", n_rules=2
            )
            try:
                full = contains(q1, q2, **self.BUDGETS)
            except Exception:
                continue
            if full.verdict is not Verdict.NOT_CONTAINED:
                continue
            cases += 1
            job = ContainmentJob(q1, q2, **self.BUDGETS)
            with BatchEngine(witness_store=store_path) as cold:
                cold_result = cold.submit(job).result(timeout=60)
                assert cold_result.value.verdict is Verdict.NOT_CONTAINED
            with BatchEngine(witness_store=store_path) as warm:
                warm_result = warm.submit(job).result(timeout=60)
                if warm_result.value.method == "witness-replay":
                    replayed += 1
                if warm_result.value.verdict is not Verdict.NOT_CONTAINED:
                    disagreements.append((q1, q2, warm_result.value))
        assert not disagreements, disagreements
        # Every fragment that produced refutations replayed all of them.
        assert replayed == cases

    def test_replay_with_mismatched_schema_degrades_to_miss(self, tmp_path):
        """A stored witness over a foreign schema must never crash replay."""
        store = WitnessStore(str(tmp_path / "w.sqlite"))
        q1 = _path_omq(2)
        h1 = hash_omq(q1)
        # Hand-plant a witness under q1's LHS hash whose database speaks
        # a different schema: the candidate check raises inside
        # evaluate_omq and must degrade to a miss.
        alien = Witness(
            Instance.of([Atom("Zap", (Constant("a"),))]), ()
        )
        store.record(h1, "bogus-rhs-hash", alien)
        assert store.replay(ContainmentJob(q1, _path_omq(4))) is None
        assert store.replay_errors >= 1
        store.close()


class TestCLI:
    def _populate(self, tmp_path) -> str:
        path = str(tmp_path / "w.sqlite")
        q1, q2 = _not_contained_pair()
        with BatchEngine(witness_store=path) as engine:
            engine.contains(q1, q2)
        return path

    def test_witnesses_listing(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populate(tmp_path)
        assert main(["witnesses", path]) == 0
        out = capsys.readouterr().out
        assert "1 stored witness(es)" in out
        assert "⊄" in out

    def test_witnesses_json(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populate(tmp_path)
        assert main(["witnesses", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["entries"] == 1
        assert len(doc["witnesses"]) == 1
        assert doc["witnesses"][0]["atoms"] >= 1

    def test_witnesses_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["witnesses", str(tmp_path / "nope.sqlite")]) == 2

    def test_contains_flag_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        q1 = tmp_path / "q1.omq"
        q2 = tmp_path / "q2.omq"
        q1.write_text("schema: E/2\nquery: q() :- E(x, y), E(y, z)\n")
        q2.write_text(
            "schema: E/2\nquery: q() :- E(x, y), E(y, z), E(z, w)\n"
        )
        store = str(tmp_path / "w.sqlite")
        assert main(
            ["contains", str(q1), str(q2), "--witness-store", store, "--json"]
        ) == 1  # exit 1 = not contained, by the CLI's verdict contract
        capsys.readouterr()
        assert main(
            ["contains", str(q1), str(q2), "--witness-store", store, "--json"]
        ) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "witness-replay"

    def test_serve_config_passthrough(self, tmp_path):
        from repro.serve.server import ServeConfig

        path = self._populate(tmp_path)
        config = ServeConfig(witness_store=path)
        engine = config.build_engine()
        try:
            assert engine.witness_store is not None
            assert engine.stats()["witness_store"]["entries"] == 1
        finally:
            engine.close()
