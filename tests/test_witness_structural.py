"""The structural counterexample index, proven sound by differential fire.

Structural (subsumption-based) witness replay is the first feature whose
soundness rests on a meta-theorem rather than a hash equality: a stored
witness ``(D, c̄)`` for ``q ⊄ q'`` refutes a *different* pair ``(p1, p2)``
iff ``c̄ ∈ p1(D)`` (membership — sound even from an under-approximating
evaluation) and ``c̄ ∉ p2(D)`` *exactly*.  This suite is the harness the
index ships inside:

* a differential parity sweep — replayed verdicts vs the procedure's own
  verdicts over perturbed-pair draws in every fragment, SIGALRM-capped
  per case like ``test_differential.py``, zero disagreements tolerated;
* hypothesis property tests that replay only ever fires when the two
  fresh hom-checks confirm the stored witness refutes the candidate —
  even against adversarially planted (lying) store rows;
* regression pins extending PR 8's: UNKNOWNs never enter the signature
  index, and a schema-version-mismatched store degrades to miss without
  attempting a structural replay;
* the CLI: structural replay through ``repro contains
  --witness-store`` and the streaming ``repro witnesses --limit``
  listing.
"""

import contextlib
import itertools
import json
import random
import signal
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.containment.dispatch import contains
from repro.containment.result import Verdict, Witness
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.parser import parse_omq
from repro.core.terms import Constant
from repro.engine import BatchEngine, ContainmentJob
from repro.engine.canon import hash_omq
from repro.engine.metrics import MetricsRegistry
from repro.engine.witness_store import WitnessStore, omq_signature
from repro.evaluation import evaluate_omq
from repro.generators.random_omqs import (
    FRAGMENTS,
    PERTURBATIONS,
    perturb_pair,
    perturbed_pair_family,
    random_omq_pair,
)
from repro.kernel import instance_signature

#: Per-case wall-clock cap (SIGALRM); overruns are skipped, not failed.
CASE_TIMEOUT_S = 5.0

#: Budgets small enough to keep 5 fragments × draws cheap; draws the
#: procedures cannot settle within them come back UNKNOWN and are skipped.
BUDGETS = {"rewriting_budget": 2_000, "chase_max_steps": 5_000}


class _CaseTimeout(Exception):
    pass


@contextlib.contextmanager
def case_deadline(seconds):
    """Raise :class:`_CaseTimeout` in the main thread after *seconds*."""
    if not hasattr(signal, "setitimer"):  # pragma: no cover - POSIX CI
        yield
        return

    def _alarm(signum, frame):
        raise _CaseTimeout()

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _path_omq(body: str) -> "object":
    return parse_omq(f"schema: E/2\nquery: q() :- {body}\n")


SHORT = "E(x, y), E(y, z)"
LONG = "E(x, y), E(y, z), E(z, w)"
#: Redundant-atom perturbations: equivalent queries, different canonical
#: hashes, same signature — neither side hash-matches the base pair.
P_SHORT = "E(x, y), E(y, z), E(u, v)"
P_LONG = "E(x, y), E(y, z), E(z, w), E(u, v)"


def _witness_refutes(q1, q2, witness) -> bool:
    """The ground-truth oracle: does (D, c̄) certify ``q1 ⊄ q2``?

    Generous budgets; requires an *exact* negative on the RHS — exactly
    the two facts structural replay claims to have established.
    """
    lhs = evaluate_omq(q1, witness.database)
    if witness.answer not in lhs.answers:
        return False
    rhs = evaluate_omq(q2, witness.database)
    return rhs.exact and witness.answer not in rhs.answers


class TestSignatureKeys:
    def test_omq_signature_is_canonical(self):
        short, pshort = _path_omq(SHORT), _path_omq(P_SHORT)
        assert omq_signature(short) == "E/2"
        # Redundant atoms and α-renamings do not move the key…
        assert omq_signature(pshort) == omq_signature(short)
        # …but the canonical hash does move for the redundant atom.
        assert hash_omq(pshort) != hash_omq(short)
        assert omq_signature(None) == ""

    def test_kernel_instance_signature(self):
        db = Instance.of(
            [
                Atom("E", (Constant("a"), Constant("b"))),
                Atom("P", (Constant("a"),)),
            ]
        )
        assert instance_signature(db) == frozenset({("E", 2), ("P", 1)})

    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_perturbation_labels_match_measurements(self, fragment):
        rng = random.Random(20260808)
        _, variants = perturbed_pair_family(fragment, rng, n_rules=2)
        by_kind = {v.kind: v for v in variants}
        assert set(by_kind) == set(PERTURBATIONS)
        # Hash-invariant spellings: reorder and α-rename.
        assert by_kind["atom_reorder"].hash_preserved == (True, True)
        assert by_kind["variable_rename"].hash_preserved == (True, True)
        # The structural-replay input: signatures survive a redundant atom.
        assert by_kind["redundant_atom"].signature_preserved == (True, True)
        # A predicate rename moves exactly one side's signature key.
        assert by_kind["predicate_rename"].signature_preserved != (
            True,
            True,
        )
        assert not by_kind["predicate_rename"].verdict_preserved


class TestStructuralReplay:
    def _primed_store(self):
        """A store holding the (short ⊄ long) witness, signature-keyed."""
        short, long = _path_omq(SHORT), _path_omq(LONG)
        verdict = contains(short, long)
        assert verdict.verdict is Verdict.NOT_CONTAINED
        metrics = MetricsRegistry()
        store = WitnessStore(metrics=metrics)
        store.record(
            hash_omq(short),
            hash_omq(long),
            verdict.witness,
            q1=short,
            q2=long,
        )
        return store, metrics

    def test_structural_hit_on_non_hash_equal_pair(self):
        store, metrics = self._primed_store()
        job = ContainmentJob(_path_omq(P_SHORT), _path_omq(P_LONG))
        result = store.replay(job)
        assert result is not None
        assert result.verdict is Verdict.NOT_CONTAINED
        assert result.method == "witness-replay"
        assert "structural" in result.detail
        snap = metrics.snapshot()
        assert snap["engine.witness.structural.attempts"] == 1
        assert snap["engine.witness.structural.hits"] == 1
        assert snap.get("engine.witness.exact_hits", 0) == 0
        # The hit was re-recorded under the candidate pair: exact now.
        again = store.replay(job)
        assert again is not None and "exact" in again.detail
        assert metrics.snapshot()["engine.witness.exact_hits"] == 1
        entry = [e for e in store.entries() if e["origin"] != "decided"]
        assert entry and entry[0]["origin"] == "structural-replay"
        store.close()

    def test_refuted_replay_degrades_to_miss(self):
        """The contained direction shares the signature pair but the
        fresh LHS hom-check disconfirms — replay must refuse."""
        store, metrics = self._primed_store()
        job = ContainmentJob(_path_omq(LONG), _path_omq(SHORT))
        assert store.replay(job) is None
        snap = metrics.snapshot()
        assert snap["engine.witness.structural.attempts"] == 1
        assert snap["engine.witness.structural.refuted_replays"] == 1
        assert snap.get("engine.witness.structural.hits", 0) == 0
        store.close()

    def test_blown_replay_budget_degrades_to_miss(self):
        """A replay_budget the chase cannot finish under makes the RHS
        evaluation inexact, which must read as a miss, not a refutation
        taken on faith."""
        omq_text = (
            "schema: E/2\nrules:\n    E(x, y) -> P(x, y)\n"
            "query: q() :- {body}\n"
        )
        p2 = ", ".join(f"P(v{i}, v{i+1})" for i in range(2))
        p3 = ", ".join(f"P(v{i}, v{i+1})" for i in range(3))
        short = parse_omq(omq_text.format(body=p2))
        long = parse_omq(omq_text.format(body=p3))
        verdict = contains(short, long)
        assert verdict.verdict is Verdict.NOT_CONTAINED
        metrics = MetricsRegistry()
        store = WitnessStore(metrics=metrics, replay_budget=1)
        store.record(
            hash_omq(short), hash_omq(long), verdict.witness,
            q1=short, q2=long,
        )
        pshort = parse_omq(omq_text.format(body=p2 + ", P(u, v)"))
        plong = parse_omq(omq_text.format(body=p3 + ", P(u, v)"))
        assert store.replay(ContainmentJob(pshort, plong)) is None
        snap = metrics.snapshot()
        assert snap["engine.witness.structural.attempts"] >= 1
        assert snap.get("engine.witness.structural.hits", 0) == 0
        store.close()

    def test_engine_replays_structurally_end_to_end(self, tmp_path):
        path = str(tmp_path / "w.sqlite")
        short, long = _path_omq(SHORT), _path_omq(LONG)
        with BatchEngine(witness_store=path) as cold:
            assert (
                cold.contains(short, long).value.verdict
                is Verdict.NOT_CONTAINED
            )
        pshort, plong = _path_omq(P_SHORT), _path_omq(P_LONG)
        with BatchEngine(witness_store=path) as warm:
            result = warm.contains(pshort, plong)
            assert result.value.verdict is Verdict.NOT_CONTAINED
            assert result.value.method == "witness-replay"
            snap = warm.stats()["metrics"]
            assert snap["engine.witness.structural.hits"] == 1
            assert snap.get("engine.witness.exact_hits", 0) == 0
            assert snap.get("engine.containment.runs", 0) == 0


class TestNecessaryTest:
    """A candidate whose witness cannot answer the job's Q1 — an answer
    of the wrong arity, or a database from whose predicates Σ1 derives
    no disjunct of Q1 — is refuted before any evaluation."""

    SCHEMA = "schema: E/2, F/2\n"

    def _omq(self, text):
        return parse_omq(self.SCHEMA + text)

    def _store_and_job(self, q1_text, rules=""):
        q1 = self._omq(f"{rules}query: {q1_text}\n")
        q2 = self._omq("query: q() :- E(x, y), E(y, z)\n")
        a, b = Constant("a"), Constant("b")
        metrics = MetricsRegistry()
        store = WitnessStore(metrics=metrics)
        # Same RHS hash as the job: only the membership side is checked.
        f_db = Instance.of([Atom("F", (a, b))])
        store.record("stored-lhs", hash_omq(q2), Witness(f_db, ()))
        # Signature-keyed under the job's pair: a structural candidate,
        # with a unary answer to a Boolean Q1.
        store.record(
            "other-lhs",
            "other-rhs",
            Witness(Instance.of([Atom("E", (a, b))]), (a,)),
            lhs_sig=omq_signature(q1),
            rhs_sig=omq_signature(q2),
        )
        return store, metrics, ContainmentJob(q1, q2)

    @staticmethod
    def _count_evaluations(monkeypatch):
        import repro.evaluation

        calls = []
        real = repro.evaluation.evaluate_omq

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.evaluation, "evaluate_omq", counting)
        return calls

    def test_unanswerable_candidates_are_pruned_unevaluated(self, monkeypatch):
        calls = self._count_evaluations(monkeypatch)
        store, metrics, job = self._store_and_job("q() :- E(x, y)")
        assert store.replay(job) is None
        assert calls == []
        snap = metrics.snapshot()
        assert snap["engine.witness.pruned"] == 2
        assert snap["engine.witness.replays"] == 2
        assert snap["engine.witness.structural.attempts"] == 1
        # A pruned structural candidate still counts as a refuted replay.
        assert snap["engine.witness.structural.refuted_replays"] == 1
        assert snap["engine.witness.misses"] == 1

    def test_derivable_disjunct_is_still_evaluated(self, monkeypatch):
        calls = self._count_evaluations(monkeypatch)
        # F(x, y) -> E(x, y) makes E derivable from the F-database, so
        # that candidate passes the test, and one membership evaluation
        # (the stored RHS needs none) confirms the hit.
        store, metrics, job = self._store_and_job(
            "q() :- E(x, y)", rules="rules:\n    F(x, y) -> E(x, y)\n"
        )
        result = store.replay(job)
        assert result is not None and result.verdict is Verdict.NOT_CONTAINED
        assert "rhs" in result.detail
        assert len(calls) == 1
        assert metrics.snapshot().get("engine.witness.pruned", 0) == 0


class TestDifferentialParity:
    """Replay-on vs replay-off verdict parity over perturbed-pair draws.

    A structural replay may only strengthen UNKNOWN into NOT_CONTAINED
    (it holds a verified counterexample the budgeted procedure timed out
    before finding); it may never contradict a decided verdict.  Both
    replay outcomes are therefore checked against the replay-off path
    *and* against the witness oracle.
    """

    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_fragment_parity(self, fragment):
        rng = random.Random(20180611 + len(fragment))
        disagreements = []
        structural_hits = 0
        checked = 0
        for _ in range(14):
            if checked >= 4:
                break
            base, variants = perturbed_pair_family(
                fragment, rng, n_rules=2
            )
            try:
                with case_deadline(CASE_TIMEOUT_S):
                    base_verdict = contains(*base, **BUDGETS)
            except Exception:
                continue
            if base_verdict.verdict is not Verdict.NOT_CONTAINED:
                continue
            checked += 1
            store = WitnessStore(metrics=MetricsRegistry())
            store.record(
                hash_omq(base[0]),
                hash_omq(base[1]),
                base_verdict.witness,
                q1=base[0],
                q2=base[1],
            )
            for variant in variants:
                p1, p2 = variant.pair
                job = ContainmentJob(p1, p2, **BUDGETS)
                try:
                    with case_deadline(CASE_TIMEOUT_S):
                        replayed = store.replay(job)
                        off = contains(p1, p2, **BUDGETS)
                except Exception:
                    continue
                if replayed is None:
                    continue
                if "structural" in replayed.detail:
                    structural_hits += 1
                # Parity: replay may never contradict a decided verdict.
                if off.verdict is Verdict.CONTAINED:
                    disagreements.append((fragment, variant.kind, p1, p2))
                # And its witness must verify against the candidate pair.
                if not _witness_refutes(p1, p2, replayed.witness):
                    disagreements.append(
                        (fragment, variant.kind, "unverified", p1, p2)
                    )
            store.close()
        assert not disagreements, disagreements
        assert checked > 0, f"no refuted base pairs drawn for {fragment}"

    def test_verdict_preserving_variants_agree_with_base(self):
        """Spot-check the generator's own labels: a verdict-preserving
        variant of a decided pair decides the same way."""
        rng = random.Random(99)
        agreed = 0
        for _ in range(20):
            if agreed >= 3:
                break
            base, variants = perturbed_pair_family(
                "linear", rng, n_rules=2
            )
            try:
                with case_deadline(CASE_TIMEOUT_S):
                    base_verdict = contains(*base, **BUDGETS)
            except Exception:
                continue
            if base_verdict.verdict is Verdict.UNKNOWN:
                continue
            for variant in variants:
                if not variant.verdict_preserved:
                    continue
                try:
                    with case_deadline(CASE_TIMEOUT_S):
                        v = contains(*variant.pair, **BUDGETS)
                except Exception:
                    continue
                if v.verdict is Verdict.UNKNOWN:
                    continue
                assert v.verdict is base_verdict.verdict, (
                    variant.kind,
                    variant.pair,
                )
            agreed += 1
        assert agreed > 0


def _edges_db(edges):
    return Instance.of(
        Atom("E", (Constant(f"c{a}"), Constant(f"c{b}")))
        for a, b in edges
    )


def _has_path(edges, length):
    """Exhaustive k-hop path check over a tiny edge list."""
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
    frontier = {a for a, _ in edges}
    for _ in range(length):
        frontier = set().union(
            *(adjacency.get(n, set()) for n in frontier)
        ) if frontier else set()
    return bool(frontier)


class TestHypothesisSoundness:
    """Replay only fires when the fresh hom-checks confirm — even when
    the store lies."""

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=0,
            max_size=8,
        )
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_planted_witness_only_replays_if_it_really_refutes(self, edges):
        """Plant an *arbitrary* database as a claimed counterexample to
        ``short ⊆ long`` and replay the perturbed pair: a hit demands
        that the database genuinely has a 2-path and no 3-path; a
        genuine refuter must also be found (the candidate is the only
        signature-compatible row, well inside ``scan_limit``)."""
        short, long = _path_omq(SHORT), _path_omq(LONG)
        pshort, plong = _path_omq(P_SHORT), _path_omq(P_LONG)
        planted = Witness(_edges_db(edges), ())
        store = WitnessStore(metrics=MetricsRegistry())
        store.record(
            hash_omq(short), hash_omq(long), planted, q1=short, q2=long
        )
        result = store.replay(ContainmentJob(pshort, plong))
        really_refutes = (
            bool(edges)
            and _has_path(edges, 2)
            and not _has_path(edges, 3)
        )
        if result is not None:
            assert really_refutes, edges
            assert _witness_refutes(pshort, plong, result.witness)
        else:
            assert not really_refutes, edges
        store.close()

    @given(seed=st.integers(0, 2**16))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_signature_mismatch_is_never_attempted(self, seed):
        """A predicate-renamed candidate shares no signature key with the
        stored pair, so the structural rung must not even attempt it."""
        rng = random.Random(seed)
        base, _ = perturbed_pair_family("linear", rng, n_rules=2)
        renamed = perturb_pair(*base, rng, "predicate_rename")
        metrics = MetricsRegistry()
        store = WitnessStore(metrics=metrics)
        store.record(
            hash_omq(base[0]),
            hash_omq(base[1]),
            Witness(Instance.empty(), ()),
            q1=base[0],
            q2=base[1],
        )
        p1, p2 = renamed.pair
        if (
            hash_omq(p1) == hash_omq(base[0])
            or hash_omq(p2) == hash_omq(base[1])
        ):  # pragma: no cover - rename always moves the renamed side
            store.close()
            return
        store.replay(ContainmentJob(p1, p2))
        assert (
            metrics.snapshot().get("engine.witness.structural.attempts", 0)
            == 0
        )
        store.close()


class TestDegradePins:
    """Satellite 3: PR 8's never-durable pins, extended to the new keying."""

    def test_unknowns_never_enter_the_signature_index(self, tmp_path):
        short, long = _path_omq(SHORT), _path_omq(LONG)
        with BatchEngine(
            witness_store=str(tmp_path / "w.sqlite")
        ) as engine:
            degraded = engine.submit(
                ContainmentJob(short, long), deadline=0.001
            )
            assert degraded.result(timeout=5).error == "deadline"
            job = ContainmentJob(short, long)
            engine.scheduler._note_verdict(job, job.failure_result("boom"))
            stats = engine.stats()["witness_store"]
            assert stats["entries"] == 0
            assert stats["signature_keys"] == 0
            # The degraded UNKNOWNs must not have poisoned replay either.
            assert engine.witness_store.replay(job) is None

    def test_decided_verdicts_are_signature_keyed(self, tmp_path):
        short, long = _path_omq(SHORT), _path_omq(LONG)
        with BatchEngine(
            witness_store=str(tmp_path / "w.sqlite")
        ) as engine:
            engine.contains(short, long)
            stats = engine.stats()["witness_store"]
            assert stats["entries"] == 1
            assert stats["signature_keys"] == 1
            entry = engine.witness_store.entries()[0]
            assert entry["lhs_sig"] == "E/2"
            assert entry["rhs_sig"] == "E/2"
            assert entry["origin"] == "decided"

    def test_schema_mismatch_degrades_to_miss_not_structural(self, tmp_path):
        """A store stamped with a foreign schema version is discarded and
        rebuilt empty (the stamp contract); replay on the rebuilt store
        is an honest miss with zero structural attempts — never a replay
        over unkeyed rows."""
        path = str(tmp_path / "w.sqlite")
        short, long = _path_omq(SHORT), _path_omq(LONG)
        with BatchEngine(witness_store=path) as engine:
            engine.contains(short, long)
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '1' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        metrics = MetricsRegistry()
        with WitnessStore(path, metrics=metrics) as reopened:
            assert reopened.recoveries == 1
            assert len(reopened) == 0
            job = ContainmentJob(_path_omq(P_SHORT), _path_omq(P_LONG))
            assert reopened.replay(job) is None
            snap = metrics.snapshot()
            assert (
                snap.get("engine.witness.structural.attempts", 0) == 0
            )
            assert snap.get("engine.witness.misses", 0) == 1


class TestCLI:
    def _populate(self, tmp_path, pairs) -> str:
        """A store with one decided witness per (short, long) body pair."""
        path = str(tmp_path / "w.sqlite")
        with BatchEngine(witness_store=path) as engine:
            for q1_body, q2_body in pairs:
                result = engine.contains(
                    _path_omq(q1_body), _path_omq(q2_body)
                )
                assert result.value.verdict is Verdict.NOT_CONTAINED
        return path

    def _distinct_pairs(self, n):
        """n distinct NOT_CONTAINED pairs: k-path vs (k+1)-path."""

        def body(k):
            return ", ".join(
                f"E(x{i}, x{i + 1})" for i in range(k)
            )

        return [(body(k), body(k + 1)) for k in range(2, 2 + n)]

    def test_witnesses_limit_streams_a_prefix(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populate(tmp_path, self._distinct_pairs(5))
        assert main(["witnesses", path, "--json", "--limit", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["entries"] == 5
        assert len(doc["witnesses"]) == 2
        assert doc["witnesses"][0]["lhs_sig"] == "E/2"
        assert doc["witnesses"][0]["origin"] == "decided"
        # The text listing notes the rows it withheld.
        assert main(["witnesses", path, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "5 stored witness(es)" in out
        assert "… 3 more" in out

    def test_witnesses_scan_is_read_only_even_on_mismatch(
        self, tmp_path, capsys
    ):
        """Inspection must not trip the discard-and-rebuild contract."""
        from repro.cli import main

        path = self._populate(tmp_path, self._distinct_pairs(1))
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = 'antique' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        assert main(["witnesses", path]) == 0
        out = capsys.readouterr().out
        assert "stale stamps" in out
        # The file survived untouched — stamp still antique.
        conn = sqlite3.connect(path)
        (value,) = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        conn.close()
        assert value == "antique"

    def test_contains_replays_structurally(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "w.sqlite")
        files = {}
        for name, body in (
            ("short", SHORT),
            ("long", LONG),
            ("pshort", P_SHORT),
            ("plong", P_LONG),
        ):
            f = tmp_path / f"{name}.omq"
            f.write_text(f"schema: E/2\nquery: q() :- {body}\n")
            files[name] = str(f)
        base = ["contains", files["short"], files["long"],
                "--witness-store", store, "--json"]
        assert main(base) == 1  # exit 1 = not contained, populates store
        capsys.readouterr()
        # A non-hash-equal spelling replays from the signature index.
        perturbed = ["contains", files["pshort"], files["plong"],
                     "--witness-store", store, "--json"]
        assert main(perturbed) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "witness-replay"
        assert "structural" in doc["detail"]
