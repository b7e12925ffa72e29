"""Tests for the indexed homomorphism kernel (``repro.kernel``).

Covers the three kernel pillars — :class:`WorkingInstance` indexing,
:class:`HomSearch` correctness, and delta-driven trigger discovery — plus
the contracts the rest of the codebase now relies on: the delta chase
equals the kernel-free chase by rounds of ``tests/oracle.py``, strictly
and canonically, over the generator families; the ``Instance`` index
memos; kernel counter visibility; and the CLI chase budget flags.
"""

import ast
import json
import pickle
import random

import pytest

import oracle
import repro
from repro.chase.engine import chase
from repro.core.atoms import Atom, atom, fact
from repro.core.instance import Instance
from repro.core.terms import Constant, Null, NullFactory, Variable
from repro.engine.canon import canonical_instance, hash_instance
from repro.evaluation import evaluate_omq
from repro.generators.databases import random_database
from repro.generators.ontologies import (
    guarded_acyclic,
    guarded_reachability,
    linear_chain,
    linear_witness_family,
    non_recursive_doubling,
    sticky_arity_family,
    sticky_recursive_family,
)
from repro.kernel import (
    INTERN,
    KERNEL_METRICS,
    WorkingInstance,
    delta_triggers,
    find_homomorphism,
    homomorphisms,
    kernel_snapshot,
    trusted_instance,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


# ---------------------------------------------------------------------------
# Brute-force cross-check
# ---------------------------------------------------------------------------


def random_target(rng, n_predicates=3, n_terms=4, n_atoms=8):
    terms = [Constant(f"c{i}") for i in range(n_terms)]
    atoms = set()
    while len(atoms) < n_atoms:
        p = rng.randrange(n_predicates)
        arity = (p % 2) + 1
        atoms.add(
            Atom(f"P{p}", tuple(rng.choice(terms) for _ in range(arity)))
        )
    return Instance.of(atoms)


def random_body(rng, target, n_atoms=3, n_vars=3):
    pool = [Variable(f"v{i}") for i in range(n_vars)]
    template = [rng.choice(sorted(target.atoms, key=str)) for _ in range(n_atoms)]
    body = []
    for at in template:
        args = tuple(
            rng.choice(pool) if rng.random() < 0.8 else t for t in at.args
        )
        body.append(Atom(at.predicate, args))
    return body


class TestBruteForceCrossCheck:
    def test_randomized_against_brute_force(self):
        rng = random.Random(20180611)
        for trial in range(40):
            target = random_target(rng)
            body = random_body(rng, target)
            got = {
                frozenset(h.items()) for h in homomorphisms(body, target)
            }
            want = {
                frozenset(h.items())
                for h in oracle.homomorphisms(body, target)
            }
            assert got == want, f"trial {trial}: {body}"

    def test_randomized_with_fixed_bindings(self):
        rng = random.Random(7)
        for trial in range(20):
            target = random_target(rng)
            body = random_body(rng, target)
            variables = sorted(
                {t for at in body for t in at.args if isinstance(t, Variable)},
                key=str,
            )
            if not variables:
                continue
            pin = variables[0]
            image = rng.choice(
                sorted({t for at in target.atoms for t in at.args}, key=str)
            )
            fixed = {pin: image}
            got = {
                frozenset(h.items())
                for h in homomorphisms(body, target, fixed)
            }
            want = {
                frozenset(h.items())
                for h in oracle.homomorphisms(body, target, fixed)
            }
            assert got == want, f"trial {trial}"

    def test_find_agrees_with_enumeration(self):
        rng = random.Random(99)
        for _ in range(20):
            target = random_target(rng)
            body = random_body(rng, target)
            h = find_homomorphism(body, target)
            any_brute = bool(oracle.homomorphisms(body, target))
            assert (h is not None) == any_brute
            if h is not None:
                assert all(at.substitute(h) in target.atoms for at in body)


# ---------------------------------------------------------------------------
# The delta chase against the oracle's chase by rounds
# ---------------------------------------------------------------------------


FAMILIES = [
    ("linear_chain", linear_chain(4)),
    ("linear_witness", linear_witness_family(3)),
    ("non_recursive", non_recursive_doubling(3)),
    ("sticky_arity", sticky_arity_family(3)),
    ("sticky_recursive", sticky_recursive_family(2)),
    ("guarded_reach", guarded_reachability()),
    ("guarded_acyclic", guarded_acyclic(3)),
]


@pytest.mark.parametrize("name,omq", FAMILIES, ids=[n for n, _ in FAMILIES])
@pytest.mark.parametrize("policy", ["restricted", "oblivious"])
class TestChaseParity:
    def test_delta_matches_naive_exactly(self, name, omq, policy):
        db = random_database(omq.data_schema, n_constants=4, n_atoms=10, seed=11)
        kwargs = dict(policy=policy, max_depth=2, max_steps=50_000)
        assert oracle.run_of(chase(db, omq.sigma, **kwargs)) == oracle.run_of(
            oracle.chase(db, omq.sigma, **kwargs)
        )

    def test_delta_matches_naive_canonically(self, name, omq, policy):
        db = random_database(omq.data_schema, n_constants=3, n_atoms=8, seed=5)
        kwargs = dict(policy=policy, max_depth=2, max_steps=50_000)
        delta = chase(
            db, omq.sigma, null_factory=NullFactory(1000), **kwargs,
        )
        naive = oracle.chase(db, omq.sigma, **kwargs)
        assert delta.instance != naive.instance or not delta.instance.nulls()
        assert (
            hash_instance(delta.instance) == hash_instance(naive.instance)
        )


class TestOracle:
    """``tests/oracle.py`` shares no code with the kernel it checks."""

    def test_imports_no_kernel_search_or_evaluation(self):
        tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module)
        for module in modules:
            assert not module.startswith(
                ("repro.kernel", "repro.core.homomorphism", "repro.evaluation")
            ), module

    def test_a_run_makes_no_kernel_search(self):
        omq = linear_chain(3)
        db = random_database(omq.data_schema, n_constants=3, n_atoms=6, seed=1)
        repro.clear_caches()
        result = oracle.chase(db, omq.sigma, max_depth=2)
        assert result.steps > 0
        assert oracle.homomorphisms(omq.query.body, result.instance)
        assert oracle.certain_answers(omq, db, max_depth=2)
        assert kernel_snapshot().get("kernel.hom.searches", 0) == 0


class TestCanonicalInstance:
    def test_invariant_under_null_renaming(self):
        from repro.core.parser import parse_tgds

        sigma = parse_tgds("P(x) -> R(x, w)\nR(x, y) -> R(y, z)")
        db = Instance.of([fact("P", "a"), fact("P", "b")])
        out = chase(db, sigma, max_depth=2).instance
        nulls = sorted(out.nulls(), key=lambda n: n.ident)
        assert nulls, "expected the chase to invent nulls"
        renaming = {n: Null(5000 - n.ident) for n in nulls}
        renamed = Instance.of(at.substitute(renaming) for at in out.atoms)
        assert renamed != out
        assert canonical_instance(renamed).text == canonical_instance(out).text
        assert hash_instance(renamed) == hash_instance(out)

    def test_distinguishes_different_structures(self):
        one = Instance.of([Atom("R", (Constant("a"), Null(0)))])
        two = Instance.of([Atom("R", (Null(0), Constant("a")))])
        assert hash_instance(one) != hash_instance(two)


# ---------------------------------------------------------------------------
# WorkingInstance and delta trigger discovery
# ---------------------------------------------------------------------------


class TestWorkingInstance:
    def test_snapshot_round_trip(self):
        frozen = Instance.of([fact("R", "a", "b"), fact("P", "a")])
        work = WorkingInstance.from_instance(frozen)
        assert work.snapshot() == frozen
        assert len(work) == 2

    def test_add_deduplicates(self):
        work = WorkingInstance([fact("R", "a", "b")])
        assert not work.add(fact("R", "a", "b"))
        assert work.add(fact("R", "b", "c"))
        assert len(work) == 2

    def test_snapshot_memoized_until_mutation(self):
        work = WorkingInstance([fact("R", "a", "b")])
        first = work.snapshot()
        assert work.snapshot() is first
        work.add(fact("P", "a"))
        assert work.snapshot() != first

    def test_watermark_and_atoms_since(self):
        work = WorkingInstance([fact("R", "a", "b")])
        mark = work.watermark()
        assert mark == 1
        work.add(fact("R", "b", "c"))
        work.add(fact("P", "c"))
        assert work.atoms_since(mark) == [fact("R", "b", "c"), fact("P", "c")]

    def test_pred_candidates_window(self):
        work = WorkingInstance([fact("R", "a", "b")])
        work.add(fact("R", "b", "c"))
        work.add(fact("P", "a"))

        def ids(*names):
            return INTERN.term_ids(tuple(Constant(n) for n in names))

        pid = INTERN.pred_id("R")
        all_r, lo, hi = work.pred_candidates(pid)
        assert list(all_r[lo:hi]) == [ids("a", "b"), ids("b", "c")]
        new_r, lo, hi = work.pred_candidates(pid, lo=1)
        assert list(new_r[lo:hi]) == [ids("b", "c")]

    def test_pos_candidates(self):
        work = WorkingInstance(
            [fact("R", "a", "b"), fact("R", "a", "c"), fact("R", "b", "c")]
        )

        def ids(*names):
            return INTERN.term_ids(tuple(Constant(n) for n in names))

        pid = INTERN.pred_id("R")
        a_id = INTERN.term_id(Constant("a"))
        facts, lo, hi = work.pos_candidates(pid, 0, a_id)
        assert list(facts[lo:hi]) == [ids("a", "b"), ids("a", "c")]
        assert work.pos_candidates(INTERN.pred_id("S"), 0, a_id) is None

    def test_cardinality_stats_track_live_counts(self):
        work = WorkingInstance(
            [fact("R", "a", "b"), fact("R", "a", "c"), fact("P", "a")]
        )
        stats = work.cardinality_stats()
        assert stats["R"] == {"count": 2, "distinct": [1, 2]}
        assert stats["P"] == {"count": 1, "distinct": [1]}
        pid = INTERN.pred_id("R")
        assert work.pred_count(pid) == 2
        assert work.distinct_count(pid, 0) == 1
        assert work.distinct_count(pid, 1) == 2

    def test_interned_state_rebuilds_after_table_clear(self):
        work = WorkingInstance([fact("R", "a", "b"), fact("R", "b", "c")])
        body = (atom("R", x, y),)
        before = sorted(str(h) for h in homomorphisms(body, work))
        INTERN.clear()
        after = sorted(str(h) for h in homomorphisms(body, work))
        assert after == before
        assert work.pred_count(INTERN.pred_id("R")) == 2

    def test_trusted_instance_equals_validated(self):
        atoms = frozenset([fact("R", "a", "b")])
        assert trusted_instance(atoms) == Instance(atoms)

    def test_delta_triggers_sees_only_new_combinations(self):
        work = WorkingInstance([fact("E", "a", "b")])
        body = (atom("E", x, y), atom("E", y, z))
        mark = work.watermark()
        work.add(fact("E", "b", "c"))
        new = list(delta_triggers(body, work, mark, work.watermark()))
        # Only the join through the new atom, not the pre-existing pairs.
        assert new == [{x: a, y: b, z: c}]

    def test_delta_triggers_full_enumeration_when_unmarked(self):
        work = WorkingInstance([fact("E", "a", "b"), fact("E", "b", "c")])
        body = (atom("E", x, y),)
        got = list(delta_triggers(body, work, 0, work.watermark()))
        assert len(got) == 2


# ---------------------------------------------------------------------------
# Instance index memos
# ---------------------------------------------------------------------------


class TestInstanceMemos:
    def test_by_predicate_memoized(self):
        inst = Instance.of([fact("R", "a", "b"), fact("P", "a")])
        first = inst.by_predicate()
        assert inst.by_predicate() is first

    def test_pickle_drops_memos(self):
        inst = Instance.of([fact("R", "a", "b")])
        inst.by_predicate()
        clone = pickle.loads(pickle.dumps(inst))
        assert clone == inst
        assert "_by_predicate_memo" not in clone.__dict__


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


class TestKernelCounters:
    def test_chase_and_search_counters_populate(self):
        repro.clear_caches()
        omq = linear_chain(3)
        db = random_database(omq.data_schema, n_constants=3, n_atoms=6, seed=1)
        result = chase(db, omq.sigma, max_depth=2)
        omq.as_ucq().evaluate(result.instance)
        snap = kernel_snapshot()
        assert snap["kernel.hom.searches"] > 0
        assert snap["kernel.chase.rounds"] > 0
        assert "kernel.chase.delta_triggers" in snap

    def test_counters_reset_with_clear_caches(self):
        chase(
            Instance.of([fact("P", "a")]),
            linear_chain(2).sigma,
            max_depth=1,
        )
        assert kernel_snapshot()
        repro.clear_caches()
        assert kernel_snapshot() == {}

    def test_engine_stats_expose_kernel_registry(self):
        from repro.engine import BatchEngine

        repro.clear_caches()
        omq = linear_chain(3)
        with BatchEngine() as engine:
            engine.contains(omq, omq)
            stats = engine.stats()
        assert "kernel" in stats
        assert any(k.startswith("kernel.hom.") for k in stats["kernel"])


class TestSearchFlush:
    """A search flushes its counters in its own ``finally``; an exception
    raised there must reach the caller even when it stops the search early."""

    @staticmethod
    def raising_flush():
        from unittest import mock
        import repro.kernel.search as search

        def flush(*args, **kwargs):
            raise RuntimeError("flush")

        return mock.patch.object(search, "flush_search_counts", flush)

    def test_find_propagates(self):
        target = Instance.of([fact("P", "a"), fact("P", "b")])
        with self.raising_flush(), pytest.raises(RuntimeError):
            find_homomorphism([atom("P", x)], target)

    def test_exhausted_search_propagates(self):
        target = Instance.of([fact("P", "a")])
        with self.raising_flush(), pytest.raises(RuntimeError):
            list(homomorphisms([atom("P", x)], target))

    def test_injective_match_propagates(self):
        from repro.core.parser import parse_cq
        from repro.core.queries import IsoKey

        left = IsoKey(parse_cq("q(x) :- R(x, y), R(y, z)"))
        right = IsoKey(parse_cq("q(u) :- R(u, v), R(v, w)"))
        right.target  # built outside the patch
        with self.raising_flush(), pytest.raises(RuntimeError):
            left.isomorphic_to(right)

    def test_find_counts_one_search(self):
        repro.clear_caches()
        target = Instance.of([fact("P", "a"), fact("P", "b")])
        assert find_homomorphism([atom("P", x)], target) is not None
        snap = kernel_snapshot()
        assert snap["kernel.hom.searches"] == 1
        assert snap["kernel.hom.matches"] == 1


# ---------------------------------------------------------------------------
# Budget degradation and the CLI flags
# ---------------------------------------------------------------------------

DIVERGING_OMQ = """
schema: P/1
rules:
    P(x) -> R(x, w)
    R(x, y) -> R(y, z)
query: q(x) :- R(x, y)
"""


class TestBudgets:
    def test_chase_budget_degrades_to_partial_evaluation(self):
        from repro.core.parser import parse_database, parse_omq

        omq = parse_omq(DIVERGING_OMQ)
        db = parse_database("P(a).")
        result = evaluate_omq(omq, db, method="chase", chase_max_steps=3)
        assert not result.exact
        assert result.method == "chase-partial"
        assert (Constant("a"),) in result.answers

    def test_cli_contains_accepts_budget_flags(self, tmp_path, capsys):
        from repro.cli import main

        q = tmp_path / "q.omq"
        q.write_text(DIVERGING_OMQ, encoding="utf-8")
        code = main(
            [
                "contains", str(q), str(q),
                "--max-steps", "5", "--max-depth", "1", "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert payload["verdict"] in ("contained", "unknown")

    def test_cli_flags_thread_into_batch_jobs(self, tmp_path):
        from repro.cli import _parse_batch_file

        q = tmp_path / "q.omq"
        q.write_text(DIVERGING_OMQ, encoding="utf-8")
        manifest = tmp_path / "batch.txt"
        manifest.write_text("contains q.omq q.omq\n", encoding="utf-8")
        jobs, labels = _parse_batch_file(str(manifest), 123, 4)
        assert jobs[0].chase_max_steps == 123
        assert jobs[0].chase_max_depth == 4
        assert "d=4" in jobs[0].cache_key()


class TestChaseFuzzParity:
    """Randomized parity of the delta chase with the oracle's chase.

    ``TestChaseParity`` pins the curated families; here the tgd sets are
    drawn from :func:`repro.generators.random_omq` across every fragment,
    and the step budget is swept through its edge values — including
    budgets that bind, where both chases must degrade identically (same
    partial run, same honest non-termination report, and the same UNKNOWN
    at the evaluation layer).
    """

    @pytest.mark.parametrize("seed", range(15))
    def test_random_sets_agree(self, seed):
        from repro.generators import FRAGMENTS, random_omq

        rng = random.Random(seed)
        omq = random_omq(rng.choice(FRAGMENTS), rng)
        db = random_database(
            omq.data_schema, n_constants=3, n_atoms=5, seed=seed
        )
        kwargs = dict(max_steps=300, partial=True)
        assert oracle.run_of(chase(db, omq.sigma, **kwargs)) == oracle.run_of(
            oracle.chase(db, omq.sigma, **kwargs)
        )

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 7, 50])
    def test_budget_edges_agree(self, budget):
        """On a diverging rule set every budget binds: partial runs match
        step for step and strict runs raise with matching partials."""
        from repro.chase.engine import ChaseBudgetExceeded
        from repro.core.parser import parse_database, parse_tgds

        sigma = parse_tgds("P(x) -> R(x, w)\nR(x, y) -> R(y, z)")
        db = parse_database("P(a).")
        partials = []
        for run in (chase, oracle.chase):
            result = run(db, sigma, max_steps=budget, partial=True)
            assert not result.terminated
            assert result.steps <= budget
            partials.append(result)
        assert oracle.run_of(partials[0]) == oracle.run_of(partials[1])
        raised = []
        for run in (chase, oracle.chase):
            with pytest.raises(ChaseBudgetExceeded) as exc:
                run(db, sigma, max_steps=budget)
            raised.append(exc.value.partial)
        assert oracle.run_of(raised[0]) == oracle.run_of(raised[1])
        assert oracle.run_of(raised[0]) == oracle.run_of(partials[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_budget_exceeded_is_strategy_independent(self, seed):
        """Whether a random set exhausts a tiny budget is the same for the
        delta chase and the oracle's, and so is the partial run."""
        from repro.chase.engine import ChaseBudgetExceeded
        from repro.generators import FRAGMENTS, random_omq

        rng = random.Random(1000 + seed)
        omq = random_omq(rng.choice(FRAGMENTS), rng)
        db = random_database(
            omq.data_schema, n_constants=2, n_atoms=4, seed=seed
        )
        for budget in (0, 1, 3):
            outcomes = []
            for run in (chase, oracle.chase):
                try:
                    outcomes.append(
                        ("done", run(db, omq.sigma, max_steps=budget))
                    )
                except ChaseBudgetExceeded as exc:
                    outcomes.append(("exceeded", exc.partial))
            (delta_how, delta), (oracle_how, reference) = outcomes
            assert delta_how == oracle_how
            assert oracle.run_of(delta) == oracle.run_of(reference)

    def test_unknown_degradation_matches_across_strategies(self, monkeypatch):
        """The evaluation layer reports the same inexact 'chase-partial'
        answer set with the oracle's chase underneath."""
        import repro.evaluation as evaluation
        from repro.core.parser import parse_database, parse_omq

        omq = parse_omq(DIVERGING_OMQ)
        db = parse_database("P(a).")
        delta_result = evaluate_omq(
            omq, db, method="chase", chase_max_steps=3
        )
        repro.clear_caches()
        monkeypatch.setattr(evaluation, "chase", oracle.chase)
        oracle_result = evaluate_omq(
            omq, db, method="chase", chase_max_steps=3
        )
        for result in (delta_result, oracle_result):
            assert not result.exact
            assert result.method == "chase-partial"
        assert delta_result.answers == oracle_result.answers
