"""Unit tests for XRewrite, anchored on Example 1 and the f_O bounds."""

import pytest

from repro import OMQ, Schema, parse_cq, parse_database, parse_tgds
from repro.chase import chase
from repro.rewriting import (
    RewritingBudgetExceeded,
    f_linear,
    f_non_recursive,
    f_sticky,
    witness_size_bound,
    xrewrite,
)
from repro.core.omq import TGDClass


class TestExample1:
    def test_rewriting_is_p_or_t(self, example1):
        result = xrewrite(example1)
        assert result.complete
        predicates = {
            tuple(sorted(d.predicates())) for d in result.rewriting.disjuncts
        }
        assert predicates == {("P",), ("T",)}
        assert all(d.size() == 1 for d in result.rewriting.disjuncts)

    def test_rewriting_semantics(self, example1):
        result = xrewrite(example1)
        for text, expected in [
            ("P(a)", {("a",)}),
            ("T(a)", {("a",)}),
            ("P(a). T(b).", {("a",), ("b",)}),
        ]:
            db = parse_database(text)
            answers = {
                tuple(t.name for t in tup)
                for tup in result.rewriting.evaluate(db)
            }
            assert answers == expected

    def test_factorization_needed(self, example1):
        # The run must use at least one factorization step (the paper's
        # R(x,y) ∧ R(x,z) example) or reach P(x) via pair resolution.
        result = xrewrite(example1)
        assert result.stats.rewriting_steps >= 3


class TestRewritingCorrectness:
    """Rewriting answers must equal chase answers (Definition 1)."""

    @pytest.mark.parametrize(
        "rules, schema, query, dbs",
        [
            (
                "Emp(x) -> Works(x, w)\nWorks(x, y) -> Busy(x)",
                {"Emp": 1},
                "q(x) :- Busy(x)",
                ["Emp(a). Emp(b)", "Emp(c)"],
            ),
            (
                "A(x) -> B(x)\nB(x) -> C(x)\nC(x) -> D(x)",
                {"A": 1, "B": 1, "C": 1, "D": 1},
                "q(x) :- D(x)",
                ["A(a). C(b)", "B(a). D(d)"],
            ),
            (
                "R(x, y) -> S(x, y, w)",
                {"R": 2},
                "q(x) :- S(x, y, z)",
                ["R(a, b). R(b, c)"],
            ),
        ],
    )
    def test_rewriting_matches_chase(self, rules, schema, query, dbs):
        sigma = parse_tgds(rules)
        omq = OMQ(Schema(schema), sigma, parse_cq(query))
        rewriting = xrewrite(omq)
        assert rewriting.complete
        for text in dbs:
            db = parse_database(text)
            via_rewriting = rewriting.rewriting.evaluate(db)
            via_chase = omq.as_ucq().evaluate(chase(db, sigma).instance)
            assert via_rewriting == via_chase

    def test_nonterminating_chase_rewriting_still_works(self):
        # Linear recursive ontology: infinite chase, finite rewriting.
        sigma = parse_tgds("P(x) -> R(x, w)\nR(x, y) -> P(y)")
        omq = OMQ(Schema.of(P=1), sigma, parse_cq("q(x) :- P(x)"))
        result = xrewrite(omq)
        assert result.complete
        db = parse_database("P(a)")
        assert result.rewriting.evaluate(db) != set()

    def test_constants_in_tgds(self):
        sigma = parse_tgds("In(x) -> Ans(x, 1)")
        omq = OMQ(Schema.of(In=1), sigma, parse_cq("q(x) :- Ans(x, 1)"))
        result = xrewrite(omq)
        db = parse_database("In(a)")
        assert result.rewriting.evaluate(db) == omq.as_ucq().evaluate(
            chase(db, sigma).instance
        )

    def test_fact_tgds_resolve_atoms_away(self):
        sigma = parse_tgds("-> Zero(0)")
        omq = OMQ(Schema.of(P=1), sigma, parse_cq("q(x) :- P(x), Zero(y)"))
        result = xrewrite(omq)
        db = parse_database("P(a)")
        assert result.rewriting.evaluate(db) == {(parse_database("P(a)").constants().pop(),)}

    def test_ucq_input(self):
        sigma = parse_tgds("A(x) -> B(x)")
        from repro.core.parser import parse_ucq

        omq = OMQ(
            Schema.of(A=1, C=1),
            sigma,
            parse_ucq("q(x) :- B(x) | q(x) :- C(x)"),
        )
        result = xrewrite(omq)
        predicates = {
            tuple(sorted(d.predicates())) for d in result.rewriting.disjuncts
        }
        assert ("A",) in predicates and ("C",) in predicates


class TestRepeatedExistentialPositions:
    """Regression: heads like ∃e R(e, e) must resolve R(x, x).

    Found by hypothesis: the naive "no shared variable at an existential
    position" reading of Definition 6 wrongly blocks the resolution when
    the repetition is forced by the head pattern itself.
    """

    def test_same_existential_at_two_positions(self):
        sigma = parse_tgds("P0(x) -> R1(e, e)\nR1(x, x) -> P2(x)")
        omq = OMQ(Schema.of(P0=1, R0=2), sigma, parse_cq("q() :- P2(x)"))
        rewriting = xrewrite(omq)
        assert rewriting.complete
        db = parse_database("P0(a)")
        via_rewriting = rewriting.rewriting.evaluate(db)
        via_chase = omq.as_ucq().evaluate(chase(db, sigma).instance)
        assert via_rewriting == via_chase == {()}

    def test_distinct_existentials_stay_distinct(self):
        # ∃e,f R(e, f) creates two distinct nulls: R(x, x) must NOT resolve.
        sigma = parse_tgds("P0(x) -> R1(e, f)\nR1(x, x) -> P2(x)")
        omq = OMQ(Schema.of(P0=1), sigma, parse_cq("q() :- P2(x)"))
        rewriting = xrewrite(omq)
        assert rewriting.complete
        db = parse_database("P0(a)")
        assert rewriting.rewriting.evaluate(db) == set()
        assert omq.as_ucq().evaluate(chase(db, sigma).instance) == set()

    def test_existential_cannot_capture_free_variable(self):
        sigma = parse_tgds("P0(x) -> R1(e, e)\nR1(x, y) -> P2(x)")
        omq = OMQ(Schema.of(P0=1), sigma, parse_cq("q(x) :- P2(x)"))
        rewriting = xrewrite(omq)
        assert rewriting.complete
        # P2's argument is always a null, never a constant answer.
        db = parse_database("P0(a)")
        assert rewriting.rewriting.evaluate(db) == set()

    def test_mixed_frontier_and_existential_repetition(self):
        # Head R(u, e) with query atom R(x, x): x would have to equal a
        # fresh null and a frontier value at once — never resolvable.
        sigma = parse_tgds("P0(u) -> R1(u, e)\nR1(x, x) -> P2(x)")
        omq = OMQ(Schema.of(P0=1), sigma, parse_cq("q() :- P2(x)"))
        rewriting = xrewrite(omq)
        assert rewriting.complete
        db = parse_database("P0(a)")
        via_chase = omq.as_ucq().evaluate(chase(db, sigma).instance)
        assert rewriting.rewriting.evaluate(db) == via_chase == set()


class TestQueryElimination:
    """[40]'s query-elimination optimization: core-minimized candidates."""

    def test_recursive_sticky_set_terminates(self):
        # Without core minimization this sticky set accumulates redundant
        # B-atoms and the exhaustive rewriting diverges.
        sigma = parse_tgds(
            """
            A(x, y), B(y, z) -> C(x, y, z)
            C(x, y, z) -> A(y, x)
            """
        )
        from repro.fragments import is_sticky

        assert is_sticky(sigma)
        omq = OMQ(Schema.of(A=2, B=2), sigma, parse_cq("q(x) :- A(x, y)"))
        result = xrewrite(omq, max_queries=1_000)
        assert result.complete
        assert len(result.rewriting) == 4

    def test_recursive_sticky_rewriting_is_correct(self):
        sigma = parse_tgds(
            """
            A(x, y), B(y, z) -> C(x, y, z)
            C(x, y, z) -> A(y, x)
            """
        )
        omq = OMQ(Schema.of(A=2, B=2), sigma, parse_cq("q(x) :- A(x, y)"))
        rewriting = xrewrite(omq).rewriting
        for text in ["A(a, b)", "A(a, b). B(b, c)", "A(a, b). B(a, c). B(b, d)"]:
            db = parse_database(text)
            # Bounded chase is sound; on these tiny databases depth 6 is
            # enough for all constant answers to appear.
            reference = omq.as_ucq().evaluate(
                chase(db, sigma, max_depth=6, partial=True).instance
            )
            assert rewriting.evaluate(db) == reference

    def test_generated_disjuncts_are_cores(self):
        sigma = parse_tgds("P(x) -> R(x, w)\nR(x, y) -> P(y)")
        omq = OMQ(Schema.of(P=1), sigma, parse_cq("q(x) :- P(x), R(x, y)"))
        result = xrewrite(omq)
        for d in result.rewriting.disjuncts:
            assert d.size() == d.core().size()


class TestBudget:
    def test_budget_exceeded_raises(self):
        # Full transitive closure is not UCQ-rewritable; the run must stop.
        sigma = parse_tgds("E(x, y), E(y, z) -> E(x, z)")
        omq = OMQ(Schema.of(E=2), sigma, parse_cq("q() :- E(x, y)"))
        # The query E(x,y) only resolves into longer chains; give a budget.
        sigma2 = parse_tgds("E(x, y), E(y, z) -> T(x, z)\nT(x, y), T(y, z) -> T(x, z)")
        omq2 = OMQ(Schema.of(E=2), sigma2, parse_cq("q() :- T(x, y)"))
        with pytest.raises(RewritingBudgetExceeded) as err:
            xrewrite(omq2, max_queries=30)
        assert not err.value.partial.complete

    def test_partial_mode(self):
        sigma = parse_tgds("E(x, y), E(y, z) -> T(x, z)\nT(x, y), T(y, z) -> T(x, z)")
        omq = OMQ(Schema.of(E=2), sigma, parse_cq("q() :- T(x, y)"))
        from repro.rewriting.xrewrite import xrewrite_cq

        result = xrewrite_cq(
            omq.data_schema, omq.sigma, omq.as_cq(), max_queries=30, partial=True
        )
        assert not result.complete
        # Partial disjuncts are still sound consequences.
        for d in result.rewriting.disjuncts:
            assert set(d.predicates()) <= {"E"}


class TestBounds:
    def test_linear_bound_respected(self, example1):
        result = xrewrite(example1)
        assert result.max_disjunct_size() <= f_linear(example1)

    def test_non_recursive_bound_respected(self):
        sigma = parse_tgds(
            """
            A(x), B(x) -> C(x)
            C(x), D(x) -> E(x)
            """
        )
        omq = OMQ(
            Schema.of(A=1, B=1, D=1), sigma, parse_cq("q(x) :- E(x)")
        )
        result = xrewrite(omq)
        assert result.complete
        assert result.max_disjunct_size() <= f_non_recursive(omq)
        # The actual growth: E needs C∧D, C needs A∧B → 3 atoms.
        assert result.max_disjunct_size() == 3

    def test_sticky_bound_respected(self):
        sigma = parse_tgds("R(x, y), P(y, z) -> S(x, y, z)")
        omq = OMQ(Schema.of(R=2, P=2), sigma, parse_cq("q(x) :- S(x, y, z)"))
        result = xrewrite(omq)
        assert result.complete
        assert result.max_disjunct_size() <= f_sticky(omq)

    def test_witness_size_bound_dispatch(self, example1):
        assert witness_size_bound(example1, TGDClass.LINEAR) == 2
        with pytest.raises(ValueError):
            witness_size_bound(example1, TGDClass.GUARDED)


class TestUnionStats:
    """xrewrite() sums its disjuncts' statistics from zero."""

    def test_one_cq_omq_reports_what_xrewrite_cq_does(self):
        from dataclasses import asdict

        from repro.generators import linear_witness_family
        from repro.rewriting.xrewrite import xrewrite_cq

        omq = linear_witness_family(3)
        single = xrewrite_cq(omq.data_schema, omq.sigma, omq.as_cq())
        union = xrewrite(omq)
        assert asdict(union.stats) == asdict(single.stats)
        assert union.stats.queries_generated == 13
        assert union.stats.total_atoms > 0 and union.stats.atom_budget > 0

    def test_two_disjunct_ucq_sums(self):
        from dataclasses import asdict

        from repro.core.parser import parse_ucq
        from repro.rewriting.xrewrite import xrewrite_cq

        sigma = parse_tgds("A(x) -> B(x)\nE(x, y) -> P(x, y)")
        ucq = parse_ucq("q(x) :- B(x) | q(x) :- P(x, y), P(y, z)")
        omq = OMQ(Schema.of(A=1, E=2), sigma, ucq)
        parts = [
            asdict(xrewrite_cq(omq.data_schema, sigma, d).stats)
            for d in ucq.disjuncts
        ]
        union = asdict(xrewrite(omq).stats)
        for name in union:
            if name != "queries_final":
                assert union[name] == sum(p[name] for p in parts), name
        assert union["queries_final"] == len(xrewrite(omq).rewriting)


class TestWasteCounters:
    """Candidates built, duplicates discarded and core hom checks."""

    # linear_witness_family(3): 22 candidates, 10 of them isomorphic to an
    # earlier query; 12 rewriting steps; the cores ran 19 hom checks.
    PINNED = {
        "kernel.xrewrite.candidates": 22,
        "kernel.xrewrite.duplicates": 10,
        "kernel.core.hom_checks": 19,
    }

    def test_counters_and_span_attributes_are_pinned(self):
        import repro
        from repro import obs
        from repro.generators import linear_witness_family
        from repro.kernel import kernel_snapshot
        from repro.rewriting.xrewrite import xrewrite_cq

        omq = linear_witness_family(3)
        repro.clear_caches()
        obs.drain()
        with obs.tracing("always"):
            result = xrewrite_cq(omq.data_schema, omq.sigma, omq.as_cq())
        (tree,) = obs.drain()
        snapshot = kernel_snapshot()
        assert {k: snapshot.get(k) for k in self.PINNED} == self.PINNED
        attrs = tree["attrs"]
        assert tree["name"] == "rewrite.xrewrite"
        assert attrs["candidates"] == 22
        assert attrs["duplicates"] == 10
        assert attrs["core_hom_checks"] == 19
        # The existing attributes keep their meaning.
        assert attrs["generated"] == result.stats.queries_generated == 13
        assert attrs["final_disjuncts"] == result.stats.queries_final
        assert (
            attrs["candidates"] - attrs["duplicates"]
            == result.stats.rewriting_steps + result.stats.factorization_steps
        )

    def test_counters_reach_batch_engine_stats(self):
        from repro.engine import BatchEngine
        from repro.generators import linear_witness_family

        q1 = linear_witness_family(3)
        q2 = OMQ(
            q1.data_schema, (), parse_cq("q() :- E(x, y), E(y, z)"), name="two"
        )
        with BatchEngine() as engine:
            engine.contains(q1, q2)
            stats = engine.stats()
        for name in self.PINNED:
            assert stats["kernel"][name] >= self.PINNED[name], name
            assert stats["metrics"][name] == stats["kernel"][name]
