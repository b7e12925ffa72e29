"""Unit tests for OMQ evaluation (Eval(C, Q))."""

import pytest

from repro import OMQ, Schema, parse_cq, parse_database, parse_tgds
from repro.core.omq import OMQError
from repro.core.terms import Constant
from repro.evaluation import certain_answer, evaluate_omq


def omq(schema, rules, query):
    return OMQ(Schema(schema), parse_tgds(rules), parse_cq(query))


def names(answers):
    return {tuple(t.name for t in tup) for tup in answers}


class TestStrategies:
    def test_non_recursive_uses_chase(self):
        q = omq({"A": 1}, "A(x) -> B(x)\nB(x) -> C(x)", "q(x) :- C(x)")
        result = evaluate_omq(q, parse_database("A(a)"))
        assert result.exact
        assert result.method == "chase"
        assert names(result.answers) == {("a",)}

    def test_linear_recursive_uses_rewriting(self):
        q = omq(
            {"P": 1, "T": 1},
            "P(x) -> R(x, w)\nR(x, y) -> P(y)\nT(x) -> P(x)",
            "q(x) :- P(x)",
        )
        result = evaluate_omq(q, parse_database("T(a)"))
        assert result.exact
        assert result.method == "rewriting"
        assert names(result.answers) == {("a",)}

    def test_forced_methods_agree(self):
        q = omq({"A": 1}, "A(x) -> B(x)", "q(x) :- B(x)")
        db = parse_database("A(a). A(b)")
        by_chase = evaluate_omq(q, db, method="chase")
        by_rewriting = evaluate_omq(q, db, method="rewriting")
        assert by_chase.answers == by_rewriting.answers

    def test_bounded_chase_is_sound(self):
        q = omq(
            {"P": 1},
            "P(x) -> R(x, w)\nR(x, y) -> R(y, w)",
            "q(x) :- R(x, y)",
        )
        result = evaluate_omq(q, parse_database("P(a)"), method="bounded-chase")
        assert names(result.answers) == {("a",)}

    def test_unknown_method_rejected(self):
        q = omq({"A": 1}, "", "q(x) :- A(x)")
        with pytest.raises(ValueError):
            evaluate_omq(q, parse_database("A(a)"), method="magic")

    def test_database_schema_validated(self):
        q = omq({"A": 1}, "", "q(x) :- A(x)")
        with pytest.raises(OMQError):
            evaluate_omq(q, parse_database("Z(a)"))


class TestSemantics:
    def test_certain_answers_are_cautious(self):
        # R(a,⊥) gives no constant answer for the second position.
        q = omq({"P": 1}, "P(x) -> R(x, w)", "q(y) :- R(x, y)")
        result = evaluate_omq(q, parse_database("P(a)"))
        assert result.answers == set()

    def test_boolean_query(self):
        q = omq({"P": 1}, "P(x) -> R(x, w)", "q() :- R(x, y)")
        assert certain_answer(q, parse_database("P(a)"))
        assert not certain_answer(q, parse_database("P(a)").restrict_to_predicates([]))

    def test_monotonicity(self):
        q = omq({"A": 1, "B": 1}, "A(x) -> C(x)\nB(x) -> C(x)", "q(x) :- C(x)")
        small = parse_database("A(a)")
        big = parse_database("A(a). B(b)")
        assert evaluate_omq(q, small).answers <= evaluate_omq(q, big).answers

    def test_query_over_ontology_predicates(self):
        # The query may use predicates not in S (enriched schema).
        q = omq({"Emp": 1}, "Emp(x) -> Person(x)", "q(x) :- Person(x)")
        result = evaluate_omq(q, parse_database("Emp(e)"))
        assert names(result.answers) == {("e",)}

    def test_data_predicate_enriched_by_ontology(self):
        # Tgds may write into data-schema predicates too.
        q = omq({"A": 1, "B": 1}, "A(x) -> B(x)", "q(x) :- B(x)")
        result = evaluate_omq(q, parse_database("A(a). B(b)"))
        assert names(result.answers) == {("a",), ("b",)}

    def test_guarded_auto_fallback(self):
        # Guarded, recursive, non-rewritable within small budgets.
        q = omq(
            {"E": 2, "S": 1},
            "E(x, y), S(x) -> S(y)",
            "q(x) :- S(x)",
        )
        db = parse_database("E(a, b). E(b, c). S(a)")
        result = evaluate_omq(q, db)
        assert names(result.answers) == {("a",), ("b",), ("c",)}

    def test_underivable_query_predicate_skips_the_rewriting(self, monkeypatch):
        # Guarded and recursive: D is derived only from D, so no database
        # makes it true.  XRewrite on this query runs for minutes without
        # reaching its budget (its duplicates are not counted), so the
        # evaluator must answer without attempting it.
        import repro.evaluation as evaluation

        def no_rewriting(*args):
            raise AssertionError("speculative rewriting attempted")

        monkeypatch.setattr(evaluation, "cached_rewriting", no_rewriting)
        q = omq(
            {"S": 2, "T": 1},
            "D(x), T(x) -> E(x, z)\n"
            "S(x, y), D(y), E(x, x) -> D(x)\n"
            "S(x, y), E(x, y), S(y, x) -> E(y, x)",
            "q() :- D(x), S(x, y)",
        )
        db = parse_database("S(a, b). S(b, a). S(a, a). T(a)")
        result = evaluate_omq(q, db)
        assert result.answers == set()
        assert result.exact
        assert evaluate_omq(q, db, method="bounded-chase").answers == set()
