"""Tests for the containment dispatcher's special procedures."""

from unittest import mock

import pytest

from repro import OMQ, Schema, Verdict, contains, parse_cq, parse_tgds
from repro.containment import entailment
from repro.containment.entailment import MAX_STEPS, contains_by_entailment
from repro.containment.guarded import contains_guarded
from repro.containment.propositional import (
    contains_propositional,
    is_propositional,
)
from repro.containment.result import (
    ContainmentResult,
    Witness,
    contained,
    not_contained,
    unknown,
)
from repro.core.instance import Instance
from repro.core.atoms import atom
from repro.core.parser import parse_ucq
from repro.core.queries import CQ
from repro.core.terms import Null


def omq(schema, rules, query):
    return OMQ(Schema(schema), parse_tgds(rules), parse_cq(query))


class TestResultTypes:
    def test_contained_result(self):
        r = contained("m", "detail")
        assert r.is_contained and r.decided and bool(r)

    def test_not_contained_result(self):
        db = Instance.of([atom("A")])
        r = not_contained("m", db, ())
        assert not r.is_contained and r.decided
        assert isinstance(r.witness, Witness)
        assert "witness" in str(r)

    def test_unknown_result_raises_on_bool(self):
        r = unknown("m", "out of budget")
        assert not r.decided
        with pytest.raises(ValueError):
            bool(r)
        with pytest.raises(ValueError):
            r.is_contained


class TestCQSubsumption:
    """The cases of the old syntactic shortcut (Σ1 ⊆ Σ2 and q1 ⊆ q2 as
    plain queries), with their expectations, on the entailment check."""

    def test_same_sigma_query_weakening(self):
        s = {"E": 2, "S": 1}
        rules = "E(x, y), S(x) -> S(y)"
        q1 = omq(s, rules, "q() :- S(x), E(x, y)")
        q2 = omq(s, rules, "q() :- S(x)")
        proof = contains_by_entailment(q1, q2)
        assert proof is not None and proof.is_contained

    def test_sigma_superset_direction(self):
        s = {"A": 1}
        q1 = omq(s, "", "q(x) :- A(x)")
        q2 = omq(s, "A(x) -> B(x)", "q(x) :- A(x)")
        # Σ1 = ∅ ⊆ Σ2 and q1 ⊆ q2 as plain CQs.
        assert contains_by_entailment(q1, q2) is not None

    def test_sigma_not_subset_no_shortcut(self):
        s = {"A": 1}
        q1 = omq(s, "A(x) -> B(x)", "q(x) :- A(x)")
        q2 = omq(s, "A(x) -> C(x)", "q(x) :- A(x)")
        assert contains_by_entailment(q1, q2) is None

    def test_query_not_contained_no_shortcut(self):
        s = {"A": 1, "B": 1}
        q1 = omq(s, "", "q(x) :- A(x)")
        q2 = omq(s, "", "q(x) :- B(x)")
        assert contains_by_entailment(q1, q2) is None

    def test_shortcut_is_sound(self):
        # Where the check answers, the exact procedure must agree.
        s = {"E": 2, "P": 1}
        rules = "E(x, y) -> P(y)"
        q1 = omq(s, rules, "q(x) :- P(x), E(y, x)")
        q2 = omq(s, rules, "q(x) :- P(x)")
        proof = contains_by_entailment(q1, q2)
        assert proof is not None
        from repro.containment.small_witness import contains_via_small_witness

        exact = contains_via_small_witness(q1, q2)
        assert exact.is_contained


def chase_spy():
    """Patch the check's chase with a wrapper that records every run."""
    chase = entailment.chase
    runs = []

    def spy(*args, **kwargs):
        run = chase(*args, **kwargs)
        runs.append(run)
        return run

    return runs, mock.patch.object(entailment, "chase", spy)


class TestEntailment:
    def test_front_door_answers_by_entailment(self):
        s = {"A": 1}
        q1 = omq(s, "A(x) -> B(x)", "q(x) :- A(x)")
        q2 = omq(s, "A(y) -> B(y)", "q(x) :- A(x)")
        result = contains(q1, q2)
        assert result.is_contained and result.method == "entailment"

    def test_alpha_renamed_rules_need_no_chase(self):
        s = {"E": 2, "S": 1}
        q1 = omq(s, "E(x, y), S(x) -> S(y)", "q(x) :- S(x)")
        q2 = omq(s, "E(u, v), S(u) -> S(v)", "q(z) :- S(z)")
        assert not set(q1.sigma) & set(q2.sigma)
        runs, patch = chase_spy()
        with patch:
            assert contains_by_entailment(q1, q2) is not None
        # One chase for the query, settled before its first step; the
        # rule is α-equal to Σ2's and is not chased at all.
        assert [run.steps for run in runs] == [0]

    def test_rule_entailed_through_two_rule_chain(self):
        s = {"A": 1}
        q1 = omq(s, "A(x) -> C(x)", "q(x) :- A(x)")
        q2 = omq(s, "A(x) -> B(x)\nB(y) -> C(y)", "q(x) :- A(x)")
        runs, patch = chase_spy()
        with patch:
            assert contains_by_entailment(q1, q2) is not None
        assert runs[-1].goal_reached and runs[-1].steps == 2
        # Half of the chain entails nothing.
        q2_half = omq(s, "A(x) -> B(x)", "q(x) :- A(x)")
        assert contains_by_entailment(q1, q2_half) is None

    def test_existential_head_with_fixed_frontier(self):
        s = {"A": 1}
        q1 = omq(s, "A(x) -> R(x, z)", "q(x) :- A(x)")
        q2 = omq(s, "A(x) -> S(x)\nS(y) -> R(y, w)", "q(x) :- A(x)")
        assert contains_by_entailment(q1, q2) is not None
        # R(n, c_x) satisfies ∃x,z R(x, z) but not R(c_x, z): the frontier
        # stays at its frozen value.
        q2_swapped = omq(s, "A(x) -> R(w, x)", "q(x) :- A(x)")
        assert contains_by_entailment(q1, q2_swapped) is None

    def test_fact_tgd(self):
        s = {"A": 1}
        q1 = omq(s, 'true -> B("a")', "q(x) :- A(x)")
        q2 = omq(s, 'true -> C("a")\nC(x) -> B(x)', "q(x) :- A(x)")
        assert contains_by_entailment(q1, q2) is not None
        q2_other = omq(s, 'true -> B("b")', "q(x) :- A(x)")
        assert contains_by_entailment(q1, q2_other) is None

    def test_two_disjunct_lhs(self):
        s = Schema({"A": 1, "B": 1})
        q1 = OMQ(s, (), parse_ucq("q(x) :- A(x) | q(x) :- B(x)"))
        both = OMQ(
            s, parse_tgds("A(x) -> C(x)\nB(y) -> C(y)"), parse_cq("q(x) :- C(x)")
        )
        proof = contains_by_entailment(q1, both)
        assert proof is not None
        one = OMQ(s, parse_tgds("A(x) -> C(x)"), parse_cq("q(x) :- C(x)"))
        assert contains_by_entailment(q1, one) is None
        # The B-disjunct is a genuine counterexample there.
        assert contains(q1, one).verdict is Verdict.NOT_CONTAINED

    @pytest.mark.parametrize(
        "length,proved", [(MAX_STEPS, True), (MAX_STEPS + 5, False)]
    )
    def test_non_terminating_sigma_stops_at_the_step_bound(self, length, proved):
        # The R-chain never ends, so Q1 ⊆ Q2 holds for every path length;
        # the check proves it only while the path fits in the bound.
        s = {"R": 2}
        rules = "R(x, y) -> R(y, z)"
        path = ", ".join(f"R(y{i}, y{i + 1})" for i in range(length))
        q1 = omq(s, rules, "q(y0) :- R(y0, y1)")
        q2 = omq(s, rules, f"q(y0) :- {path}")
        runs, patch = chase_spy()
        with patch:
            proof = contains_by_entailment(q1, q2)
        assert (proof is not None) is proved
        assert all(run.steps <= MAX_STEPS for run in runs)
        if not proved:
            assert runs[-1].steps == MAX_STEPS and not runs[-1].terminated


class TestFreezingGuard:
    """A constant spelled like a frozen variable (``c_x``) makes freezing
    non-injective: no freezing-based path may answer for such a pair."""

    def reproducer(self, rules=""):
        q1 = omq({"A": 2}, rules, 'q(x) :- A(x, "c_x")')
        q2 = omq({"A": 2}, "", "q(z) :- A(z, z)")
        return q1, q2

    def test_entailment_answers_nothing(self):
        assert contains_by_entailment(*self.reproducer()) is None

    @pytest.mark.parametrize("rules", ["", "A(x, y) -> B(x)"])
    def test_front_door_answers_unknown_naming_the_constant(self, rules):
        # On D = {A(a, c_x)}, Q1(D) = {a} and Q2(D) = ∅: CONTAINED would
        # be wrong, whichever procedure the LHS selects.
        result = contains(*self.reproducer(rules))
        assert result.verdict is Verdict.UNKNOWN
        assert "c_x" in result.detail

    def test_null_is_guarded_too(self):
        q1 = OMQ(Schema({"A": 1}), (), CQ((), (atom("A", Null(0)),)))
        q2 = omq({"A": 1}, "", "q() :- A(x)")
        assert contains_by_entailment(q1, q2) is None
        result = contains(q1, q2)
        assert result.verdict is Verdict.UNKNOWN and str(Null(0)) in result.detail

    def test_cli_reproducer(self, tmp_path, capsys):
        from repro.cli import main

        a, b = tmp_path / "a.omq", tmp_path / "b.omq"
        a.write_text('schema: A/2\nquery: q(x) :- A(x, "c_x")\n')
        b.write_text("schema: A/2\nquery: q(z) :- A(z, z)\n")
        code = main(["contains", str(a), str(b)])
        out = capsys.readouterr().out
        assert code == 2 and "unknown" in out and "c_x" in out


class TestPropositional:
    def test_detection(self):
        assert is_propositional(omq({"P": 0, "Q": 0}, "", "q() :- P()"))
        assert not is_propositional(omq({"A": 1}, "", "q() :- A(x)"))
        assert not is_propositional(
            OMQ(Schema({}), (), parse_cq("q() :- X()"))
        )

    def test_simple_propositional_containment(self):
        s = {"P": 0, "Q": 0}
        q1 = omq(s, "P(), Q() -> Both()", "q() :- Both()")
        q2 = omq(s, "P() -> Goal()", "q() :- Goal()")
        assert contains_propositional(q1, q2).is_contained
        result = contains_propositional(q2, q1)
        assert result.verdict is Verdict.NOT_CONTAINED
        # Witness: P alone fires Q2 but not Q1.
        assert len(result.witness.database) == 1

    def test_cap_respected(self):
        s = {f"P{i}": 0 for i in range(20)}
        q = omq(s, "", "q() :- P0()")
        result = contains_propositional(q, q)
        assert result.verdict is Verdict.UNKNOWN

    def test_dispatcher_uses_propositional(self):
        s = {"P": 0, "Q": 0}
        q1 = omq(s, "P(), Q() -> Both()", "q() :- Both()")
        q2 = omq(s, "P() -> Goal()", "q() :- Goal()")
        result = contains(q1, q2)
        assert result.is_contained
        assert "propositional" in result.method


class TestBudgetOverrides:
    def test_custom_budget_is_honoured(self):
        # The pair is contained: freeze E(c_x, c_y), S(c_x), and Σ2
        # derives S(c_y).  With these budgets the guarded procedure can
        # neither complete a rewriting nor find a counterexample.
        s = {"E": 2, "S": 1}
        rules = "E(x, y), S(x) -> S(y)"
        q1 = omq(s, rules, "q(x) :- S(x)")
        q2 = OMQ(
            q1.data_schema, parse_tgds("E(x, y) -> S(y)"), parse_cq("q(x) :- S(x)")
        )
        budgets = dict(
            rewriting_budget=20, search_max_atoms=2, search_max_databases=50
        )
        assert contains_guarded(q1, q2, **budgets).verdict is Verdict.UNKNOWN
        # The front door proves it before any procedure runs.
        result = contains(q1, q2, **budgets)
        assert result.verdict is Verdict.CONTAINED
        assert result.method == "entailment"
