"""Unit tests for the chase engine and the guarded chase forest."""

import pytest

from repro.chase import (
    ChaseBudgetExceeded,
    GuardedChaseForest,
    chase,
    chase_terminates,
    certain_answers_via_chase,
)
from repro.core.atoms import atom, fact
from repro.core.homomorphism import find_homomorphism
from repro.core.instance import Instance
from repro.core.parser import parse_cq, parse_database, parse_tgds
from repro.core.terms import Constant, Variable

x, y = Variable("x"), Variable("y")


class TestBasicChase:
    def test_full_tgd_closure(self):
        sigma = parse_tgds("R(x, y) -> R(y, x)")
        db = parse_database("R(a, b)")
        result = chase(db, sigma)
        assert result.terminated
        assert fact("R", "b", "a") in result.instance

    def test_transitive_closure(self):
        sigma = parse_tgds("E(x, y), E(y, z) -> E(x, z)")
        db = parse_database("E(a, b). E(b, c). E(c, d).")
        result = chase(db, sigma)
        assert fact("E", "a", "d") in result.instance

    def test_existential_creates_null(self):
        sigma = parse_tgds("P(x) -> R(x, w)")
        db = parse_database("P(a)")
        result = chase(db, sigma)
        assert result.terminated
        nulls = result.instance.nulls()
        assert len(nulls) == 1

    def test_restricted_chase_reuses_witnesses(self):
        # R(a,b) already witnesses P(a) -> ∃w R(a,w): no new null.
        sigma = parse_tgds("P(x) -> R(x, w)")
        db = parse_database("P(a). R(a, b).")
        result = chase(db, sigma)
        assert not result.instance.nulls()

    def test_oblivious_chase_always_fires(self):
        sigma = parse_tgds("P(x) -> R(x, w)")
        db = parse_database("P(a). R(a, b).")
        result = chase(db, sigma, policy="oblivious")
        assert len(result.instance.nulls()) == 1

    def test_fact_tgd_fires_on_empty_database(self):
        sigma = parse_tgds("-> Bit(0)\n-> Bit(1)")
        result = chase(Instance.empty(), sigma)
        assert fact("Bit", "0") in result.instance
        assert fact("Bit", "1") in result.instance

    def test_original_atoms_preserved(self):
        sigma = parse_tgds("P(x) -> Q(x)")
        db = parse_database("P(a)")
        result = chase(db, sigma)
        assert db <= result.instance

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            chase(Instance.empty(), [], policy="bogus")


class TestSatisfaction:
    def test_result_satisfies_sigma(self):
        sigma = parse_tgds(
            """
            R(x, y) -> P(y)
            P(x) -> S(x, w)
            """
        )
        db = parse_database("R(a, b)")
        result = chase(db, sigma)
        for rule in sigma:
            from repro.core.homomorphism import homomorphisms

            for h in homomorphisms(rule.body, result.instance):
                frontier_fixed = {
                    v: h[v] for v in rule.frontier() if v in h
                }
                assert (
                    find_homomorphism(rule.head, result.instance, frontier_fixed)
                    is not None
                )

    def test_universality_on_small_case(self):
        # chase(D, Σ) maps homomorphically into any model of D ∪ Σ.
        sigma = parse_tgds("P(x) -> R(x, w)")
        db = parse_database("P(a)")
        result = chase(db, sigma)
        model = parse_database("P(a). R(a, a)")
        assert find_homomorphism(tuple(result.instance), model) is not None


class TestBudgetsAndTermination:
    def test_nonterminating_raises(self):
        sigma = parse_tgds("R(x, y) -> R(y, w)")
        db = parse_database("R(a, b)")
        with pytest.raises(ChaseBudgetExceeded) as err:
            chase(db, sigma, max_steps=20)
        assert not err.value.partial.terminated
        assert len(err.value.partial.instance) > 1

    def test_partial_mode_returns(self):
        sigma = parse_tgds("R(x, y) -> R(y, w)")
        db = parse_database("R(a, b)")
        result = chase(db, sigma, max_steps=20, partial=True)
        assert not result.terminated

    def test_chase_terminates_predicate(self):
        terminating = parse_tgds("P(x) -> Q(x)")
        looping = parse_tgds("R(x, y) -> R(y, w)")
        assert chase_terminates(parse_database("P(a)"), terminating)
        assert not chase_terminates(
            parse_database("R(a, b)"), looping, max_steps=20
        )

    def test_max_depth_truncates(self):
        sigma = parse_tgds("R(x, y) -> R(y, w)")
        db = parse_database("R(a, b)")
        result = chase(db, sigma, max_depth=3)
        assert result.terminated is True
        assert max(result.levels.values()) <= 3

    def test_levels_track_null_depth(self):
        sigma = parse_tgds("R(x, y) -> R(y, w)")
        db = parse_database("R(a, b)")
        result = chase(db, sigma, max_depth=2)
        depths = sorted(
            result.levels[n] for n in result.instance.nulls()
        )
        assert depths == [1, 2]


class TestGoal:
    def test_goal_holding_up_front_takes_no_step(self):
        sigma = parse_tgds("R(x, y) -> R(y, w)")
        goal = (parse_cq("q(x) :- R(x, y)"), (Constant("a"),))
        result = chase(parse_database("R(a, b)"), sigma, goal=goal)
        assert result.goal_reached and result.steps == 0
        assert not result.terminated

    def test_stops_at_the_step_that_reaches_the_goal(self):
        # Without the goal this chase never ends.
        sigma = parse_tgds("R(x, y) -> R(y, w)")
        path = parse_cq("q(x) :- R(x, y), R(y, z), R(z, u)")
        result = chase(
            parse_database("R(a, b)"), sigma, goal=(path, (Constant("a"),))
        )
        assert result.goal_reached and result.steps == 2
        assert path.holds_in(result.instance, (Constant("a"),))

    def test_unreached_goal_changes_nothing(self):
        sigma = parse_tgds("P(x) -> Q(x)\nQ(x) -> S(x)")
        db = parse_database("P(a). P(b)")
        goal = (parse_cq("q() :- T(x)"), ())
        with_goal = chase(db, sigma, goal=goal)
        plain = chase(db, sigma)
        assert not with_goal.goal_reached and with_goal.terminated
        assert with_goal.instance == plain.instance
        assert with_goal.log == plain.log


class TestCertainAnswers:
    def test_certain_answers_via_chase(self):
        sigma = parse_tgds("Prof(x) -> Teaches(x, w)")
        db = parse_database("Prof(ann)")
        q = parse_cq("q(x) :- Teaches(x, y)")
        answers = certain_answers_via_chase(q, db, sigma)
        assert answers == {(Constant("ann"),)}

    def test_nulls_not_reported(self):
        sigma = parse_tgds("Prof(x) -> Teaches(x, w)")
        db = parse_database("Prof(ann)")
        q = parse_cq("q(y) :- Teaches(x, y)")
        assert certain_answers_via_chase(q, db, sigma) == set()


class TestGuardedChaseForest:
    def test_forest_roots_are_facts(self):
        sigma = parse_tgds("P(x) -> R(x, w)")
        db = parse_database("P(a). P(b).")
        forest = GuardedChaseForest.build(db, sigma)
        assert {str(r.atom) for r in forest.roots} == {"P(a)", "P(b)"}

    def test_forest_depth(self):
        sigma = parse_tgds(
            """
            P(x) -> R(x, w)
            R(x, y) -> S(y, w)
            """
        )
        db = parse_database("P(a)")
        forest = GuardedChaseForest.build(db, sigma)
        assert forest.max_depth() == 2

    def test_atoms_up_to_depth(self):
        sigma = parse_tgds(
            """
            P(x) -> R(x, w)
            R(x, y) -> S(y, w)
            """
        )
        db = parse_database("P(a)")
        forest = GuardedChaseForest.build(db, sigma)
        level0 = forest.atoms_up_to_depth(0)
        assert level0 == db
        level1 = forest.atoms_up_to_depth(1)
        assert len(level1) == 2

    def test_subtree(self):
        sigma = parse_tgds(
            """
            P(x) -> R(x, w)
            R(x, y) -> S(y, w)
            """
        )
        db = parse_database("P(a)")
        forest = GuardedChaseForest.build(db, sigma)
        subtree = forest.subtree_atoms(fact("P", "a"))
        assert len(subtree) == 3
