"""Unit tests for the text parser."""

import pytest

from repro.core.atoms import atom, fact
from repro.core.omq import OMQ
from repro.core.parser import (
    ParseError,
    parse_atom,
    parse_cq,
    parse_database,
    parse_omq,
    parse_tgd,
    parse_tgds,
    parse_ucq,
)
from repro.core.queries import CQ, UCQ
from repro.core.schema import Schema
from repro.core.serialize import omq_to_document
from repro.core.terms import Constant, Variable

x, y, w = Variable("x"), Variable("y"), Variable("w")


class TestAtomParsing:
    def test_variables_lowercase(self):
        assert parse_atom("R(x, y)") == atom("R", x, y)

    def test_numbers_are_constants(self):
        assert parse_atom("Bit(0)") == atom("Bit", Constant("0"))

    def test_quoted_constants(self):
        assert parse_atom("R('a', \"b\")") == fact("R", "a", "b")

    def test_zero_ary(self):
        assert parse_atom("Goal()") == atom("Goal")
        assert parse_atom("Goal") == atom("Goal")

    def test_uppercase_term_is_constant(self):
        # In term position an uppercase identifier denotes a constant.
        assert parse_atom("R(A)") == atom("R", Constant("A"))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_atom("R(x) R(y)")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_atom("R(x$)")


class TestTGDParsing:
    def test_simple_tgd(self):
        t = parse_tgd("R(x, y) -> P(y)")
        assert t.body == (atom("R", x, y),)
        assert t.head == (atom("P", y),)
        assert t.is_full()

    def test_existential_inferred(self):
        t = parse_tgd("P(x) -> R(x, w)")
        assert t.existential_variables() == {w}

    def test_fact_tgd(self):
        t = parse_tgd("true -> Bit(0)")
        assert t.is_fact_tgd()
        t2 = parse_tgd("-> Bit(1)")
        assert t2.is_fact_tgd()

    def test_multi_atom_tgd(self):
        t = parse_tgd("R(x, y), P(y, z) -> T(x, y, w)")
        assert len(t.body) == 2
        assert t.frontier() == {x, y}

    def test_unicode_arrow(self):
        t = parse_tgd("R(x, y) → P(y)")
        assert t.head == (atom("P", y),)

    def test_program_with_comments(self):
        sigma = parse_tgds(
            """
            % a comment
            P(x) -> R(x, y)
            # another comment
            R(x, y) -> P(y)
            """
        )
        assert len(sigma) == 2

    def test_period_separated(self):
        sigma = parse_tgds("P(x) -> Q(x). Q(x) -> S(x).")
        assert len(sigma) == 2

    def test_comment_after_a_final_period(self):
        assert parse_tgds("P(x) -> Q(x). % note") == [parse_tgd("P(x) -> Q(x)", "r0")]


class TestCQParsing:
    def test_with_head(self):
        q = parse_cq("q(x) :- R(x, y), P(y)")
        assert q.head == (x,)
        assert q.size() == 2
        assert q.name == "q"

    def test_boolean_bare_body(self):
        q = parse_cq("R(x, y), P(y)")
        assert q.is_boolean()

    def test_boolean_with_head(self):
        q = parse_cq("q() :- R(x, y)")
        assert q.is_boolean()

    def test_constant_in_head(self):
        q = parse_cq("q(0, x) :- Ans(0, x)")
        assert q.head == (Constant("0"), x)


class TestUCQParsing:
    def test_pipe_separated(self):
        q = parse_ucq("q(x) :- P(x) | q(x) :- T(x)")
        assert len(q) == 2

    def test_line_separated(self):
        q = parse_ucq("q(x) :- P(x)\nq(x) :- T(x)")
        assert len(q) == 2

    def test_comment_after_a_final_period(self):
        assert parse_ucq("q(x) :- P(x). % c") == parse_ucq("q(x) :- P(x)")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_ucq("   ")


class TestDatabaseParsing:
    def test_identifiers_become_constants(self):
        db = parse_database("R(a, b). P(b).")
        assert fact("R", "a", "b") in db
        assert fact("P", "b") in db

    def test_multiline(self):
        db = parse_database(
            """
            R(a, b)
            P(b)
            """
        )
        assert len(db) == 2

    def test_zero_ary_fact(self):
        db = parse_database("Goal()")
        assert atom("Goal") in db

    def test_comment_after_a_final_period(self):
        assert set(parse_database("P(a). # note")) == {fact("P", "a")}


class TestQuotedSeparators:
    """Statements split at periods and disjuncts at bars only outside
    quoted constants, so every constant the serializer quotes reads back."""

    def test_period_inside_a_quoted_constant(self):
        db = parse_database("R('a. b'). P(c).")
        assert set(db) == {fact("R", "a. b"), fact("P", "c")}

    def test_bar_inside_a_quoted_constant(self):
        omq = parse_omq("schema: B/2\nquery: q(x) :- B(x, 'p | q')\n")
        assert omq.query == CQ((x,), (atom("B", x, Constant("p | q")),), "q")

    def test_document_round_trip(self):
        y = Variable("y")
        omq = OMQ(
            Schema({"B": 2}),
            tuple(parse_tgds("B(x, y) -> P(x)")),
            UCQ(
                (
                    CQ((x,), (atom("B", x, Constant("p | q")),), "q"),
                    CQ((x,), (atom("B", x, y), atom("P", Constant("a. b"))), "q"),
                ),
                "q",
            ),
        )
        assert parse_omq(omq_to_document(omq)) == omq


#: One input per error path, and the message it raises: the message it
#: raised before statements and disjuncts were split on tokens, and for a
#: non-numeric schema arity the one a missing arity gives.
ERRORS = [
    (parse_atom, "R(x$)", "unexpected character '$' at offset 3"),
    (parse_atom, " R(x$)", "unexpected character '$' at offset 4"),
    (parse_atom, "R(x y)", "expected rpar, got 'y'"),
    (parse_atom, "(x)", "expected ident, got '('"),
    (parse_atom, "R(x,", "unexpected end of input"),
    (parse_atom, "R(->)", "expected a term, got '->'"),
    (parse_atom, "R(x) R(y)", "trailing input after atom: 'R(x) R(y)'"),
    (parse_tgd, "P(x) R(x)", "expected arrow, got 'R'"),
    (parse_tgd, "P(x) ->", "unexpected end of input"),
    (parse_tgd, "P(x) -> R(x) S", "trailing input after tgd: 'P(x) -> R(x) S'"),
    (parse_tgds, "P(x) -> Q(x)\nR(x$) -> S(x)", "unexpected character '$' at offset 3"),
    (parse_tgds, "P(x) -> Q(x). R($) -> S(x)", "unexpected character '$' at offset 2"),
    (parse_tgds, "P(x).Q(x)", "expected arrow, got '.'"),
    (parse_tgds, "P(x) -> Q(x) S(x) .. T(x) -> U(x)", "trailing input after tgd: 'P(x) -> Q(x) S(x) '"),
    (parse_cq, "q(x) :-", "unexpected end of input"),
    (parse_cq, "q(x) P(x) :- P(x)", "expected entails, got 'P'"),
    (parse_cq, "q(x) :- P(x) Q(x)", "trailing input after CQ: 'q(x) :- P(x) Q(x)'"),
    (parse_cq, "P(x) Q(x)", "trailing input after CQ body: 'P(x) Q(x)'"),
    (parse_ucq, "q(x) :- P(x) | q(x) :- T($)", "unexpected character '$' at offset 10"),
    (parse_ucq, "   ", "empty UCQ"),
    (parse_ucq, "% only a comment", "empty UCQ"),
    (parse_database, "R(a) S(b)", "trailing input in database statement: 'R(a) S(b)'"),
    (parse_database, "R(a). P(b$)", "unexpected character '$' at offset 3"),
    (parse_omq, "rules:\n P(x) -> Q(x)\nquery: q(x) :- Q(x)\n", "missing 'schema:' section"),
    (parse_omq, "schema: P/1\nrules:\n P(x) -> Q(x)\n", "missing 'query:' section"),
    (parse_omq, "P(x)\nschema: P/1\nquery: q(x) :- P(x)\n", "line outside any section: 'P(x)'"),
    (parse_omq, "schema: P\nquery: q(x) :- P(x)\n", "schema entries look like Name/arity: 'P'"),
    (parse_omq, "schema: P/x\nquery: q(x) :- P(x)\n", "schema entries look like Name/arity: 'P/x'"),
]


@pytest.mark.parametrize("parse, text, message", ERRORS)
def test_error_messages(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
