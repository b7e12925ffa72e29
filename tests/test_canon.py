"""Canonical hashing (repro.engine.canon): the cache-key algebra.

The engine's cache is only as good as these invariants: α-renaming,
body-atom reordering, rule reordering, and disjunct reordering must not
change a hash, while semantically distinct inputs must (with overwhelming
probability) get distinct hashes.
"""

import pytest

from repro import OMQ, Schema, parse_cq, parse_tgds
from repro.core.queries import UCQ
from repro.engine.canon import (
    canonical_cq,
    canonical_tgd,
    canonical_tgds,
    hash_cq,
    hash_omq,
    hash_tgds,
    hash_ucq,
)


class TestCQHashing:
    def test_alpha_renaming_invariant(self):
        q1 = parse_cq("q(x) :- R(x, y), P(y)")
        q2 = parse_cq("q(a) :- R(a, b), P(b)")
        assert hash_cq(q1) == hash_cq(q2)

    def test_body_reordering_invariant(self):
        q1 = parse_cq("q(x) :- R(x, y), P(y), S(y, z)")
        q2 = parse_cq("q(x) :- S(y, z), P(y), R(x, y)")
        assert hash_cq(q1) == hash_cq(q2)

    def test_rename_and_reorder_together(self):
        q1 = parse_cq("q(x, y) :- E(x, z), E(z, y), A(z)")
        q2 = parse_cq("q(u, v) :- A(m), E(m, v), E(u, m)")
        assert hash_cq(q1) == hash_cq(q2)

    def test_query_name_is_cosmetic(self):
        q1 = parse_cq("q(x) :- P(x)")
        q2 = parse_cq("answers(x) :- P(x)")
        assert hash_cq(q1) == hash_cq(q2)

    def test_head_order_is_semantic(self):
        q1 = parse_cq("q(x, y) :- R(x, y)")
        q2 = parse_cq("q(y, x) :- R(x, y)")
        assert hash_cq(q1) != hash_cq(q2)

    def test_distinct_bodies_differ(self):
        assert hash_cq(parse_cq("q(x) :- P(x)")) != hash_cq(
            parse_cq("q(x) :- T(x)")
        )

    def test_constants_are_distinguished(self):
        q1 = parse_cq("q(x) :- R(x, 'a')")
        q2 = parse_cq("q(x) :- R(x, 'b')")
        assert hash_cq(q1) != hash_cq(q2)

    def test_repeated_variable_vs_fresh(self):
        # R(x, x) is not isomorphic to R(x, y).
        q1 = parse_cq("q() :- R(x, x)")
        q2 = parse_cq("q() :- R(x, y)")
        assert hash_cq(q1) != hash_cq(q2)

    def test_symmetric_query_canonicalizes_exactly(self):
        # A 2-cycle has an automorphism swapping the variables; the exact
        # tie-break must still produce one canonical form.
        q1 = parse_cq("q() :- E(x, y), E(y, x)")
        q2 = parse_cq("q() :- E(b, a), E(a, b)")
        form1, form2 = canonical_cq(q1), canonical_cq(q2)
        assert form1.exact and form2.exact
        assert form1.text == form2.text

    def test_triangle_vs_path(self):
        triangle = parse_cq("q() :- E(x, y), E(y, z), E(z, x)")
        path = parse_cq("q() :- E(x, y), E(y, z), E(z, w)")
        assert hash_cq(triangle) != hash_cq(path)


class TestTGDHashing:
    def test_rule_alpha_invariance(self):
        t1 = parse_tgds("R(x, y), P(y) -> T(x, y, w)")[0]
        t2 = parse_tgds("R(a, b), P(b) -> T(a, b, c)")[0]
        assert canonical_tgd(t1).text == canonical_tgd(t2).text

    def test_rule_order_invariance(self):
        s1 = parse_tgds("P(x) -> R(x, w)\nR(x, y) -> P(y)")
        s2 = parse_tgds("R(u, v) -> P(v)\nP(u) -> R(u, w)")
        assert hash_tgds(s1) == hash_tgds(s2)

    def test_duplicate_rules_collapse(self):
        s1 = parse_tgds("P(x) -> Q(x)")
        s2 = parse_tgds("P(x) -> Q(x)\nP(y) -> Q(y)")
        assert hash_tgds(s1) == hash_tgds(s2)

    def test_figure1_sets_differ(self, figure1_sticky, figure1_non_sticky):
        # The two Figure 1 tgd sets differ in one head variable — their
        # hashes must differ.
        assert hash_tgds(figure1_sticky) != hash_tgds(figure1_non_sticky)

    def test_body_head_sides_matter(self):
        t1 = parse_tgds("P(x) -> Q(x)")
        t2 = parse_tgds("Q(x) -> P(x)")
        assert hash_tgds(t1) != hash_tgds(t2)

    def test_existential_vs_frontier(self):
        t1 = parse_tgds("P(x) -> R(x, x)")
        t2 = parse_tgds("P(x) -> R(x, w)")
        assert hash_tgds(t1) != hash_tgds(t2)


class TestOMQHashing:
    def _omq(self, rules: str, query: str, schema=None):
        return OMQ(
            schema or Schema.of(P=1, T=1),
            tuple(parse_tgds(rules)),
            parse_cq(query),
        )

    def test_full_omq_invariance(self):
        q1 = self._omq(
            "P(x) -> R(x, w)\nR(x, y) -> P(y)", "q(x) :- R(x, y), P(y)"
        )
        q2 = OMQ(
            Schema.of(P=1, T=1),
            tuple(reversed(parse_tgds("P(a) -> R(a, b)\nR(a, b) -> P(b)"))),
            parse_cq("q(u) :- P(v), R(u, v)"),
            name="renamed",
        )
        assert hash_omq(q1) == hash_omq(q2)

    def test_schema_matters(self):
        q1 = self._omq("P(x) -> Q(x)", "q(x) :- Q(x)", Schema.of(P=1))
        q2 = self._omq("P(x) -> Q(x)", "q(x) :- Q(x)", Schema.of(P=1, T=1))
        assert hash_omq(q1) != hash_omq(q2)

    def test_figure1_omqs_differ(self, figure1_sticky, figure1_non_sticky):
        schema = Schema.of(R=2, P=2)
        query = parse_cq("q(x) :- S(x, y)")
        omq1 = OMQ(schema, tuple(figure1_sticky), query)
        omq2 = OMQ(schema, tuple(figure1_non_sticky), query)
        assert hash_omq(omq1) != hash_omq(omq2)

    def test_disjunct_order_invariance(self):
        schema = Schema.of(A=1, B=1)
        u1 = UCQ.of(parse_cq("q(x) :- A(x)"), parse_cq("q(x) :- B(x)"))
        u2 = UCQ.of(parse_cq("q(y) :- B(y)"), parse_cq("q(y) :- A(y)"))
        assert hash_ucq(u1) == hash_ucq(u2)
        assert hash_omq(OMQ(schema, (), u1)) == hash_omq(OMQ(schema, (), u2))


class TestCanonicalFormProperties:
    @pytest.mark.parametrize(
        "text",
        [
            "q(x) :- R(x, y), P(y)",
            "q() :- E(x, y), E(y, z), E(z, x)",
            "q(x, y) :- R(x, z), R(z, y), R(y, x)",
            "q(x) :- R(x, x)",
        ],
    )
    def test_exact_for_small_queries(self, text):
        assert canonical_cq(parse_cq(text)).exact

    def test_hash_is_hex_sha256(self):
        h = hash_cq(parse_cq("q(x) :- P(x)"))
        assert len(h) == 64
        int(h, 16)  # parses as hex

    def test_isomorphic_queries_share_canonical_text(self):
        # Cross-check against the library's own isomorphism test.
        q1 = parse_cq("q(x) :- R(x, y), S(y, z), R(z, x)")
        q2 = parse_cq("q(m) :- R(n, m), S(o, n), R(m, o)")
        assert q1.is_isomorphic_to(q2) == (
            canonical_cq(q1).text == canonical_cq(q2).text
        )


def test_hashing_interns_no_terms():
    """Canonical labeling keys variables by name, so hashing adds nothing
    to the kernel's process-wide intern table (which a serving replica
    keeps for its lifetime)."""
    import random
    import zlib

    from repro.generators import random_omq_pair
    from repro.kernel.intern import INTERN

    rng = random.Random(zlib.crc32(b"intern"))
    pairs = [random_omq_pair("linear", rng, "alpha")[:2] for _ in range(300)]
    before = INTERN.sizes()
    for q1, q2 in pairs:
        hash_omq(q1)
        hash_omq(q2)
    assert INTERN.sizes() == before
