"""Self-test: the answer checks catch planted wrong answers.

    python3 perfbench/selftest.py

Feeds :class:`perfbench.oracle.Checker` one genuine answer and one
planted wrong one for each of the six properties, and exits 0 only if
every genuine answer passes and every planted one is caught.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, corpus, oracle


def main() -> int:
    repro = common.import_program()
    from repro.generators import alpha_rename, linear_chain, linear_witness_family
    from repro.reductions import prop18_family

    rng = random.Random(0)
    chain = linear_chain(4)
    copy = alpha_rename(chain, rng)
    short, long_ = linear_witness_family(2), linear_witness_family(4)
    refuted = repro.contains(short, long_)
    assert str(refuted.verdict) == "not-contained", refuted
    genuine_witness = oracle.plain_witness(refuted.witness)
    facts, answer = genuine_witness
    p_chain, p_copy = oracle.plain_omq(chain), oracle.plain_omq(copy)
    p_short, p_long = oracle.plain_omq(short), oracle.plain_omq(long_)
    # A path of four edges: Q2 (a 4-path) holds on it, so it refutes nothing.
    bogus_facts = {("E", (("c", f"b{i}"), ("c", f"b{i + 1}"))) for i in range(4)}
    from repro.core.parser import parse_omq

    edge = oracle.plain_omq(parse_omq("schema: E/2\nquery: q(x) :- E(x, y)\n"))
    two = oracle.plain_omq(
        parse_omq("schema: E/2\nquery: q(x) :- E(x, y), E(y, z)\n")
    )
    q18 = prop18_family(4)
    small = repro.contains(q18, corpus.unsatisfiable_side(q18))

    trials = [
        # (name, should be caught, check)
        ("genuine NOT_CONTAINED witness", False,
         lambda c: c.verdict("g1", p_short, p_long, None, "not-contained",
                             refuted.detail, genuine_witness, rng)),
        ("bogus witness (c̄ ∈ Q2(D))", True,
         lambda c: c.verdict("b1", p_short, p_long, None, "not-contained",
                             "planted", (bogus_facts, answer), rng)),
        ("bogus witness (c̄ ∉ Q1(D))", True,
         lambda c: c.verdict("b2", p_short, p_long, None, "not-contained",
                             "planted", (set(), answer), rng)),
        ("genuine CONTAINED α-copy", False,
         lambda c: c.verdict("g2", p_chain, p_copy, "alpha-copy", "contained",
                             "", None, rng)),
        ("α-copy refuted", True,
         lambda c: c.never_refuted("b3", "alpha-copy", "not-contained")),
        ("genuine CONTAINED (2-path in 1-path)", False,
         lambda c: c.verdict("g5", two, edge, None, "contained", "", None, rng)),
        ("wrong CONTAINED verdict (1-path in 2-path)", True,
         lambda c: c.verdict("b4", edge, two, None, "contained", "", None, rng)),
        ("genuine prop18 witness", False,
         lambda c: c.prop18("g3", 4, str(small.verdict),
                            len(small.witness.database.atoms))),
        ("prop18 witness too small", True,
         lambda c: c.prop18("b5", 4, "not-contained", 3)),
        ("served verdict contradicts the library", True,
         lambda c: c.agrees("b6", "contained", "not-contained")),
        ("served UNKNOWN beside a decided library verdict", False,
         lambda c: c.agrees("g4", "unknown", "contained")),
        ("UNKNOWN without a reason", True,
         lambda c: c.reason("b7", "unknown", "")),
    ]
    failures = 0
    for name, planted, trial in trials:
        checker = oracle.Checker()
        trial(checker)
        caught = not checker.correct
        ok = caught == planted
        failures += not ok
        outcome = "caught" if caught else "passed"
        print(f"{'ok ' if ok else 'BAD'} {name}: {outcome} {checker.violations[:1]}")
    print(f"{len(trials) - failures}/{len(trials)} as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
