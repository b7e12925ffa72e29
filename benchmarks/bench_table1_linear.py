"""T1-L: Table 1, row Linear.

Paper: Cont((L,CQ)) is PSpace-complete (Π2p for fixed arity) and — the
applicability discussion — the runtime is single-exponential only in the
size of the UCQs and the arity, *not* in the ontology.  Eval(L,CQ) has the
same complexity: linear is the one row where containment is no harder than
evaluation.

Measured shape:

* witness databases stay bounded by |q| (Proposition 12) as the *ontology*
  grows — the witness series is flat in the chain length;
* containment time grows modestly with ontology size (polynomial-looking),
  in contrast to the doubling series of the NR/sticky benches.
"""

import pytest

from conftest import is_roughly_flat, print_table
from repro.containment import contains_via_small_witness
from repro.evaluation import cached_rewriting
from repro.generators import linear_chain, linear_witness_family
from repro.rewriting import f_linear

CHAIN_LENGTHS = [2, 4, 8, 16]
QUERY_SIZES = [1, 2, 3, 4]


@pytest.mark.parametrize("length", CHAIN_LENGTHS)
def test_containment_scales_with_ontology(benchmark, length):
    """Self-containment of a linear chain OMQ as the ontology grows."""
    omq = linear_chain(length)

    def run():
        cached_rewriting.cache_clear()
        # Call the small-witness procedure directly so the timing reflects
        # Theorem 11's algorithm, not the entailment check.
        return contains_via_small_witness(omq, omq)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.is_contained


@pytest.mark.parametrize("size", QUERY_SIZES)
def test_rewriting_scales_with_query(benchmark, size):
    """XRewrite of a path query of growing size (the PSpace driver)."""
    omq = linear_witness_family(size)

    def run():
        cached_rewriting.cache_clear()
        return cached_rewriting(omq, 20_000)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.complete


def test_witness_size_flat_in_ontology(benchmark):
    def _shape_check():
        """Prop 12 shape: witnesses track |q|, not the ontology size."""
        rows = []
        witness_sizes = []
        for length in CHAIN_LENGTHS:
            omq = linear_chain(length)
            rewriting = cached_rewriting(omq, 20_000)
            measured = rewriting.rewriting.max_disjunct_size()
            bound = f_linear(omq)
            witness_sizes.append(measured)
            rows.append([length, measured, bound])
            assert measured <= bound
        print_table(
            "T1-L: witness size vs ontology size (paper: bounded by |q|)",
            ["chain length", "max disjunct", "f_L bound"],
            rows,
        )
        assert is_roughly_flat(witness_sizes)



    benchmark.pedantic(_shape_check, rounds=1, iterations=1)


def test_witness_size_tracks_query(benchmark):
    def _shape_check():
        """Prop 12: witnesses grow (at most linearly) with the query."""
        rows = []
        sizes = []
        for size in QUERY_SIZES:
            omq = linear_witness_family(size)
            rewriting = cached_rewriting(omq, 20_000)
            measured = rewriting.rewriting.max_disjunct_size()
            sizes.append(measured)
            rows.append([size, measured, f_linear(omq)])
            assert measured <= f_linear(omq)
        print_table(
            "T1-L: witness size vs query size",
            ["|q|", "max disjunct", "f_L bound"],
            rows,
        )
        assert sizes == QUERY_SIZES  # exactly |q| for the path family

    benchmark.pedantic(_shape_check, rounds=1, iterations=1)


