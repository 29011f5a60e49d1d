import itertools

import pytest

from factorlab import (
    FiniteAlgebra,
    ResourceBoundError,
    Signature,
    eval_term,
    free_algebra,
    free_pair_context,
    is_homomorphism,
    pair_index,
)
from factorlab.fixtures import boolean_algebra2, chain_lattice, cyclic_ring
from factorlab.terms import Var, is_closed, term_text
from oracles import term_function_vectors


def test_free_rank1_z2_ring(z2):
    fa = free_algebra(z2, 1)
    assert fa.size == 4
    assert [term_text(t) for t in fa.witnesses] == ["x", "0", "1", "x + 1"]


def test_free_rank1_boolean():
    fa = free_algebra(boolean_algebra2(), 1)
    assert fa.size == 4


def test_free_rank1_chain3():
    fa = free_algebra(chain_lattice(3), 1)
    assert fa.size == 3  # bottom, generator, top


def test_free_rank2_z2_ring(z2):
    assert free_algebra(z2, 2).size == 16


def test_free_rank2_chain3():
    assert free_algebra(chain_lattice(3), 2).size == 6


def test_free_rank1_z6_ring(z6):
    # one-variable polynomial functions: 4 mod 2 times 27 mod 3
    assert free_algebra(z6, 1).size == 108


def test_free_matches_independent_enumeration(z2):
    for base, rank in [(z2, 1), (boolean_algebra2(), 1), (chain_lattice(3), 2)]:
        fa = free_algebra(base, rank)
        assert set(fa.vectors) == term_function_vectors(base, rank)


def test_free_tables_of_a_noncommutative_base():
    # subtraction is not commutative and p has arity 3, so argument order and
    # the general pointwise path are both exercised, in the closure and in
    # the carrier tables
    ops = {
        "-": [(a - b) % 3 for a, b in itertools.product(range(3), repeat=2)],
        "p": [(a - b + c) % 3 for a, b, c in itertools.product(range(3), repeat=3)],
        "neg": [-a % 3 for a in range(3)],
    }
    sig = Signature((("-", 2), ("p", 3), ("neg", 1)))
    base = FiniteAlgebra.from_ops(sig, 3, ops, "Z3-")
    for rank in (1, 2):
        fa = free_algebra(base, rank)
        assert set(fa.vectors) == term_function_vectors(base, rank)
        for (sym, arity), table in zip(sig.symbols, fa.algebra.tables):
            for i, args in enumerate(itertools.product(range(fa.size), repeat=arity)):
                expected = tuple(
                    base.apply(sym, [fa.vectors[a][p] for a in args])
                    for p in range(3**rank)
                )
                assert fa.vectors[table[i]] == expected


def test_free_size_bounds(z2, z6):
    for base in (z2, chain_lattice(3)):
        assert free_algebra(base, 1).size <= base.size**base.size
        assert free_algebra(base, 2).size <= base.size ** (base.size**2)


def test_generator_witnesses_are_variables(z2):
    fa = free_algebra(z2, 2)
    assert fa.witnesses[fa.generators[0]] == Var("x")
    assert fa.witnesses[fa.generators[1]] == Var("y")


def test_constant_elements_have_closed_witnesses(z2):
    fa = free_algebra(z2, 1)
    zero_vec = (0,) * 2
    idx = fa.vectors.index(zero_vec)
    assert is_closed(fa.witnesses[idx])


def test_generator_vectors_are_projections(z6):
    fa = free_algebra(z6, 1)
    assert fa.vectors[fa.generators[0]] == tuple(range(6))


def test_witness_terms_reproduce_vectors(z2):
    for base, rank in [(z2, 2), (chain_lattice(3), 2), (cyclic_ring(3), 1)]:
        fa = free_algebra(base, rank)
        points = list(itertools.product(range(base.size), repeat=rank))
        for e in range(fa.size):
            term = fa.element_term(e)
            computed = tuple(
                eval_term(base, term, dict(zip(fa.var_names, pt)))
                for pt in points
            )
            assert computed == fa.vectors[e]


def test_rank0_is_constant_subalgebra(z6):
    fa = free_algebra(z6, 0)
    assert fa.size == 6  # constants 0 and 1 generate everything under +
    assert all(is_closed(t) for t in fa.witnesses)


def test_budget_exceeded_reports_partial(z6):
    with pytest.raises(ResourceBoundError, match="partial carrier size"):
        free_algebra(z6, 2, budget=500)


def test_universality_sampled(z2, rings_ctx):
    # every map of generators into a pool member must extend, via the witness
    # terms, to a homomorphism from the free algebra
    fa = free_algebra(z2, 2)
    for b in rings_ctx.pool_algebras:
        if b.size**fa.rank > 64:
            continue
        for image in itertools.product(range(b.size), repeat=fa.rank):
            env = dict(zip(fa.var_names, image))
            h = tuple(
                eval_term(b, fa.element_term(e), env) for e in range(fa.size)
            )
            assert is_homomorphism(fa.algebra, b, h)


def test_free_pair_context_z2(rings_ctx):
    fpc = free_pair_context(rings_ctx)
    assert fpc.f1.size == 4 and fpc.f2.size == 16
    assert fpc.product.size == 64
    assert fpc.x != fpc.y
    # distinguished parameters decode to (zero-side, one-side) constants
    u, v = fpc.split(fpc.z[0])
    assert fpc.f1.vectors[u] == (1, 1)  # zero term is the ring unit here
    assert fpc.f2.vectors[v] == (0, 0, 0, 0)


def test_free_pair_context_lattice(lattices_ctx):
    fpc = free_pair_context(lattices_ctx)
    assert fpc.f1.size == 3 and fpc.f2.size == 6
    assert fpc.product.size == 18
    assert fpc.x == pair_index(fpc.f1.generators[0], fpc.f2.generators[0], 6)


def test_free_pair_distinct_generators_separate(rings_ctx):
    fpc = free_pair_context(rings_ctx)
    # x and y differ exactly in the rank-2 coordinate
    assert fpc.split(fpc.x)[0] == fpc.split(fpc.y)[0]
    assert fpc.split(fpc.x)[1] != fpc.split(fpc.y)[1]
