import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import factorlab.freealg
from factorlab.core import FiniteAlgebra, Signature, eval_term, pair_index
from factorlab.errors import ResourceBoundError, ValidationError
from factorlab.freealg import free_algebra, free_pair_context
from conftest import FIXTURES
from corpus import boolean_algebra2, chain_lattice, cyclic_ring
from factorlab.fileio import load_context
from factorlab.terms import Var, is_closed, term_text
from oracles import free_algebra_pointwise, is_homomorphism, term_function_vectors


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
    tables = (
        tuple((a - b) % 3 for a, b in itertools.product(range(3), repeat=2)),
        tuple((a - b + c) % 3 for a, b, c in itertools.product(range(3), repeat=3)),
        tuple(-a % 3 for a in range(3)),
    )
    sig = Signature((("-", 2), ("p", 3), ("neg", 1)))
    base = FiniteAlgebra(sig, 3, tables, "Z3-")
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
            term = fa.witnesses[e]
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


def test_vector_cell_cap_reports_partial(z2, monkeypatch):
    # rank 2 over Z2 has 4 points and 16 elements: 2 x 4 generator cells
    # fit under a cap of 40, the eleventh element does not
    monkeypatch.setattr(factorlab.freealg, "MAX_VECTOR_CELLS", 40)
    with pytest.raises(ResourceBoundError) as info:
        free_algebra(z2, 2)
    assert str(info.value).startswith("free_algebra: 11 carrier vectors")
    assert "need 44 vector cells, over the cap 40" in str(info.value)
    assert "partial carrier size 10" in str(info.value)


def test_vector_cell_cap_checked_before_the_point_grid(z2, monkeypatch):
    # a one-element base has one point at every rank; the rank alone counts
    trivial = FiniteAlgebra(Signature((("c", 0),)), 1, ((0,),), "T")

    def no_grid(*args, **kwargs):
        raise AssertionError("point grid built before the cell check")

    monkeypatch.setattr(factorlab.freealg.itertools, "product", no_grid)
    # 30 x 2**19 is the first product over the cap: n**rank is not formed
    with pytest.raises(
        ResourceBoundError,
        match="at least 15728640 vector cells, over the cap 10000000",
    ):
        free_algebra(z2, 30)
    monkeypatch.setattr(factorlab.freealg, "MAX_VECTOR_CELLS", 1000)
    with pytest.raises(ResourceBoundError, match="at least 1001 vector cells"):
        free_algebra(trivial, 1001)


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
                eval_term(b, fa.witnesses[e], env) for e in range(fa.size)
            )
            assert is_homomorphism(fa.algebra, b, h)


def test_free_pair_context_z2(rings_ctx):
    fpc = free_pair_context(rings_ctx)
    assert fpc.f1.size == 4 and fpc.f2.size == 16
    assert fpc.f1.size * fpc.f2.size == 64
    assert fpc.x != fpc.y
    # distinguished parameters decode to (zero-side, one-side) constants
    u, v = fpc.split(fpc.z[0])
    assert fpc.f1.vectors[u] == (1, 1)  # zero term is the ring unit here
    assert fpc.f2.vectors[v] == (0, 0, 0, 0)


def test_free_pair_context_lattice(lattices_ctx):
    fpc = free_pair_context(lattices_ctx)
    assert fpc.f1.size == 3 and fpc.f2.size == 6
    assert fpc.f1.size * fpc.f2.size == 18
    assert fpc.x == pair_index(fpc.f1.generators[0], fpc.f2.generators[0], 6)


def test_free_pair_distinct_generators_separate(rings_ctx):
    fpc = free_pair_context(rings_ctx)
    # x and y differ exactly in the rank-2 coordinate
    assert fpc.split(fpc.x)[0] == fpc.split(fpc.y)[0]
    assert fpc.split(fpc.x)[1] != fpc.split(fpc.y)[1]


def _outcome(build, base, rank, budget):
    try:
        fa = build(base, rank, budget=budget)
    except (ResourceBoundError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    return fa.vectors, fa.witnesses, fa.generators, fa.algebra.tables


@st.composite
def small_bases(draw):
    """Bases of size <= 4: up to two constants, a unary and a binary
    operation and an optional ternary one, in a random signature order."""
    n = draw(st.integers(1, 4))
    element = st.integers(0, n - 1)
    symbols = [(f"c{i}", 0) for i in range(draw(st.integers(0, 2)))]
    symbols += [("u", 1), ("b", 2)]
    if draw(st.booleans()):
        symbols.append(("t", 3))
    symbols = draw(st.permutations(symbols))
    tables = tuple(
        tuple(draw(st.lists(element, min_size=n**k, max_size=n**k)))
        for _, k in symbols
    )
    return FiniteAlgebra(Signature(tuple(symbols)), n, tables, f"R{n}")


CHAIN17_MAX = FiniteAlgebra(
    Signature((("max", 2), ("rev", 1))),
    17,
    (
        tuple(max(a, b) for a, b in itertools.product(range(17), repeat=2)),
        tuple(16 - a for a in range(17)),
    ),
    "C17",
)


Z17_MINUS = FiniteAlgebra(
    Signature((("-", 2),)),
    17,
    (tuple((a - b) % 17 for a, b in itertools.product(range(17), repeat=2)),),
    "Z17-",
)


# 257 elements: carrier vectors are tuples, not bytes.
FLIP257 = FiniteAlgebra(
    Signature((("0", 0), ("s", 1), ("max", 2))),
    257,
    (
        (0,),
        tuple(a ^ 1 if a ^ 1 < 257 else a for a in range(257)),
        tuple(max(a, b) for a, b in itertools.product(range(257), repeat=2)),
    ),
    "F257",
)


NAND2 = FiniteAlgebra(Signature((("nand", 2),)), 2, ((1, 1, 1, 0),), "NAND")


@given(base=small_bases(), rank=st.integers(0, 2), budget=st.integers(1, 60))
# 17**2 > 256, so the binary operations take the per-point kernel and rev
# the byte kernel.  The closures have 4 and 82 elements over C17, and 17 over
# Z17-, whose subtraction also pins the argument order.
@example(base=CHAIN17_MAX, rank=1, budget=1000)
@example(base=CHAIN17_MAX, rank=2, budget=1000)
@example(base=Z17_MINUS, rank=1, budget=1000)
# Over more than 256 elements the carrier is keyed by tuples (18 elements).
@example(base=FLIP257, rank=1, budget=1000)
# Primal bases reach the whole power, where the closure stops: B2 at rank 0
# with its constants alone, in the middle of a round at rank 3, and Z2 and
# NAND (no constants) likewise.  At rank 3 the 256th element is exactly the
# budget 256; one less raises the budget error before the stop.
@example(base=boolean_algebra2(), rank=0, budget=1000)
@example(base=boolean_algebra2(), rank=3, budget=256)
@example(base=boolean_algebra2(), rank=3, budget=255)
@example(base=cyclic_ring(2), rank=3, budget=1000)
@example(base=NAND2, rank=2, budget=1000)
def test_free_algebra_matches_pointwise_closure(base, rank, budget):
    expected = _outcome(free_algebra_pointwise, base, rank, budget)
    assert _outcome(free_algebra, base, rank, budget) == expected



# Row-kernel results free_algebra computes, each one bytes.translate, at
# ranks 0-3.  B2 and Z2 are primal, so every rank reaches the whole power
# 2**(2**rank) and the closure stops there; closed to the end, the counts
# were 10 / 36 / 528 / 131,328 and 8 / 32 / 512 / 131,072.
KERNEL_WORK = {"boolean": (0, 21, 240, 59_414), "rings": (0, 3, 112, 9_350)}


@pytest.mark.parametrize("ctx_name", sorted(KERNEL_WORK))
def test_row_kernel_work_is_pinned(ctx_name, monkeypatch):
    count = [0]
    make = factorlab.freealg._row_kernel

    def counting(*args):
        row = make(*args)

        def counted(prefix, lo, hi):
            count[0] += hi - lo
            return row(prefix, lo, hi)

        return counted

    monkeypatch.setattr(factorlab.freealg, "_row_kernel", counting)
    base = load_context(str(FIXTURES / f"{ctx_name}.ctx")).generator
    work = []
    for rank in range(4):
        count[0] = 0
        assert free_algebra(base, rank).size == 2 ** 2**rank
        work.append(count[0])
    assert tuple(work) == KERNEL_WORK[ctx_name]


def test_full_power_stop_comes_after_both_caps(monkeypatch):
    # the 256th element of F3(B2) completes the power; adding it is still
    # checked against the budget and the cell cap (256 x 8 = 2048 cells)
    b2 = boolean_algebra2()
    assert free_algebra(b2, 3, budget=256).size == 256
    with pytest.raises(ResourceBoundError) as info:
        free_algebra(b2, 3, budget=255)
    assert str(info.value) == (
        "free algebra closure over 'B2' exceeded budget 255 (partial carrier "
        "size 255); shrink the base algebra or raise the budget"
    )
    monkeypatch.setattr(factorlab.freealg, "MAX_VECTOR_CELLS", 2048)
    assert free_algebra(b2, 3).size == 256
    monkeypatch.setattr(factorlab.freealg, "MAX_VECTOR_CELLS", 2047)
    with pytest.raises(ResourceBoundError) as info:
        free_algebra(b2, 3)
    assert str(info.value) == (
        "free_algebra: 256 carrier vectors over 'B2' need 2048 vector cells, "
        "over the cap 2047 (partial carrier size 255); lower the rank or "
        "shrink the base algebra"
    )
