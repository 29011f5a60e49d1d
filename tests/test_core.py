import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import factorlab.congruences
import factorlab.variety
from conftest import FIXTURES
from factorlab import (
    EvalError,
    FiniteAlgebra,
    Signature,
    ValidationError,
    direct_product,
    eval_term,
    generate_pool,
    pair_index,
    pair_split,
    subalgebra_generated,
    verify_zero_one_condition,
)
from factorlab.fileio import load_context
from corpus import (
    chain_lattice,
    cyclic_ring,
    lattice_context,
    ring_context,
)
from factorlab.terms import App, Var
from oracles import (
    direct_product_cellwise,
    generate_pool_rescan,
    is_homomorphism,
    subalgebra_generated_rounds,
)


def test_table_validation_lengths():
    sig = Signature((("f", 2),))
    with pytest.raises(ValidationError, match="table for 'f'"):
        FiniteAlgebra(sig, 2, ((0, 1, 0),), "bad")


def test_table_validation_range():
    sig = Signature((("f", 1),))
    with pytest.raises(ValidationError, match="out of range"):
        FiniteAlgebra(sig, 2, ((0, 5),), "bad")


def test_nullary_table_has_length_one():
    sig = Signature((("c", 0),))
    with pytest.raises(ValidationError):
        FiniteAlgebra(sig, 3, ((0, 1),), "bad")
    ok = FiniteAlgebra(sig, 3, ((2,),), "ok")
    assert ok.apply("c") == 2


def test_eval_term_square(z6):
    t = App("*", (Var("x"), Var("x")))
    assert eval_term(z6, t, {"x": 3}) == 3
    assert eval_term(z6, t, {"x": 4}) == 4


def test_eval_term_variable_identity(z6):
    for k in range(6):
        assert eval_term(z6, Var("x"), {"x": k}) == k


def test_eval_term_closed_constant(z6):
    assert eval_term(z6, App("1"), {}) == 1


def test_eval_term_errors(z6):
    with pytest.raises(EvalError, match="unbound variable"):
        eval_term(z6, Var("q"), {"x": 1})
    with pytest.raises(EvalError, match="unknown symbol"):
        eval_term(z6, App("frob", (Var("x"),)), {"x": 1})
    with pytest.raises(EvalError, match="arity mismatch"):
        eval_term(z6, App("+", (Var("x"),)), {"x": 1})


def test_product_cardinality():
    p = direct_product(cyclic_ring(2), cyclic_ring(3))
    assert p.size == 6


def test_product_projections_are_homomorphisms():
    a, b = cyclic_ring(2), cyclic_ring(3)
    p = direct_product(a, b)
    p1 = tuple(pair_split(e, b.size)[0] for e in range(p.size))
    p2 = tuple(pair_split(e, b.size)[1] for e in range(p.size))
    assert is_homomorphism(p, a, p1)
    assert is_homomorphism(p, b, p2)


def test_product_pair_encoding_round_trip():
    for a in range(4):
        for b in range(5):
            assert pair_split(pair_index(a, b, 5), 5) == (a, b)


def test_product_signature_mismatch():
    with pytest.raises(ValidationError, match="signature mismatch"):
        direct_product(cyclic_ring(2), chain_lattice(2))


@st.composite
def algebra_pairs(draw):
    """Two algebras of size <= 4 over one signature of 1-3 operations of
    arity 0-3, each table random."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    signature = Signature(tuple((f"f{i}", a) for i, a in enumerate(arities)))
    pair = []
    for name in "AB":
        n = draw(st.integers(1, 4))
        tables = tuple(
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
            for k in arities
        )
        pair.append(FiniteAlgebra(signature, n, tables, name))
    return pair


_CONST_TERNARY = Signature((("c", 0), ("t", 3)))


@given(algebra_pairs())
@example([FiniteAlgebra(_CONST_TERNARY, 2, ((1,), (0, 1) * 4), "A"),
          FiniteAlgebra(_CONST_TERNARY, 3, ((2,), tuple(range(3)) * 9), "B")])
def test_product_matches_cellwise_tables(pair):
    a, b = pair
    assert direct_product(a, b) == direct_product_cellwise(a, b)


def test_pool_products_match_cellwise_tables():
    ctx = load_context(str(FIXTURES / "lattices.ctx"))
    members = [e.algebra for e in generate_pool(ctx, max_size=27, depth=3)]
    pairs = [(a, b) for a in members for b in members if a.size * b.size <= 27]
    assert len(pairs) == 223
    for a, b in pairs:
        assert direct_product(a, b) == direct_product_cellwise(a, b)


def test_z2xz3_isomorphic_to_z6(z6):
    # exhaustive search for a table-preserving bijection
    import itertools

    p = direct_product(cyclic_ring(2), cyclic_ring(3))
    found = [
        h
        for h in itertools.permutations(range(6))
        if is_homomorphism(z6, p, h)
    ]
    assert found, "no isomorphism Z6 -> Z2xZ3"


def test_subalgebra_one_generates_everything(z6):
    sub, embedding = subalgebra_generated(z6, {1})
    assert sub.size == 6
    assert embedding == tuple(range(6))


def test_subalgebra_constants_generate_everything(z6):
    sub, _ = subalgebra_generated(z6, set())
    assert sub.size == 6  # 1 generates the additive cycle


def test_subalgebra_whole_universe_identity(z6):
    sub, embedding = subalgebra_generated(z6, set(range(6)))
    assert sub.size == 6
    assert embedding == tuple(range(6))
    assert sub.tables == z6.tables


def test_subalgebra_empty_without_constants():
    sig = Signature((("f", 2),))
    a = FiniteAlgebra(sig, 2, ((0, 1, 1, 0),), "magma")
    with pytest.raises(ValidationError, match="empty subuniverse"):
        subalgebra_generated(a, set())


def test_subalgebra_proper(z6):
    # {0, 2, 4} is closed under + and * and contains 0; adding constant 1
    # forces everything, so seed with a lattice instead
    c3 = chain_lattice(3)
    sub, embedding = subalgebra_generated(c3, {0})
    assert embedding == (0, 2)  # bottom and top constants only
    assert sub.size == 2


@st.composite
def seeded_algebras(draw):
    a = draw(algebra_pairs())[0]
    return a, draw(st.lists(st.integers(0, a.size - 1), min_size=1, max_size=a.size))


@given(seeded_algebras())
@example((chain_lattice(3), [1]))
@example((direct_product(chain_lattice(3), chain_lattice(3)), [1, 5]))
@example((cyclic_ring(6), [2]))
def test_subalgebra_matches_closure_rounds(case):
    algebra, seed = case
    assert subalgebra_generated(algebra, seed) == subalgebra_generated_rounds(algebra, seed)


def test_is_homomorphism_identity(z6):
    assert is_homomorphism(z6, z6, tuple(range(6)))


def test_is_homomorphism_into_trivial(z6):
    trivial = cyclic_ring(1)
    assert is_homomorphism(z6, trivial, (0,) * 6)


def test_is_homomorphism_rejects_bad_map(z6):
    h = [0] * 6
    h[1] = 1  # not additive
    h[2] = 0
    assert not is_homomorphism(z6, z6, tuple(h))


def test_zero_one_condition_rings(rings_z6_ctx):
    report = verify_zero_one_condition(rings_z6_ctx)
    assert report.ok
    assert report.violations == ()
    assert "sampled" in report.note


def test_zero_one_condition_lattices(lattices_ctx):
    assert verify_zero_one_condition(lattices_ctx).ok


def test_zero_one_condition_trivial_algebra_passes():
    ctx = ring_context(cyclic_ring(1)).populated(depth=0)
    report = verify_zero_one_condition(ctx)
    assert report.ok  # zero == one but the algebra is trivial


def test_zero_one_requires_pool():
    ctx = ring_context(cyclic_ring(2))
    with pytest.raises(ValidationError, match="pool is empty"):
        verify_zero_one_condition(ctx)


def test_pool_depth_zero_is_generator_only(z6):
    ctx = ring_context(z6).populated(depth=0)
    assert [e.recipe for e in ctx.pool] == ["generator"]


def test_pool_z6_depth_one_contains_all_quotients(z6):
    ctx = ring_context(z6).populated(max_size=6, depth=1)
    sizes = sorted(a.size for a in ctx.pool_algebras)
    assert sizes == [1, 2, 3, 6]
    assert {e.recipe.split("(")[0] for e in ctx.pool} == {"generator", "quotient"}


def test_pool_max_size_one_keeps_generator_and_trivial(z6):
    ctx = ring_context(z6).populated(max_size=1, depth=1)
    sizes = sorted(a.size for a in ctx.pool_algebras)
    assert sizes == [1, 6]


def test_pool_members_share_signature(rings_ctx):
    for a in rings_ctx.pool_algebras:
        assert a.signature == rings_ctx.signature


def test_pool_generation_is_deterministic(z6):
    first = ring_context(z6).populated()
    second = ring_context(z6).populated()
    assert [(e.recipe, e.algebra) for e in first.pool] == [
        (e.recipe, e.algebra) for e in second.pool
    ]


@pytest.mark.parametrize("name, sizes", [
    ("lattices", (8, 27)), ("rings", (8, 27)), ("boolean", (8, 32)),
    ("rings_z6", (12, 36)),
])
def test_pool_matches_rescanning_rounds(name, sizes):
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    for max_size in sizes:
        for depth in (1, 2, 3):
            assert [
                (e.algebra, e.recipe)
                for e in generate_pool(ctx, max_size=max_size, depth=depth)
            ] == [
                (e.algebra, e.recipe)
                for e in generate_pool_rescan(ctx, max_size=max_size, depth=depth)
            ]


@pytest.mark.parametrize("name, depth, max_size", [
    ("lattices", 3, 27), ("rings", 3, 27), ("boolean", 3, 32),
    ("rings_z6", 2, 36),
])
def test_pool_members_pass_the_validating_constructor(monkeypatch, name, depth,
                                                      max_size):
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    checked = []
    check = FiniteAlgebra.__init__

    def counting(self, *args):
        checked.append(args)
        check(self, *args)

    monkeypatch.setattr(FiniteAlgebra, "__init__", counting)
    pool = generate_pool(ctx, max_size=max_size, depth=depth)
    # products, quotients and subalgebras are built unchecked
    assert checked == []
    for entry in pool:
        a = entry.algebra
        assert FiniteAlgebra(a.signature, a.size, a.tables, a.name) == a
    assert len(checked) == len(pool)


@pytest.mark.parametrize("name, depth, max_size", [
    ("lattices", 3, 27), ("rings", 3, 27), ("boolean", 3, 32),
    ("rings_z6", 2, 36),
])
def test_pool_products_record_their_factors(name, depth, max_size):
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    pool = generate_pool(ctx, max_size=max_size, depth=depth)
    products = [(k, e) for k, e in enumerate(pool) if e.factors is not None]
    assert products
    assert all(
        e.recipe.startswith("product(") == (e.factors is not None) for e in pool
    )
    for k, entry in products:
        i, j = entry.factors
        a, b = pool[i].algebra, pool[j].algebra
        assert i < k and j < k
        assert entry.algebra == direct_product(a, b)
        assert entry.recipe == f"product({a.name}, {b.name})"


def test_pool_expands_each_member_once(monkeypatch):
    ctx = load_context(str(FIXTURES / "lattices.ctx"))
    lattices, products = [], []
    for name, calls in (("all_congruences", lattices),
                        ("direct_product", products)):
        original = getattr(factorlab.variety, name)

        def counting(*args, _original=original, _calls=calls, **kwargs):
            _calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(factorlab.variety, name, counting)
    pool = generate_pool(ctx, max_size=27, depth=3)
    assert len(pool) == 63
    # one lattice per member added before the last round, where
    # generate_pool_rescan computes 19
    assert len(lattices) == len(set(lattices)) == 14
    # a pair of two members from earlier rounds was multiplied before
    assert len(products) == len(set(products))


def test_pool_builds_no_copy_of_a_member(monkeypatch):
    ctx = load_context(str(FIXTURES / "lattices.ctx"))
    products, quotients, recipes = [], [], []
    for name, calls in (("direct_product", products), ("quotient", quotients)):
        original = getattr(factorlab.variety, name)

        def counting(*args, _original=original, _calls=calls):
            _calls.append(args)
            return _original(*args)

        monkeypatch.setattr(factorlab.variety, name, counting)
    partition_text = factorlab.congruences.partition_text

    def formatting(theta):
        recipes.append(theta)
        return partition_text(theta)

    monkeypatch.setattr(factorlab.congruences, "partition_text", formatting)
    pool = generate_pool(ctx, max_size=27, depth=3)
    assert len(pool) == 63
    # a product with a one-element factor, or the quotient by the identity,
    # has the tables of a member already in the pool
    assert products and all(a.size > 1 and b.size > 1 for a, b in products)
    assert quotients and not any(theta.is_identity() for _, theta in quotients)
    # each quotient names itself; a recipe is written only for a new member
    quotient_members = sum(e.recipe.startswith("quotient(") for e in pool)
    assert len(recipes) == len(quotients) + quotient_members
