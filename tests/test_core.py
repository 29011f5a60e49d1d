import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import factorlab.congruences
import factorlab.core
import factorlab.variety
from conftest import FIXTURES
from factorlab.core import (
    FiniteAlgebra,
    Signature,
    direct_product,
    eval_term,
    pair_index,
    pair_split,
    _subalgebra_tables,
    subalgebra_generated,
)
from factorlab.errors import EvalError, ValidationError
from factorlab.variety import (
    VarietyContext,
    generate_pool,
    verify_zero_one_condition,
)
from factorlab.cli import main
from factorlab.fileio import load_algebra, load_context
from corpus import (
    chain_lattice,
    cyclic_ring,
    factor_indices,
    lattice_context,
    ring_context,
)
from factorlab.terms import App, Var
from oracles import (
    direct_product_cellwise,
    direct_product_images,
    generate_pool_closed,
    generate_pool_reference,
    generate_pool_rescan,
    generate_pool_tables,
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
    assert direct_product(a, b) == direct_product_images(a, b)
    # the row kernel reads A's row scaled and B's row in that order
    assert direct_product(b, a) == direct_product_cellwise(b, a)


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
    assert report.ok and all(ok for *_, ok in report.entries)
    assert "sampled" in report.note


def test_zero_one_condition_lattices(lattices_ctx):
    assert verify_zero_one_condition(lattices_ctx).ok


@pytest.mark.parametrize("name, depth, max_size", [
    ("lattices", 3, 27), ("rings", 3, 32), ("boolean", 3, 32),
    ("rings_z6", 3, 27), ("shadow_x", 3, 16),
])
def test_zero_one_values_match_evaluation_through_the_tables(name, depth, max_size):
    # a product's values are composed from its factors'; evaluating the
    # terms through its tables, built here, gives the same
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    pool = generate_pool(ctx, max_size=max_size, depth=depth)
    assert any(factor_indices(pool))
    for entry in pool:
        a = entry.algebra
        for terms, values in ((ctx.zero_terms, ctx.zero_values),
                              (ctx.one_terms, ctx.one_values)):
            assert values(a) == tuple(eval_term(a, t, {}) for t in terms)


def test_zero_one_condition_builds_no_product(monkeypatch):
    # the check over the depth-4, max-size-64 lattice pool, where evaluating
    # through the tables built 235 products' tables
    ctx = load_context(str(FIXTURES / "lattices.ctx")).populated(max_size=64, depth=4)
    calls = _count_pool_work(monkeypatch)
    report = verify_zero_one_condition(ctx)
    assert report.ok and len(report.entries) == 245
    assert calls["_product_tables"] == []


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


def test_zero_one_values_of_products_without_a_median_term_are_composed(
        monkeypatch):
    # Z6 has no median term, yet each product of the rings_z6 pool is its
    # factors' direct_product, so no term is evaluated in one of the 24,
    # where evaluating through their tables took 48 evaluations
    ctx = load_context(str(FIXTURES / "rings_z6.ctx")).populated(
        max_size=27, depth=3)
    products = {id(e.algebra) for e, f in zip(ctx.pool, factor_indices(ctx.pool))
                if f is not None}
    assert (len(ctx.pool), len(products)) == (30, 24)
    evaluated = []
    eval_term = factorlab.variety.eval_term

    def counting(algebra, term, env):
        evaluated.append(id(algebra))
        return eval_term(algebra, term, env)

    monkeypatch.setattr(factorlab.variety, "eval_term", counting)
    assert verify_zero_one_condition(ctx).ok
    assert evaluated and products.isdisjoint(evaluated)


@pytest.mark.parametrize("name, depth, max_size", [
    ("lattices", 3, 27), ("rings", 3, 27), ("boolean", 3, 32),
    ("rings_z6", 2, 36),
])
def test_pool_products_record_their_factors(name, depth, max_size):
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    pool = generate_pool(ctx, max_size=max_size, depth=depth)
    factors = factor_indices(pool)
    products = [(k, e) for k, e in enumerate(pool) if factors[k] is not None]
    assert products
    # every product records its factors, and so does a quotient of a
    # recorded product when the generator has a median term, and no other
    # member does
    composes = factorlab.congruences.median_term(ctx.generator) is not None
    recorded = {e.algebra.name for _, e in products}
    for entry, recorded_factors in zip(pool, factors):
        if entry.recipe.startswith("quotient("):
            of = entry.recipe[len("quotient("):].rsplit(", {", 1)[0]
            assert (recorded_factors is not None) == (composes and of in recorded)
        else:
            assert (recorded_factors is not None) == entry.recipe.startswith("product(")
    for k, entry in products:
        i, j = factors[k]
        a, b = pool[i].algebra, pool[j].algebra
        assert i < k and j < k
        if entry.recipe.startswith("product("):
            assert entry.algebra == direct_product(a, b)
            assert entry.recipe == f"product({a.name}, {b.name})"
        else:  # the quotient's own name, the product's tables
            product = direct_product(a, b, entry.algebra.name)
            assert entry.algebra == product


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
    # at most one lattice per member added before the last round (14), where
    # generate_pool_rescan computes 19; two products too large to keep their
    # quotients have only quotient pairs whose products are members, and
    # need none
    assert len(lattices) == len(set(lattices)) == 12
    # a pair of two members from earlier rounds was multiplied before
    assert len(products) == len(set(products))


def test_pool_builds_no_copy_of_a_member(monkeypatch):
    ctx = load_context(str(FIXTURES / "lattices.ctx"))
    products, quotients, subalgebras, recipes = [], [], [], []
    for name, calls in (("direct_product", products),
                        ("_quotient_tables", quotients),
                        ("_subalgebra_name", subalgebras)):
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
    assert products and all(a.size > 1 and b.size > 1 for a, b, *_ in products)
    assert quotients and not any(theta.is_identity() for _, theta in quotients)
    # a quotient of a recorded product is built as a product of quotients
    recorded = [e.algebra for e, f in zip(pool, factor_indices(pool)) if f is not None]
    assert not any(a in recorded for a, _ in quotients)
    # a name and a recipe, each with the partition's text, are formatted only
    # for a new member, and so is a subalgebra's name
    quotient_members = sum(e.recipe.startswith("quotient(") for e in pool)
    assert len(quotients) > quotient_members > 0
    assert len(recipes) == 2 * quotient_members
    assert len(subalgebras) == sum(e.recipe.startswith("subalgebra(") for e in pool) > 0


def _reference_and_pool(ctx, max_size, depth):
    """The reference pool, which composes no lattice, and the pool."""
    reference = generate_pool_reference(ctx, max_size=max_size, depth=depth)
    return reference, generate_pool(ctx, max_size=max_size, depth=depth)


def _products_factors(pool):
    """Names, recipes, tables and order of a pool, with the factors of its
    products; a quotient's factors are checked against `direct_product`
    by `test_pool_products_record_their_factors`."""
    return [
        (e.algebra, e.recipe, f if e.recipe.startswith("product(") else None)
        for e, f in zip(pool, factor_indices(pool))
    ]


@pytest.mark.parametrize("name, depth, max_size", [
    (name, depth, max_size)
    for name in ("lattices", "rings", "boolean", "rings_z6")
    for depth in (1, 2, 3)
    for max_size in (8, 16, 27)
    if name != "rings_z6" or depth <= 2
])
def test_pool_matches_reference(name, depth, max_size):
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    reference, pool = _reference_and_pool(ctx, max_size, depth)
    # names, recipes, tables, products' factors and order
    assert _products_factors(pool) == _products_factors(reference)


@st.composite
def generator_contexts(draw):
    """A context over a drawn generator of 2-4 elements: a constant, which
    is both the zero and the one term, a binary x + y mod n through a
    permutation and maybe a random unary operation.  The binary operation keeps every lattice
    small: a random or constant table alone can make every partition of a
    16-element product a congruence."""
    n = draw(st.integers(2, 4))
    perm = draw(st.permutations(range(n)))
    symbols = [("c", 0), ("g", 2)]
    tables = [(draw(st.integers(0, n - 1)),),
              tuple(perm[(x + y) % n] for x in range(n) for y in range(n))]
    if draw(st.booleans()):
        symbols.append(("f", 1))
        tables.append(tuple(draw(st.lists(st.integers(0, n - 1),
                                          min_size=n, max_size=n))))
    generator = FiniteAlgebra(Signature(tuple(symbols)), n, tuple(tables), "G")
    return VarietyContext(generator, (App("c"),), (App("c"),))


@given(generator_contexts(), st.sampled_from([8, 12, 16]), st.integers(1, 3))
def test_drawn_pool_matches_reference(ctx, max_size, depth):
    # products of products repeat their leaves, and a product of a member
    # with a smaller one comes in both orders
    reference, pool = _reference_and_pool(ctx, max_size, depth)
    assert pool == reference


def _count_pool_work(monkeypatch):
    """Record the `direct_product` and `_subalgebra_tables` calls that
    `generate_pool` makes, and the products whose tables are built."""
    calls = {"direct_product": [], "_subalgebra_tables": [], "_product_tables": []}
    for name, made in calls.items():
        module = factorlab.core if name == "_product_tables" else factorlab.variety
        original = getattr(module, name)

        def counting(*args, _original=original, _made=made):
            _made.append(args)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_pool_skips_known_products_and_seeds(monkeypatch):
    calls = _count_pool_work(monkeypatch)
    pool = generate_pool(load_context(str(FIXTURES / "lattices.ctx")),
                         max_size=27, depth=3)
    assert len(pool) == 63
    # one product per recorded product (56), where every product was built
    # (64): a product is keyed by its atoms, so C3 x (C3 x C3) is
    # (C3 x C3) x C3 and is never built, and 12 quotients of products are
    # built as products too (8 enter)
    assert len(calls["direct_product"]) == 56
    assert len(pool) - factor_indices(pool).count(None) == 56
    # no product builds its tables, where the three up to 6 elements did for
    # a table key
    assert calls["_product_tables"] == []
    # one closure, of F(2)'s closed-term part: every seed is read off F(2),
    # the empty one too, where one closure per expanded member of the empty
    # seed took 14
    assert [seed for _, seed in calls["_subalgebra_tables"]] == [()]


@st.composite
def chain_contexts(draw):
    """A context over a chain lattice of 2-3 elements with a random unary
    operation f: the lattice operations give a median term, so quotients of
    products are built as products, and F(2) is mostly small."""
    n = draw(st.integers(2, 3))
    leaf = chain_lattice(n)
    table = tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    generator = FiniteAlgebra(Signature(leaf.signature.symbols + (("f", 1),)), n,
                              leaf.tables + (table,), f"C{n}+f")
    return lattice_context(generator)


def _matches_closing_every_seed(ctx, max_size, depth):
    """The pool against `generate_pool_closed`: names, recipes, sizes,
    tables, order and products' factors; and every entry with factors,
    a quotient of a product too, has the tables of their product."""
    pool = generate_pool(ctx, max_size=max_size, depth=depth)
    closed = generate_pool_closed(ctx, max_size=max_size, depth=depth)
    assert _products_factors(pool) == _products_factors(closed)
    for k, (entry, factors) in enumerate(zip(pool, factor_indices(pool))):
        if factors is not None:
            i, j = factors
            assert i < k and j < k
            product = direct_product(pool[i].algebra, pool[j].algebra)
            assert (entry.algebra.size, entry.algebra.tables) == (
                product.size, product.tables)
    return pool


@given(st.one_of(generator_contexts(), chain_contexts()),
       st.sampled_from([8, 12, 16]), st.integers(1, 3))
def test_drawn_pool_matches_closing_every_seed(ctx, max_size, depth):
    _matches_closing_every_seed(ctx, max_size, depth)


@pytest.mark.parametrize("name, depth, max_size, reads_f2", [
    ("lattices", 3, 27, True), ("rings", 3, 32, True), ("boolean", 3, 32, True),
    ("rings_z6", 2, 36, False),
    # a constant named x, like F(2)'s first generator
    ("shadow_x", 3, 16, True),
])
def test_pool_matches_closing_every_seed(name, depth, max_size, reads_f2):
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    # F(2) of Z6 is far over the cap, so its pool closes every seed
    assert (factorlab.variety._SeedPatterns.of(ctx.generator) is not None) == reads_f2
    pool = _matches_closing_every_seed(ctx, max_size, depth)
    assert any(factor_indices(pool))


def test_pool_closing_every_seed_skips_only_redundant_pairs(monkeypatch):
    # F(2) of C3 refused, so the lattices pool takes the path of generators
    # whose F(2) is over the cap; unlike a rings_z6 pool, it has members that
    # only a pair seed generates, which the pair-seed skip must keep
    monkeypatch.setattr(factorlab.variety, "SEED_PROGRAM_CAP", 1)
    ctx = load_context(str(FIXTURES / "lattices.ctx"))
    assert factorlab.variety._SeedPatterns.of(ctx.generator) is None
    pool = _matches_closing_every_seed(ctx, 27, 3)
    assert "subalgebra(C3xC3, [1, 2])" in [e.recipe for e in pool]


def test_pool_closing_every_seed_keys_no_product_by_its_tables(monkeypatch):
    # under a median term the key does not depend on F(2): with F(2) refused,
    # the depth-4, max-size-64 lattice pool still keys every product by its
    # atoms, where it built the tables of each product it offered to key it.
    # A product's tables are built only to close its seeds in it, once per
    # expanded recorded product; the pool is the one that reads F(2)
    ctx = load_context(str(FIXTURES / "lattices.ctx"))
    read = generate_pool(ctx, max_size=64, depth=4)
    monkeypatch.setattr(factorlab.variety, "SEED_PROGRAM_CAP", 1)
    calls = _count_pool_work(monkeypatch)
    pool = generate_pool(ctx, max_size=64, depth=4)
    recorded = {id(e.algebra) for e, f in zip(pool, factor_indices(pool))
                if f is not None}
    closed_in = recorded & {id(a) for a, _ in calls["_subalgebra_tables"]}
    assert len(calls["_product_tables"]) == len(closed_in) == 91
    assert _pool_rows(pool) == _pool_rows(read)


@pytest.mark.parametrize("name, max_size", [
    ("lattices", 27), ("rings", 32), ("boolean", 32), ("shadow_x", 16),
])
def test_composed_pattern_cells_match_searched_cells(name, max_size):
    # a recorded product's pattern ids, composed from its factors', are the
    # ids the program gives when run in the product itself
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    pool = generate_pool(ctx, max_size=max_size, depth=3)
    patterns = factorlab.variety._SeedPatterns.of(ctx.generator)
    cells = [patterns.member_ids(e.algebra) for e in pool]
    products = [(k, f) for k, f in enumerate(factor_indices(pool)) if f is not None]
    assert products
    for k, (i, j) in products:
        assert patterns.product(cells[i], pool[i].algebra.size,
                                cells[j], pool[j].algebra.size) == cells[k]


@pytest.mark.parametrize("name, depth, max_size, members, digest", [
    # about 0.3 s; seeds are read off F(2) and quotients of products built
    # as products
    ("lattices", 4, 64, 245,
     "86fdc7f5f261a019ba2578e8005313d0f8dd0781dda4809221fb02d24faa8115"),
    # F(2) of Z6 is over the cap, so every seed is closed in its member
    ("rings_z6", 3, 27, 30,
     "337c422049cba0966abbaae62ca5711850416768c21dce6f9a4d4a3fce990aa8"),
])
def test_deep_pool_digest_is_pinned(name, depth, max_size, members, digest):
    pool = generate_pool(load_context(str(FIXTURES / f"{name}.ctx")),
                         max_size=max_size, depth=depth)
    rows = [(e.algebra.name, e.recipe, e.algebra.size, e.algebra.tables, f)
            for e, f in zip(pool, factor_indices(pool))]
    assert len(pool) == members
    # names, recipes, sizes, tables and factors, in order
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def test_deep_pool_closes_no_recorded_product(monkeypatch):
    # the depth-4/max-64 lattice pool, about 0.3 s
    calls = _count_pool_work(monkeypatch)
    quotients, lattices, made = [], [], []
    for name, made_calls in (("_quotient_tables", quotients),
                             ("all_congruences", lattices)):
        original = getattr(factorlab.variety, name)

        def counting(*args, _original=original, _calls=made_calls):
            _calls.append(args)
            return _original(*args)

        monkeypatch.setattr(factorlab.variety, name, counting)
    of = factorlab.variety._SeedPatterns.of

    def recording(generator):
        made.append(of(generator))
        return made[-1]

    monkeypatch.setattr(factorlab.variety._SeedPatterns, "of", recording)
    pool = generate_pool(load_context(str(FIXTURES / "lattices.ctx")),
                         max_size=64, depth=4)
    assert len(pool) == 245
    # none of 238 products builds its tables
    assert len(calls["direct_product"]) == 238
    assert calls["_product_tables"] == []
    recorded = [e.algebra for e, f in zip(pool, factor_indices(pool)) if f is not None]
    # 7 members are not recorded products, where only products were (15)
    assert len(pool) - len(recorded) == 7
    # no quotient of a recorded product is built from its classes
    assert quotients and not any(a in recorded for a, _ in quotients)
    # one lattice per expanded member (98) but the 23 products too large to
    # keep their quotients whose factors' quotient pairs all have products
    # in the pool
    assert len(lattices) == 75
    # one closure, of F(2)'s closed-term part, where each of the 98
    # expanded members closed its empty seed
    assert calls["_subalgebra_tables"] == [(made[0].free, ())]
    # every other seed is one of 20 rank patterns of F(2)'s six elements
    assert len(made) == 1 and made[0].free.size == 6
    assert len(made[0].by_id) == 20


def _pool_rows(pool):
    """Names, recipes, sizes, tables (built here) and factors, in order."""
    return [(e.algebra.name, e.recipe, e.algebra.size, e.algebra.tables, f)
            for e, f in zip(pool, factor_indices(pool))]


def _matches_table_keys(ctx, max_size, depth):
    """The pool against `generate_pool_tables`, which keys every product by
    its tables and closes every empty seed, with every table built."""
    pool = generate_pool(ctx, max_size=max_size, depth=depth)
    tables = generate_pool_tables(ctx, max_size=max_size, depth=depth)
    assert _pool_rows(pool) == _pool_rows(tables)
    return pool


@pytest.mark.parametrize("name, depth, max_size", [
    ("lattices", 3, 27), ("rings", 3, 32), ("boolean", 3, 32),
    ("rings_z6", 3, 27), ("shadow_x", 3, 16), ("lattices", 4, 64),
])
def test_pool_matches_table_keyed_pool(name, depth, max_size):
    pool = _matches_table_keys(load_context(str(FIXTURES / f"{name}.ctx")),
                               max_size, depth)
    assert any(factor_indices(pool))


@pytest.mark.parametrize("name", ["l2x2", "m3", "n5", "C2xC3"])
def test_lattice_pool_over_a_larger_generator_matches_table_keyed_pool(name):
    # L2x2 has the tables of C2 x C2, so L2x2 x C2 and C2 x L2x2 have one
    # key, their atoms C2, C2, C2; and C2 x C2xC3 has the atoms C2, C2, C3
    # of (C2 x C2) x C3, which are not those of C2xC3 x C2
    if name == "C2xC3":
        product = direct_product(chain_lattice(2), chain_lattice(3))
        generator = FiniteAlgebra(product.signature, 6, product.tables, name)
    else:
        generator = load_algebra(str(FIXTURES / f"{name}.alg"))
    _matches_table_keys(lattice_context(generator), 32, 3)


@pytest.mark.parametrize("factors, context", [
    ((chain_lattice(2), chain_lattice(3)), lattice_context),
    ((cyclic_ring(2), cyclic_ring(3)), ring_context),
])
def test_pool_over_a_product_generator_matches_its_table_backed_copy(
        factors, context):
    # a generator from direct_product has factors that are not members: its
    # quotients and seeds are read off its own tables
    product = direct_product(*factors)
    copy = FiniteAlgebra(product.signature, product.size, product.tables,
                         product.name)
    rows = [[(e.algebra.name, e.recipe, e.algebra.size, e.algebra.tables)
             for e in generate_pool(context(g), max_size=24, depth=2)]
            for g in (product, copy)]
    assert len(rows[0]) > 1 and rows[0] == rows[1]


@given(st.one_of(generator_contexts(), chain_contexts()),
       st.sampled_from([8, 12, 16]), st.integers(1, 3))
def test_drawn_pool_matches_table_keyed_pool(ctx, max_size, depth):
    _matches_table_keys(ctx, max_size, depth)


@pytest.mark.parametrize("name, depth, max_size", [
    ("lattices", 3, 27), ("rings", 3, 32), ("boolean", 3, 32),
    ("shadow_x", 3, 16), ("lattices", 4, 64),
])
def test_empty_seed_is_read_off_the_free_algebra(name, depth, max_size):
    # Sg(∅) of every member, read off F(2)'s closed-term part at every cell
    # of the member, is the closure of the empty seed
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    pool = generate_pool(ctx, max_size=max_size, depth=depth)
    patterns = factorlab.variety._SeedPatterns.of(ctx.generator)
    assert patterns.closed
    for entry in pool:
        a = entry.algebra
        # a large product's cells alike: its pattern at (0, 0) is read
        cells = patterns.member_ids(a) if a.size <= 16 else [patterns.member_ids(a)[0]]
        assert {patterns.empty_seed(pid) for pid in cells} == {
            tuple(_subalgebra_tables(a, ())[:2])}


@pytest.mark.parametrize("argv", [
    ("dfc", "verify"), ("correspondence",),
])
def test_no_stage_builds_the_tables_of_a_large_product(monkeypatch, capsys, argv):
    # the depth-4, max-size-64 lattice pool: no product's tables are built,
    # by the pool or by either stage
    built = []
    product_tables = factorlab.core._product_tables

    def building(a, b):
        built.append(a.size * b.size)
        return product_tables(a, b)

    monkeypatch.setattr(factorlab.core, "_product_tables", building)
    code = main([*argv, str(FIXTURES / "lattices.ctx"),
                 str(FIXTURES / "formulas" / "lattice_mixed.fm"),
                 "--pool-depth", "4", "--max-size", "64"])
    assert code == 0
    assert "pass" in capsys.readouterr().out
    assert built == []


def test_deepest_lattice_pool_builds_no_large_product(monkeypatch):
    # about 0.4 s in process, where building every product's tables took
    # 5.6-6.4 s and 767 MB; the digest was recorded when it did
    calls = _count_pool_work(monkeypatch)
    pool = generate_pool(load_context(str(FIXTURES / "lattices.ctx")),
                         max_size=256, depth=4)
    assert len(pool) == 1675
    assert factor_indices(pool).count(None) == 7
    assert calls["_product_tables"] == []
    # names, recipes, sizes and factors, in order
    rows = [(e.algebra.name, e.recipe, e.algebra.size, f)
            for e, f in zip(pool, factor_indices(pool))]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "bfa44abe2e0e160dfe3bc230409ac33bf8e941058be4273c50ba9050cf2bfe6b")
