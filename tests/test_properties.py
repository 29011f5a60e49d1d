"""Property-based checks of the structural invariants."""
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorlab.congruences import compose_lattice, principal_congruence
from factorlab.core import (
    FiniteAlgebra,
    Signature,
    direct_product,
    eval_term,
    pair_index,
    subalgebra_generated,
)
from factorlab.dfc import (
    CorrespondenceStage,
    central_elements,
    correspondence_check,
    verify_dfc,
)
from factorlab.formulas import (
    DnfEvaluator,
    ExistentialDnf,
    Literal,
    parse_formula,
    strip_to_positive,
)
from factorlab.variety import PoolEntry, VarietyContext
from corpus import (
    chain_lattice,
    cyclic_ring,
    diamond_lattice,
    lattice_context,
    pentagon_lattice,
    ring_context,
)
from factorlab.fileio import load_context, load_formula
from factorlab.positivize import (
    PositivizeResult,
    WitnessCertificate,
    _recheck_substitution,
    first_product_witness,
    product_witnesses,
)
from factorlab.terms import App, Var, term_text
from conftest import FIXTURES
from test_positivize import _recheck_outcome
from oracles import (
    all_witnesses,
    central_elements_scan,
    congruence_meet,
    congruence_of_central,
    congruence_of_central_classified,
    correspondence_check_searched,
    first_witness,
    masked_witnesses_naive,
    recheck_substitution_every_member,
    verify_dfc_cells,
    verify_dfc_materialized,
    verify_dfc_searched,
    witnesses_naive,
)

Z6 = cyclic_ring(6)
N5 = pentagon_lattice()
RING_SIG = Z6.signature
ALGEBRAS = [Z6, N5, diamond_lattice(), chain_lattice(3)]
Z6_CTX = ring_context(Z6).populated(max_size=6, depth=1)
C3_CTX = lattice_context(chain_lattice(3)).populated(max_size=4, depth=2)


def terms_for(signature, variables, max_depth=2):
    leaves = [st.builds(Var, st.sampled_from(variables))] + [
        st.just(App(sym)) for sym, k in signature.symbols if k == 0
    ]
    builders = [sym for sym, k in signature.symbols if k > 0]

    def extend(children):
        return st.one_of(
            *[
                st.builds(
                    lambda args, s=sym: App(s, tuple(args)),
                    st.lists(
                        children,
                        min_size=signature.arity(sym),
                        max_size=signature.arity(sym),
                    ),
                )
                for sym in builders
            ]
        )

    return st.recursive(st.one_of(*leaves), extend, max_leaves=max_depth * 3)


ring_terms = terms_for(RING_SIG, ["x", "y", "z1"])


@st.composite
def random_formulas(draw):
    n_bound = draw(st.integers(0, 3))
    bound = tuple(f"w{i}" for i in range(n_bound))
    variables = ["x", "y", "z1", *bound]
    strat = terms_for(RING_SIG, variables)
    disjuncts = []
    for _ in range(draw(st.integers(1, 2))):
        lits = []
        for _ in range(draw(st.integers(1, 3))):
            lits.append(
                Literal(draw(strat), draw(strat), draw(st.booleans()))
            )
        disjuncts.append(tuple(lits))
    return ExistentialDnf(bound, tuple(disjuncts), 1)


@given(random_formulas())
def test_print_parse_round_trip_random(phi):
    assert parse_formula(phi.text(), RING_SIG, 1) == phi


@given(ring_terms, ring_terms,
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 5), st.integers(0, 2))
def test_atomic_literals_evaluate_coordinatewise(lhs, rhs, a, c, b, d, za, zb):
    # a, c, za live in Z6; b, d, zb in Z3
    left, right = Z6, cyclic_ring(3)
    product = direct_product(left, right)
    env_a = {"x": a, "y": c, "z1": za}
    env_b = {"x": b, "y": d, "z1": zb}
    env_p = {
        k: pair_index(env_a[k], env_b[k], right.size) for k in env_a
    }
    holds_p = eval_term(product, lhs, env_p) == eval_term(product, rhs, env_p)
    holds_a = eval_term(left, lhs, env_a) == eval_term(left, rhs, env_a)
    holds_b = eval_term(right, lhs, env_b) == eval_term(right, rhs, env_b)
    assert holds_p == (holds_a and holds_b)


@given(st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
def test_subalgebra_idempotent_and_monotone(s1, s2):
    sub1, emb1 = subalgebra_generated(Z6, s1)
    again, emb_again = subalgebra_generated(Z6, set(emb1))
    assert emb_again == emb1
    if s1 <= s2:
        _, emb2 = subalgebra_generated(Z6, s2)
        assert set(emb1) <= set(emb2)


@given(st.sampled_from(ALGEBRAS), st.data())
def test_principal_congruence_below_any_containing_congruence(algebra, data):
    a = data.draw(st.integers(0, algebra.size - 1))
    b = data.draw(st.integers(0, algebra.size - 1))
    cg = principal_congruence(algebra, a, b)
    assert cg.related(a, b)
    # minimality against every congruence of the algebra containing (a, b)
    from factorlab.congruences import all_congruences

    for theta in all_congruences(algebra):
        if theta.related(a, b):
            assert congruence_meet(cg, theta).rep == cg.rep


def _holds_identity(algebra, lhs, rhs, variables):
    for env_vals in itertools.product(range(algebra.size), repeat=len(variables)):
        env = dict(zip(variables, env_vals))
        if eval_term(algebra, lhs, env) != eval_term(algebra, rhs, env):
            return False
    return True


@settings(max_examples=30)
@given(st.data())
def test_pool_members_inherit_generator_identities(data):
    variables = ["v1", "v2", "v3"]
    strat = terms_for(RING_SIG, variables)
    lhs = data.draw(strat)
    rhs = data.draw(strat)
    if _holds_identity(Z6, lhs, rhs, variables):
        for member in Z6_CTX.pool_algebras:
            assert _holds_identity(member, lhs, rhs, variables), (
                f"{term_text(lhs)} = {term_text(rhs)} lost in {member.name}"
            )


@settings(max_examples=25)
@given(st.data())
def test_lattice_pool_members_inherit_generator_identities(data):
    c3 = chain_lattice(3)
    variables = ["v1", "v2", "v3"]
    strat = terms_for(c3.signature, variables)
    lhs = data.draw(strat)
    rhs = data.draw(strat)
    if _holds_identity(c3, lhs, rhs, variables):
        for member in C3_CTX.pool_algebras:
            assert _holds_identity(member, lhs, rhs, variables)


@given(random_formulas(),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
# a subterm over a bound variable shared by two disjuncts
@example(parse_formula("exists w . (w + w = x and w != w) or w + w = y",
                       RING_SIG, 1), 0, 4, 0)
def test_evaluator_agrees_with_all_witnesses(phi, x, y, z):
    ev = DnfEvaluator(Z6, phi)
    first = first_witness(ev, x, y, (z,))
    everything = all_witnesses(ev, x, y, (z,))
    # the whole list, disjunct-major and then lexicographic, as plain
    # recursive evaluation over every assignment finds it
    assert everything == witnesses_naive(Z6, phi, x, y, (z,))
    if first is None:
        assert everything == []
    else:
        assert everything[0] == first


@given(random_formulas(),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_compiled_evaluator_matches_naive_route(phi, x, y, z):
    compiled = DnfEvaluator(Z6, phi).satisfied(x, y, (z,))
    assert compiled == bool(witnesses_naive(Z6, phi, x, y, (z,)))


@given(random_formulas(),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
# the negative literal fails at w = x: a hit with bit 0 set, not a pruned one
@example(parse_formula("exists w . w + 0 = w and w != x", RING_SIG, 1), 3, 0, 0)
# a false closed negative literal sets its bit at every hit of its disjunct:
# hits, but none with mask 0, so the formula fails
@example(parse_formula("exists w . w = x and 0 != 0", RING_SIG, 1), 3, 3, 0)
def test_masks_match_naive_evaluation(phi, x, y, z):
    ev = DnfEvaluator(Z6, phi)
    naive = list(masked_witnesses_naive(Z6, phi, x, y, (z,)))
    assert list(ev.masked_witnesses(x, y, (z,))) == naive
    masks = [set() for _ in phi.disjuncts]
    for k, mask, _ in naive:
        masks[k].add(mask)
    assert ev.failure_masks(x, y, (z,)) == tuple(map(frozenset, masks))
    assert ev.satisfied(x, y, (z,)) == any(mask == 0 for _, mask, _ in naive)


# -- first-coordinate harness against materialized products --------------------

DFC_SIG = Signature((("f", 1), ("g", 2), ("0", 0), ("1", 0)))


@st.composite
def dfc_members(draw):
    n = draw(st.integers(1, 4))
    element = st.integers(0, n - 1)
    f = draw(st.lists(element, min_size=n, max_size=n))
    g = draw(st.lists(element, min_size=n * n, max_size=n * n))
    return FiniteAlgebra(
        DFC_SIG, n, (tuple(f), tuple(g), (draw(element),), (draw(element),))
    )


CLOSED_TERMS = [App("0"), App("1"), App("f", (App("0"),)),
                App("g", (App("1"), App("0")))]


@st.composite
def dfc_formulas(draw, max_bound=2, max_disjuncts=2, closed_negatives=False,
                 signature=DFC_SIG):
    n_bound = draw(st.integers(0, max_bound))
    bound = tuple(f"w{i}" for i in range(n_bound))
    strat = terms_for(signature, ["x", "y", "z1", *bound])
    unary = [sym for sym, k in signature.symbols if k == 1]
    disjuncts = []
    for _ in range(draw(st.integers(1, max_disjuncts))):
        lits = [
            Literal(draw(strat), draw(strat), draw(st.booleans()))
            for _ in range(draw(st.integers(1, 3)))
        ]
        if bound:
            # a negative literal that depends on a bound variable, so the two
            # coordinates' failure masks must be combined
            w = Var(draw(st.sampled_from(bound)))
            lits.append(Literal(
                draw(st.sampled_from([w] + [App(f, (w,)) for f in unary])),
                draw(strat), False,
            ))
        if closed_negatives and draw(st.booleans()):
            closed = st.sampled_from(CLOSED_TERMS)
            lits.append(Literal(draw(closed), draw(closed), False))
        disjuncts.append(tuple(lits))
    return ExistentialDnf(bound, tuple(disjuncts), 1)


TWO = FiniteAlgebra(DFC_SIG, 2, ((0, 1), (0, 0, 1, 1), (0,), (1,)))
ONE = FiniteAlgebra(DFC_SIG, 1, ((0,), (0,), (0,), (0,)))


@given(st.lists(dfc_members(), min_size=1, max_size=3), dfc_formulas())
# w0 != z1 fails throughout ONE and holds at w0 = 1 in TWO: it holds in the
# products only through the TWO coordinate
@example([TWO, ONE], parse_formula("exists w0 . x = x and w0 != z1", DFC_SIG, 1))
# z1 is 0 on the left coordinate and 1 on the right
@example([TWO], parse_formula("x = z1", DFC_SIG, 1))
def test_verify_dfc_matches_materialized_products(members, phi):
    pool = tuple(
        PoolEntry(FiniteAlgebra(m.signature, m.size, m.tables, f"M{i}"), "drawn")
        for i, m in enumerate(members)
    )
    ctx = VarietyContext(pool[0].algebra, (App("0"),), (App("1"),), pool)
    largest = max(a.size * b.size for a in members for b in members)
    for cap in (largest, largest - 1):
        report = verify_dfc(phi, ctx, pair_cap=cap)
        assert report == verify_dfc_materialized(phi, ctx, pair_cap=cap)
        assert bool(report.skipped) == (cap < largest)


@st.composite
def pools_with_products(draw, max_product=8):
    """1-3 drawn members, then 1-3 recorded products of earlier entries,
    products among them, each of at most max_product elements."""
    pool = [
        PoolEntry(FiniteAlgebra(m.signature, m.size, m.tables, f"M{k}"), "drawn")
        for k, m in enumerate(draw(st.lists(dfc_members(), min_size=1, max_size=3)))
    ]
    for _ in range(draw(st.integers(1, 3))):
        index = st.integers(0, len(pool) - 1)
        i, j = draw(index), draw(index)
        a, b = pool[i].algebra, pool[j].algebra
        if a.size * b.size <= max_product:
            product = direct_product(a, b, name=f"M{len(pool)}")
            pool.append(PoolEntry(product, "drawn", (i, j)))
    return tuple(pool)


def _nested_pool(*members):
    """members, then M0 x M1 and (M0 x M1) x M0."""
    pool = [PoolEntry(FiniteAlgebra(m.signature, m.size, m.tables, f"M{k}"),
                      "drawn") for k, m in enumerate(members)]
    for i, j in ((0, 1), (len(members), 0)):
        a, b = pool[i].algebra, pool[j].algebra
        pool.append(PoolEntry(direct_product(a, b, name=f"M{len(pool)}"),
                              "drawn", (i, j)))
    return tuple(pool)


@given(pools_with_products(),
       dfc_formulas(max_disjuncts=3, closed_negatives=True),
       st.integers(0, 2))
# w0 != z1 holds at w0 = 1 in TWO only: the products' masks come through
# the TWO coordinate
@example(_nested_pool(TWO, ONE),
         parse_formula("exists w0 . x = x and w0 != z1", DFC_SIG, 1), 0)
# z1 is 0 on the left and 1 on the right, and 0 != 0 fails everywhere
@example(_nested_pool(TWO, TWO),
         parse_formula("x = z1 or (y = z1 and 0 != 0)", DFC_SIG, 1), 1)
# the factors differ in the value of 1, which shows the order of the factors
@example(_nested_pool(FiniteAlgebra(DFC_SIG, 2, ((0, 1), (0, 0, 1, 1), (0,), (0,))),
                      TWO),
         parse_formula("1 != x", DFC_SIG, 1), 0)
def test_verify_dfc_composes_products_like_searching_them(pool, phi, cut):
    ctx = VarietyContext(pool[0].algebra, (App("0"),), (App("1"),), pool)
    # every pair, or all but those of the `cut` largest size products: a
    # product and its factors then meet in fewer tested pairs
    cells = sorted({a.size * b.size for a in ctx.pool_algebras
                    for b in ctx.pool_algebras})
    cap = cells[-1 - min(cut, len(cells) - 1)]
    report = verify_dfc(phi, ctx, pair_cap=cap)
    oracle = verify_dfc_searched(phi, ctx, pair_cap=cap)
    assert report.pairs_tested == oracle.pairs_tested
    assert report.skipped == oracle.skipped
    assert len(report.counterexamples) == len(oracle.counterexamples)
    assert tuple(report.counterexamples) == tuple(oracle.counterexamples)


@given(pools_with_products(),
       dfc_formulas(max_disjuncts=3, closed_negatives=True),
       st.integers(0, 2),
       st.integers(0, 10**6))
# z1 is 0 on the left and 1 on the right: both directions fail, in the
# products as in their factors
@example(_nested_pool(TWO, TWO), parse_formula("x = z1", DFC_SIG, 1), 0, 7)
def test_verify_dfc_counts_like_reading_every_cell(pool, phi, cut, k):
    ctx = VarietyContext(pool[0].algebra, (App("0"),), (App("1"),), pool)
    cells = sorted({a.size * b.size for a in ctx.pool_algebras
                    for b in ctx.pool_algebras})
    cap = cells[-1 - min(cut, len(cells) - 1)]
    report = verify_dfc(phi, ctx, pair_cap=cap)
    oracle = verify_dfc_cells(phi, ctx, pair_cap=cap)
    assert report.pairs_tested == oracle.pairs_tested
    assert report.skipped == oracle.skipped
    lazy, full = report.counterexamples, oracle.counterexamples
    assert len(lazy) == len(full)
    # the head first, so that its name group is built alone
    if full:
        assert lazy[0] == full[0]
        k %= len(full)
        assert lazy[k] == full[k]
        assert lazy[-1] == full[-1]
        assert lazy[-1 - k] == full[-1 - k]
    assert lazy[:6] == full[:6]
    assert lazy[k:k + 5] == full[k:k + 5]
    assert lazy[::-3] == full[::-3]
    assert tuple(lazy) == full


WITNESS_PAIRS = st.lists(
    st.tuples(terms_for(DFC_SIG, ["x"]), terms_for(DFC_SIG, ["x", "y"])),
    min_size=2, max_size=2,
)
WRONG_PAIR = [(App("0"), Var("x"))] * 2


@given(dfc_members(), dfc_formulas(max_disjuncts=1), WITNESS_PAIRS)
# ONE satisfies every identity, and TWO fails these at the generator
@example(ONE, parse_formula("exists w0 . w0 = x", DFC_SIG, 1), WRONG_PAIR)
@example(TWO, parse_formula("x = y", DFC_SIG, 1), WRONG_PAIR)
@example(TWO, parse_formula("exists w0 . w0 = x", DFC_SIG, 1), WRONG_PAIR)
def test_recheck_skips_products_like_checking_them(generator, phi, pairs):
    # every member of a generated pool is in HSP of the generator, so an
    # identity fails in some member exactly when it fails in the generator,
    # which the every-member check meets first
    ctx = VarietyContext(generator, (App("0"),), (App("1"),)).populated(
        max_size=4, depth=2)
    psi = strip_to_positive(phi, 0)
    witnesses = tuple(pairs[:len(psi.bound_vars)])
    result = PositivizeResult(0, psi, witnesses, WitnessCertificate(0, ()))
    assert _recheck_outcome(_recheck_substitution, result, ctx) == (
        _recheck_outcome(recheck_substitution_every_member, result, ctx))


@given(
    st.lists(st.tuples(dfc_members(), st.sampled_from(["M0", "M1"])),
             min_size=1, max_size=3),
    dfc_formulas(),
    st.integers(0, 10**6),
)
# two members named M1 and M0, in that order: two pairs share each name group
@example([(TWO, "M1"), (TWO, "M0")], parse_formula("x = z1", DFC_SIG, 1), 7)
def test_counterexample_reads_match_materialized(named, phi, k):
    pool = tuple(
        PoolEntry(FiniteAlgebra(m.signature, m.size, m.tables, name), "drawn")
        for m, name in named
    )
    ctx = VarietyContext(pool[0].algebra, (App("0"),), (App("1"),), pool)
    lazy = verify_dfc(phi, ctx).counterexamples
    full = verify_dfc_materialized(phi, ctx).counterexamples
    # the head first, so that rows are built one name group at a time
    assert len(lazy) == len(full)
    if full:
        assert lazy[0] == full[0]
    assert lazy[:6] == full[:6]
    if full:
        k %= len(full)
        assert lazy[k] == full[k]
        assert lazy[-1] == full[-1]
    assert lazy[2:5] == full[2:5]
    assert tuple(lazy) == full
    assert lazy == full


# -- witnesses in a product, factor by factor ----------------------------------

ROLE_VALUES = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@given(dfc_members(), dfc_members(),
       dfc_formulas(max_bound=3, max_disjuncts=3, closed_negatives=True),
       ROLE_VALUES, ROLE_VALUES)
# 0 != 1 fails in ONE, so on both sides of ONE x ONE: no witness
@example(ONE, ONE, parse_formula("exists w0 . x = w0 and 0 != 1", DFC_SIG, 1),
         (0, 0, 0), (0, 0, 0))
# the least left witness, (0, 0), pairs with right witnesses from (1, 0) on,
# and (0, 1) pairs with (0, 0): the least product witness is (0, 2), outside
# the rectangle of the least left witness
@example(FiniteAlgebra(DFC_SIG, 2, ((1, 0), (0, 0, 0, 0), (0,), (0,))),
         FiniteAlgebra(DFC_SIG, 2, ((0, 0), (0, 0, 0, 0), (0,), (0,))),
         parse_formula("exists w0 w1 . 0 != f(0) and w0 != f(f(w1))",
                       DFC_SIG, 1),
         (0, 0, 0), (0, 0, 0))
def test_coordinatewise_witnesses_match_materialized_product(
    left, right, phi, left_values, right_values
):
    left_roles = (left_values[0] % left.size, left_values[1] % left.size,
                  (left_values[2] % left.size,))
    right_roles = (right_values[0] % right.size, right_values[1] % right.size,
                   (right_values[2] % right.size,))
    n = right.size
    x = pair_index(left_roles[0], right_roles[0], n)
    y = pair_index(left_roles[1], right_roles[1], n)
    zs = (pair_index(left_roles[2][0], right_roles[2][0], n),)
    ev = DnfEvaluator(direct_product(left, right), phi)
    factors = (left, left_roles), (right, right_roles)
    assert first_product_witness(phi, *factors) == first_witness(ev, x, y, zs)
    assert product_witnesses(phi, *factors) == all_witnesses(ev, x, y, zs)


# -- the correspondence check against the classifying oracle -------------------

FIXTURE_POOLS = {
    name: load_context(FIXTURES / f"{name}.ctx").populated(depth=2)
    for name in ("rings", "rings_z6", "lattices", "boolean")
}


@st.composite
def pool_members_and_formulas(draw):
    ctx = FIXTURE_POOLS[draw(st.sampled_from(sorted(FIXTURE_POOLS)))]
    member = draw(st.sampled_from(ctx.pool_algebras))
    return ctx, member, draw(dfc_formulas(signature=ctx.signature))


def _fixture_formula_case(pool, formula):
    # the pool member with the most central elements, the largest on a tie
    ctx = FIXTURE_POOLS[pool]
    member = max(ctx.pool_algebras,
                 key=lambda a: (len(central_elements(a, ctx)), a.size))
    phi = load_formula(FIXTURES / "formulas" / f"{formula}.fm", ctx.signature, 1)
    return ctx, member, phi


@given(pool_members_and_formulas())
@example(_fixture_formula_case("rings", "ring_dfc"))
@example(_fixture_formula_case("rings_z6", "ring_dfc"))
@example(_fixture_formula_case("rings_z6", "ring_mixed"))
@example(_fixture_formula_case("lattices", "lattice_dfc"))
@example(_fixture_formula_case("lattices", "lattice_mixed"))
@example(_fixture_formula_case("boolean", "lattice_dfc"))
@example(_fixture_formula_case("rings", "not_dfc"))
@example(_fixture_formula_case("lattices", "not_dfc"))
def test_congruence_of_central_matches_classifying_oracle(case):
    ctx, member, phi = case
    for ce in central_elements(member, ctx):
        report = congruence_of_central(member, phi, ce)
        oracle = congruence_of_central_classified(member, phi, ce)
        assert report.element == oracle.element
        assert report.expected == oracle.expected
        assert report.ok == oracle.ok


# -- the composed correspondence check against searching every algebra -------

# the members of the fixture pools with a median term that are not recorded
# products: products of them are composed as the pools compose their own
MEDIAN_BASES = {
    name: [a for a in FIXTURE_POOLS[name].pool_algebras
           if getattr(a, "_composed", None) is None]
    for name in ("rings", "lattices", "boolean")
}


def _recorded_product(a, b, name):
    product = direct_product(a, b, name=name)
    compose_lattice(product, a, b)
    return product


@st.composite
def median_pools(draw, max_product=12):
    """A fixture context with a median term, 1-3 of its pool's members that
    are not recorded products, then 1-3 recorded products of earlier
    algebras, products among them, each of at most max_product elements,
    and a drawn formula over the context's signature."""
    name = draw(st.sampled_from(sorted(MEDIAN_BASES)))
    ctx = FIXTURE_POOLS[name]
    algebras = draw(st.lists(st.sampled_from(MEDIAN_BASES[name]),
                             min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 3))):
        index = st.integers(0, len(algebras) - 1)
        a, b = algebras[draw(index)], algebras[draw(index)]
        if a.size * b.size <= max_product:
            algebras.append(_recorded_product(a, b, f"M{len(algebras)}"))
    phi = draw(dfc_formulas(max_bound=1, max_disjuncts=3, signature=ctx.signature))
    return ctx, algebras, phi


def _median_example(phi_text):
    """C3 and C3/{0,1|2} of the lattices pool, their product both ways, and
    that product times C3/{0,1|2}."""
    ctx = FIXTURE_POOLS["lattices"]
    c3, c2 = MEDIAN_BASES["lattices"][0], MEDIAN_BASES["lattices"][2]
    p = _recorded_product(c3, c2, "P")
    algebras = [c3, c2, p, _recorded_product(c2, c3, "Q"),
                _recorded_product(p, c2, "R")]
    return ctx, algebras, parse_formula(phi_text, ctx.signature, 1)


@given(median_pools())
# the pipeline's positive formula, which passes everywhere
@example(_median_example(r"exists w . x \/ z1 = y \/ z1"))
# a negative literal on a bound variable: the products' masks combine
@example(_median_example(r"exists w . (x \/ z1 = y \/ z1 and w != z1) "
                         r"or (z1 = w and x = y)"))
# fails in every algebra with more than one element
@example(_median_example("x = y"))
def test_correspondence_stage_matches_searching_every_algebra(case):
    ctx, algebras, phi = case
    stage = CorrespondenceStage(phi, ctx, algebras)
    for algebra in algebras:
        report = correspondence_check(algebra, phi, ctx, stage)
        assert report == correspondence_check_searched(algebra, phi, ctx)


# -- central tuples against the per-element scan -------------------------------


@st.composite
def central_cases(draw):
    """A drawn member or a product of two, over DFC_SIG with l = 1 or 2 and
    drawn closed zero and one terms."""
    l = draw(st.integers(1, 2))
    members = draw(st.lists(dfc_members(), min_size=1, max_size=2))
    algebra = members[0] if len(members) == 1 else direct_product(*members)
    closed = st.lists(st.sampled_from(CLOSED_TERMS), min_size=l, max_size=l)
    return algebra, VarietyContext(algebra, tuple(draw(closed)),
                                   tuple(draw(closed)))


@given(central_cases())
def test_central_elements_match_scan(case):
    algebra, ctx = case
    assert central_elements(algebra, ctx) == central_elements_scan(algebra, ctx)
