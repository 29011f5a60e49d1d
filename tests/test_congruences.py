import functools
import inspect
import itertools
import json
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from factorlab.congruences import (
    Congruence,
    all_congruences,
    compactness_report,
    congruence_from_partition,
    factor_pairs,
    lattice_factors,
    partition_text,
    principal_congruence,
    quotient,
)
from factorlab.core import (
    FiniteAlgebra,
    Signature,
    direct_product,
    subalgebra_generated,
)
from factorlab.errors import ResourceBoundError, ValidationError
from factorlab.variety import generate_pool
import factorlab.congruences as congruences
import factorlab.core
from conftest import FIXTURES
from factorlab.cli import main
from factorlab.fileio import load_context
from corpus import chain_lattice, cyclic_ring
from oracles import (
    all_congruences_pairwise,
    compose,
    congruence_join,
    congruence_meet,
    congruence_reps_bruteforce,
    decomposition_from_pair,
    identity_congruence,
    is_compatible_table_scan,
    principal_rep_table_scan,
    principal_reps_per_pair,
    rep_of_partition,
    set_partitions,
    total_congruence,
)

MOD2 = (0, 1, 0, 1, 0, 1)
MOD3 = (0, 1, 2, 0, 1, 2)


def test_incompatible_partition_rejected(z6):
    with pytest.raises(ValidationError, match="incompatible"):
        congruence_from_partition(z6, [[0, 1], [2, 3], [4, 5]])


def test_principal_reflexive_pair_is_identity(z6):
    assert principal_congruence(z6, 2, 2).is_identity()


def test_principal_z6_03(z6):
    theta = principal_congruence(z6, 0, 3)
    assert theta.classes() == [[0, 3], [1, 4], [2, 5]]


def test_principal_z6_02(z6):
    theta = principal_congruence(z6, 0, 2)
    assert theta.rep == MOD2


def test_principal_chain3_bottom_middle(c3):
    theta = principal_congruence(c3, 0, 1)
    assert theta.classes() == [[0, 1], [2]]


def test_principal_contains_generating_pair(z6, c3, diamond):
    for algebra in (z6, c3, diamond):
        for a in range(algebra.size):
            for b in range(algebra.size):
                assert principal_congruence(algebra, a, b).related(a, b)


def test_principal_minimality_against_oracle(z6):
    reps = congruence_reps_bruteforce(z6)
    for a in range(6):
        for b in range(a + 1, 6):
            cg = principal_congruence(z6, a, b)
            for rep in reps:
                if rep[a] == rep[b]:
                    # cg must be below every congruence containing (a, b)
                    other = Congruence(z6, rep)
                    assert congruence_meet(cg, other).rep == cg.rep


def test_all_congruences_z6(z6):
    cons = all_congruences(z6)
    assert len(cons) == 4
    assert {c.rep for c in cons} == {
        tuple(range(6)), MOD2, MOD3, (0,) * 6
    }
    # sorted by (class count, rep): total first, identity last
    assert cons[0].n_classes == 1
    assert cons[-1].is_identity()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_all_congruences_matches_partition_filter(n):
    algebra = cyclic_ring(n)
    assert {c.rep for c in all_congruences(algebra)} == congruence_reps_bruteforce(
        algebra
    )


def test_all_congruences_lattices_match_oracle(c3, diamond):
    for algebra in (c3, diamond):
        assert {
            c.rep for c in all_congruences(algebra)
        } == congruence_reps_bruteforce(algebra)


def test_simple_algebra_has_two_congruences(z5):
    assert len(all_congruences(z5)) == 2


def test_trivial_algebra_has_one_congruence():
    assert len(all_congruences(cyclic_ring(1))) == 1


def test_all_congruences_size_bound(capsys):
    # the bound is the CLI's --max-size; `all_congruences` takes any size
    z12 = str(FIXTURES / "z12.alg")
    for flag in ("--lattice", "--factor-pairs"):
        assert main(["cong", z12, flag]) == 3
        assert capsys.readouterr().err == (
            "error: size 12 exceeds congruence enumeration bound 8\n")
    assert main(["cong", z12, "--max-size", "12", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 6
    assert len(all_congruences(cyclic_ring(12))) == 6


def test_meet_join_units(z6):
    theta = principal_congruence(z6, 0, 2)
    assert congruence_meet(theta, total_congruence(z6)).rep == theta.rep
    assert congruence_join(theta, identity_congruence(z6)).rep == theta.rep


def test_compose_mod2_mod3_is_total(z6):
    c2 = Congruence(z6, MOD2)
    c3_ = Congruence(z6, MOD3)
    assert len(compose(c2, c3_)) == 36


def test_compose_with_identity_is_theta(z6):
    theta = Congruence(z6, MOD2)
    rel = compose(identity_congruence(z6), theta)
    assert rel == frozenset(
        (a, b) for a in range(6) for b in range(6) if theta.related(a, b)
    )


def test_lattice_closure_under_meet_join(z6, diamond):
    for algebra in (z6, diamond):
        cons = all_congruences(algebra)
        reps = {c.rep for c in cons}
        for t1 in cons:
            for t2 in cons:
                assert congruence_meet(t1, t2).rep in reps
                assert congruence_join(t1, t2).rep in reps


def test_factor_pairs_z6(z6):
    pairs = factor_pairs(z6)
    assert len(pairs) == 4
    reps = {(p.theta.rep, p.theta_c.rep) for p in pairs}
    delta, nabla = tuple(range(6)), (0,) * 6
    assert reps == {(delta, nabla), (nabla, delta), (MOD2, MOD3), (MOD3, MOD2)}


def test_factor_pairs_z4_only_trivial(z4):
    pairs = factor_pairs(z4)
    assert len(pairs) == 2
    assert all(p.theta.is_identity() or p.theta.n_classes == 1 for p in pairs)


def test_factor_pairs_simple(z5):
    assert len(factor_pairs(z5)) == 2


def test_factor_pair_class_intersection_property(z6):
    for p in factor_pairs(z6):
        for c1 in p.theta.classes():
            for c2 in p.theta_c.classes():
                assert len(set(c1) & set(c2)) == 1


def test_factor_pair_size_product(z6, diamond):
    for algebra in (z6, diamond):
        for p in factor_pairs(algebra):
            assert p.theta.n_classes * p.theta_c.n_classes == algebra.size


def test_quotient_by_identity_is_isomorphic(z6):
    q, proj = quotient(z6, identity_congruence(z6))
    assert q.size == 6
    assert q.tables == z6.tables
    assert proj == tuple(range(6))


def test_quotient_by_total_is_trivial(z6):
    q, _ = quotient(z6, total_congruence(z6))
    assert q.size == 1


def test_double_quotient_collapses(z6):
    q, _ = quotient(z6, principal_congruence(z6, 0, 3))
    q2, _ = quotient(q, total_congruence(q))
    assert q2.size == 1


def test_quotient_z6_mod3_matches_z3(z6):
    q, _ = quotient(z6, principal_congruence(z6, 0, 3))
    assert q.size == 3
    assert q.tables == cyclic_ring(3).tables


def test_decomposition_z6(z6):
    pair = [p for p in factor_pairs(z6) if p.theta.rep == MOD3][0]
    dec = decomposition_from_pair(z6, pair)
    assert dec.left.size == 3 and dec.right.size == 2
    assert sorted(dec.iso) == list(range(6))


def test_decomposition_trivial_pairs(z6):
    for p in factor_pairs(z6):
        if p.theta.is_identity():
            dec = decomposition_from_pair(z6, p)
            assert dec.left.size == 6 and dec.right.size == 1
        if p.theta.n_classes == 1:
            dec = decomposition_from_pair(z6, p)
            assert dec.left.size == 1 and dec.right.size == 6


def test_compactness_identity_needs_nothing(z6):
    rep = compactness_report(z6, identity_congruence(z6))
    assert rep.m == 0 and rep.generating_pairs == ()


def test_compactness_mod2_single_pair(z6):
    rep = compactness_report(z6, Congruence(z6, MOD2))
    assert rep.m == 1
    assert rep.generating_pairs == ((0, 2),)
    assert rep.exhaustive


def test_compactness_total_z6(z6):
    rep = compactness_report(z6, total_congruence(z6))
    assert rep.m == 1
    assert rep.generating_pairs == ((0, 1),)


def test_partition_text_format(z6):
    assert partition_text(Congruence(z6, MOD3)) == "{0,3|1,4|2,5}"


UNARY_BINARY = Signature((("f", 1), ("g", 2)))


@st.composite
def unary_binary_algebras(draw):
    n = draw(st.integers(1, 5))
    f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    g = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    return FiniteAlgebra(UNARY_BINARY, n, (tuple(f), tuple(g)), "R")


@given(unary_binary_algebras())
def test_translation_closure_matches_table_scan(algebra):
    n = algebra.size
    reps = congruence_reps_bruteforce(algebra)
    cons = all_congruences(algebra)
    assert {c.rep for c in cons} == reps
    for a in range(n):
        for b in range(n):
            assert principal_congruence(algebra, a, b).rep == (
                principal_rep_table_scan(algebra, a, b)
            )
    by_composition = {
        (t1.rep, t2.rep)
        for t1 in cons
        for t2 in cons
        if congruence_meet(t1, t2).is_identity() and len(compose(t1, t2)) == n * n
    }
    assert {(p.theta.rep, p.theta_c.rep) for p in factor_pairs(algebra)} == (
        by_composition
    )
    for classes in set_partitions(n):
        rep = rep_of_partition(n, classes)
        assert congruences._respects_translations(algebra, rep) == (
            is_compatible_table_scan(algebra, rep)
        )


def _reps(cons):
    return [c.rep for c in cons]


@st.composite
def small_algebras(draw):
    """Size <= 6 with 1-3 operations of arity 0-3.  Each table is random,
    constant, or x1 + ... + xk mod n through a permutation, whose basic
    translations are all bijective."""
    n = draw(st.integers(1, 6))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    tables = []
    for arity in arities:
        cells = n**arity
        kind = draw(st.sampled_from(["random", "constant", "bijective"]))
        if kind == "constant":
            tables.append((draw(st.integers(0, n - 1)),) * cells)
        elif kind == "bijective":
            perm = draw(st.permutations(range(n)))
            tables.append(tuple(
                perm[sum(args) % n]
                for args in itertools.product(range(n), repeat=arity)
            ))
        else:
            tables.append(tuple(draw(st.lists(
                st.integers(0, n - 1), min_size=cells, max_size=cells))))
    signature = Signature(tuple((f"f{i}", a) for i, a in enumerate(arities)))
    return FiniteAlgebra(signature, n, tuple(tables), "R")


@given(small_algebras())
@example(FiniteAlgebra(Signature((("f", 1),)), 3, ((1, 2, 0),), "C3 rotation"))
@example(FiniteAlgebra(Signature((("f", 1),)), 4, ((1, 2, 3, 3),), "descent"))
def test_lattice_matches_pairwise_closure(algebra):
    assert _reps(all_congruences(algebra)) == _reps(all_congruences_pairwise(algebra))


@pytest.mark.parametrize("name, depth, max_size", [
    ("lattices", 3, 27), ("rings", 3, 27), ("boolean", 3, 32),
    ("rings_z6", 2, 36),
])
def test_pool_lattices_match_pairwise_closure(name, depth, max_size):
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    for entry in generate_pool(ctx, max_size=max_size, depth=depth):
        a = entry.algebra
        assert _reps(all_congruences(a)) == _reps(all_congruences_pairwise(a))


def test_lattice_and_factor_pairs_skip_validation(lattices_ctx, z6, monkeypatch):
    calls = []
    checker = congruences._respects_translations

    def counting(algebra, rep):
        calls.append(rep)
        return checker(algebra, rep)

    monkeypatch.setattr(congruences, "_respects_translations", counting)
    member = max(lattices_ctx.pool_algebras, key=lambda a: a.size)
    assert len(all_congruences(member)) == 8
    assert len(factor_pairs(member)) == 4
    assert calls == []
    with pytest.raises(ValidationError, match="incompatible"):
        congruence_from_partition(z6, [[0, 1], [2, 3], [4, 5]])
    assert len(calls) == 1


@pytest.mark.parametrize("ctx, formula, members", [
    ("lattices", "lattice_mixed", 7), ("rings", "ring_mixed", 2),
])
def test_pipeline_builds_each_lattice_once(capsys, monkeypatch, ctx, formula,
                                           members):
    built = []
    original = congruences._principal_reps

    def counting(algebra, pairs):
        built.append(algebra)
        return original(algebra, pairs)

    monkeypatch.setattr(congruences, "_principal_reps", counting)
    code = main(["pipeline", str(FIXTURES / f"{ctx}.ctx"),
                 str(FIXTURES / "formulas" / f"{formula}.fm"),
                 "--max-size", "16", "--format", "machine"])
    capsys.readouterr()
    assert code == 0
    # one build per non-product member, where pool generation and the
    # correspondence stage used to build some twice; both generators have a
    # median term, so each product's lattice is composed from its factors'
    assert len(built) == len(set(built)) == members


def test_pipeline_computes_each_algebras_translations_once(capsys, monkeypatch):
    computed = []
    translations = congruences._translations

    def counting(algebra):
        if getattr(algebra, "_translations", None) is None:
            computed.append(algebra)
        return translations(algebra)

    monkeypatch.setattr(congruences, "_translations", counting)
    code = main(["pipeline", str(FIXTURES / "rings.ctx"),
                 str(FIXTURES / "formulas" / "ring_mixed.fm"),
                 "--max-size", "16", "--format", "machine"])
    capsys.readouterr()
    assert code == 0
    # once per non-product member (Z2 and Z2/{0,1}), where every lattice
    # build and every central element's compatibility check used to
    # recompute them; the three products' lattices are composed
    assert len(computed) == len(set(computed)) == 2


def _table_backed(algebra):
    """A copy of `algebra` that holds its tables and nothing derived from
    them, so its lattice is a direct build."""
    return FiniteAlgebra._trusted(algebra.signature, algebra.size,
                                  algebra.tables, algebra.name)


def test_lattice_is_kept_by_its_own_object(monkeypatch):
    built = []
    principal_reps = congruences._principal_reps

    def counting(algebra, pairs):
        built.append(algebra)
        return principal_reps(algebra, pairs)

    monkeypatch.setattr(congruences, "_principal_reps", counting)
    algebra = FiniteAlgebra(Signature((("f", 1),)), 4, ((1, 0, 3, 2),), "P")
    assert len(all_congruences(algebra)) == 7
    assert len(all_congruences(algebra)) == 7
    assert len(built) == 1
    # a value-equal object reads nothing of the first one's
    copy = _table_backed(algebra)
    assert copy == algebra
    assert len(all_congruences(copy)) == 7
    assert len(built) == 2 and built[1] is copy


def test_value_equal_products_read_no_tables(monkeypatch):
    # two value-equal products of C3, which has a median term: each lattice
    # is composed, and no lookup compares the two objects' tables
    built = []
    product_tables = factorlab.core._product_tables

    def building(a, b):
        built.append((a, b))
        return product_tables(a, b)

    monkeypatch.setattr(factorlab.core, "_product_tables", building)
    c3 = chain_lattice(3)
    first, second = direct_product(c3, c3), direct_product(c3, c3)
    assert len(all_congruences(first)) == 16
    assert len(all_congruences(second)) == 16
    assert built == []


def _all_pairs(algebra):
    n = algebra.size
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _power(algebra, k):
    out = algebra
    for _ in range(k - 1):
        out = direct_product(out, algebra)
    return out


@given(small_algebras())
@example(_power(cyclic_ring(2), 4))
@example(_power(chain_lattice(3), 2))
def test_principal_reps_match_per_pair_closure(algebra):
    pairs = _all_pairs(algebra)
    expected = principal_reps_per_pair(algebra, pairs)
    assert congruences._principal_reps(algebra, pairs) == expected
    # a pass from one root reaches only part of the pair graph
    for p in pairs:
        assert congruences._principal_reps(algebra, [p]) == {p: expected[p]}


@pytest.mark.parametrize("name, depth, max_size", [
    ("lattices", 3, 27), ("rings", 3, 27), ("boolean", 3, 32),
    ("rings_z6", 2, 36),
])
def test_pool_principal_reps_match_per_pair_closure(monkeypatch, name, depth,
                                                   max_size):
    # the pool is built on the oracle, so that a wrong pass fails here and
    # cannot derail pool generation
    principal_reps = congruences._principal_reps
    monkeypatch.setattr(congruences, "_principal_reps", principal_reps_per_pair)
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    for entry in generate_pool(ctx, max_size=max_size, depth=depth):
        pairs = _all_pairs(entry.algebra)
        assert principal_reps(entry.algebra, pairs) == (
            principal_reps_per_pair(entry.algebra, pairs)
        )


def _count_principal_closures(monkeypatch):
    """Count the `_close` calls made inside `_principal_reps`, and record the
    algebras whose principals it computes."""
    counts = {"closures": 0, "algebras": []}
    close, principal_reps = congruences._close, congruences._principal_reps

    def counting_close(*args):
        if inside:
            counts["closures"] += 1
        return close(*args)

    def counting_reps(algebra, pairs):
        nonlocal inside
        counts["algebras"].append(algebra)
        inside = True
        try:
            return principal_reps(algebra, pairs)
        finally:
            inside = False

    inside = False
    monkeypatch.setattr(congruences, "_close", counting_close)
    monkeypatch.setattr(congruences, "_principal_reps", counting_reps)
    return counts


@pytest.mark.parametrize("algebra, closures, pairs", [
    # table-backed, as C3^3's lattice would be composed from C3's
    (_table_backed(_power(chain_lattice(3), 3)), 171, 351),
    (_power(cyclic_ring(6), 2), 15, 630),
])
def test_one_closure_per_pair_graph_component(monkeypatch, algebra, closures,
                                              pairs):
    counts = _count_principal_closures(monkeypatch)
    all_congruences(algebra)
    # one per strongly connected component, where closing every pair from
    # scratch took one per pair
    assert counts["closures"] == closures
    assert len(_all_pairs(algebra)) == pairs


def test_pool_principal_closures_are_pinned(monkeypatch):
    counts = _count_principal_closures(monkeypatch)
    generate_pool(load_context(str(FIXTURES / "lattices.ctx")), max_size=27, depth=3)
    # 14 members are expanded, and the lattices of the four products and
    # the three quotients of products among them are composed from their
    # factors': C3 has a median term
    assert len(counts["algebras"]) == 7
    assert counts["closures"] == 39
    # closing every pair from scratch takes one closure per pair
    assert sum(len(_all_pairs(a)) for a in counts["algebras"]) == 45


def test_pair_graph_pass_needs_no_recursion():
    # C4^3, a member of the lattices pool at depth 4, max size 64: a pair
    # graph of 2,016 nodes
    c3 = chain_lattice(3)
    c4, _ = subalgebra_generated(direct_product(c3, c3), [1, 2])
    member = direct_product(c4, direct_product(c4, c4))
    assert member.name == "C3xC3|[1, 2]xC3xC3|[1, 2]xC3xC3|[1, 2]"
    assert member.size == 64
    # lattices are congruence distributive, so Con(C4^3) = Con(C4)^3 = 8^3
    assert len(all_congruences(member)) == 512
    # x -> x + 1 on 400 elements: the pass from (0, 1) runs down one path of
    # 400 pairs, which a recursive search could not stack under this limit
    n = 400
    cycle = FiniteAlgebra(Signature((("f", 1),)), n,
                          (tuple((x + 1) % n for x in range(n)),), "Z400 successor")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        reps = congruences._principal_reps(cycle, [(0, 1)])
    finally:
        sys.setrecursionlimit(limit)
    assert reps == {(0, 1): (0,) * n}


def _pair_reps(algebra):
    return [(p.theta.rep, p.theta_c.rep) for p in factor_pairs(algebra)]


def test_lattice_past_the_cell_cap_raises(monkeypatch):
    c3 = chain_lattice(3)
    product = direct_product(c3, c3)
    # C3 x C3 composes |Con C3|^2 = 16 rep tuples of 9 cells, checked before
    # any is written; C3's own join closure writes 9 cells
    monkeypatch.setattr(congruences, "LATTICE_CELL_CAP", 143)
    with pytest.raises(ResourceBoundError) as err:
        all_congruences(product)
    assert str(err.value) == (
        "all_congruences: estimated 144 lattice cells for 'C3xC3' exceed cap 143")
    assert getattr(product, "_lattice", None) is None
    monkeypatch.setattr(congruences, "LATTICE_CELL_CAP", 144)
    assert len(all_congruences(product)) == 16


@pytest.mark.parametrize("name, max_size, composed", [
    ("lattices", 27, 56), ("rings", 27, 3), ("boolean", 32, 4),
    # Z6 has no median term, but Z2 = Z6/{0,2,4|1,3,5} has xy + yz + xz:
    # Z2^2, Z2^3 and Z2^4
    ("rings_z6", 27, 3),
])
def test_composed_lattices_match_direct_builds(name, max_size, composed):
    # every lattice and factor pair of the depth-3 pool against a direct build
    ctx = load_context(str(FIXTURES / f"{name}.ctx"))
    members = [e.algebra for e in generate_pool(ctx, max_size=max_size, depth=3)]
    assert sum(lattice_factors(a) is not None for a in members) == composed
    lattices = [_reps(all_congruences(a)) for a in members]
    pairs = [_pair_reps(a) for a in members]
    direct = [_table_backed(a) for a in members]
    assert lattices == [_reps(all_congruences(a)) for a in direct]
    assert pairs == [_pair_reps(a) for a in direct]


def test_pool_lattices_are_built_once_per_leaf_multiset():
    # lattices: one build per non-product member, the lattices of the 48
    # products and the 8 quotients of products being composed from their
    # factors'; Z6 has no median term, so each of the 30 rings_z6 members
    # but Z2^2, Z2^3 and Z2^4, whose factors share Z2's, is built once
    for name, members, builds in (("lattices", 63, 7), ("rings_z6", 30, 27)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = _count_principal_closures(monkeypatch)
            pool = generate_pool(load_context(str(FIXTURES / f"{name}.ctx")),
                                 max_size=27, depth=3)
            for entry in pool:
                all_congruences(entry.algebra)
            assert len(pool) == members
            assert len(counts["algebras"]) == len(set(counts["algebras"])) == builds


@pytest.mark.parametrize("name, pair", [
    ("lattices", (0, 1)), ("boolean", (0, 1)), ("rings", (1, 0)),
    ("rings_z6", None),
])
def test_median_term_of_the_fixture_generators(name, pair):
    # (x /\ y \/ y /\ z) \/ x /\ z in lattices, xy + yz + xz in Z2; Z6 has none
    generator = load_context(str(FIXTURES / f"{name}.ctx")).generator
    assert congruences.median_term(generator) == pair


@pytest.mark.parametrize("n, table", [
    (2, (0, 1, 0, 1)),  # x * y = y, so m(x,y,z) = z: m(x,x,y) = y
    (3, tuple((-x - y) % 3 for x in range(3) for y in range(3))),  # m(x,y,x) = y
    (2, (0, 0, 1, 1)),  # x * y = x, so m(x,y,z) = x: m(y,x,x) = y
], ids=["m(x,x,y)", "m(x,y,x)", "m(y,x,x)"])
def test_median_term_needs_every_identity(n, table):
    # each algebra satisfies the other two identities, and its square has
    # congruences that are not products, which composing would miss
    algebra = FiniteAlgebra(Signature((("*", 2),)), n, (table,), "P")
    assert congruences.median_term(algebra) is None
    square = direct_product(algebra, algebra)
    assert len(all_congruences(algebra)) == 2
    assert len(all_congruences(square)) == (
        15 if n == 2 else 6)


def test_unregistered_product_lattice_is_composed(monkeypatch):
    # C3 has a median term, so the lattice of a bare direct_product(C3, C3)
    # is composed from C3's: no principal of the product is computed and
    # no product table is built
    counts = _count_principal_closures(monkeypatch)
    built = []
    product_tables = factorlab.core._product_tables

    def building(a, b):
        built.append((a, b))
        return product_tables(a, b)

    monkeypatch.setattr(factorlab.core, "_product_tables", building)
    c3 = chain_lattice(3)
    product = direct_product(c3, c3)
    assert lattice_factors(product) == (c3, c3)
    composed = _reps(all_congruences(product))
    assert len(counts["algebras"]) == 1 and counts["algebras"][0] is c3
    assert built == []
    assert composed == _reps(all_congruences(_table_backed(product)))


@pytest.mark.parametrize("c2_first", [True, False])
def test_composing_needs_a_majority_pair_of_both_factors(c2_first):
    # C2 has a median term, and S, the two-element semilattice with meet
    # for both operations, has none; their product has 5 congruences, one
    # of them no product theta x phi, where composing gives 2 * 2
    c2 = chain_lattice(2)
    meet = c2.tables[0]
    s = FiniteAlgebra(c2.signature, 2, (meet, meet) + c2.tables[2:], "S")
    assert congruences.median_term(c2) == (0, 1)
    assert congruences.median_term(s) is None
    product = direct_product(c2, s) if c2_first else direct_product(s, c2)
    assert lattice_factors(product) is None
    lattice = _reps(all_congruences(product))
    assert len(lattice) == 5
    assert lattice == _reps(all_congruences(_table_backed(product)))


def _with_unary(leaf, table):
    symbols = leaf.signature.symbols + (("f", 1),)
    return FiniteAlgebra(Signature(symbols), leaf.size, leaf.tables + (table,),
                         f"{leaf.name}+f{table}")


@st.composite
def chain_products(draw):
    """2-3 chain lattices of 2-3 elements, each with a random unary
    operation f, and their product nested to the left or to the right."""
    leaves = []
    for _ in range(draw(st.integers(2, 3))):
        n = draw(st.integers(2, 3))
        table = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        leaves.append(_with_unary(chain_lattice(n), tuple(table)))
    return leaves, draw(st.booleans())


@given(chain_products())
@example(([_with_unary(chain_lattice(2), (1, 0)),
           _with_unary(chain_lattice(3), (0, 1, 2))], False))
@example(([_with_unary(chain_lattice(3), (2, 2, 0)),
           _with_unary(chain_lattice(2), (0, 0)),
           _with_unary(chain_lattice(3), (1, 1, 1))], True))
def test_composed_lattice_matches_direct_build(drawn):
    leaves, to_the_right = drawn
    assert all(congruences.median_term(leaf) == (0, 1) for leaf in leaves)
    inner_leaves = leaves[1:] if to_the_right else leaves[:-1]
    inner = functools.reduce(direct_product, inner_leaves)
    outer = (leaves[0], inner) if to_the_right else (inner, leaves[-1])
    product = direct_product(*outer)
    composed = _reps(all_congruences(product))
    pairs = _pair_reps(product)
    copy = _table_backed(product)
    direct = _reps(all_congruences(copy))
    assert composed == direct
    assert pairs == _pair_reps(copy)
    # each leaf has at least its identity and its total congruence
    assert len(direct) >= 2 ** len(leaves)
