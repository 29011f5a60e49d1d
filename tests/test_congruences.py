import gc
import inspect
import itertools
import sys
from weakref import WeakKeyDictionary

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from factorlab import (
    Congruence,
    FiniteAlgebra,
    ResourceBoundError,
    Signature,
    ValidationError,
    all_congruences,
    compactness_report,
    congruence_from_partition,
    direct_product,
    factor_pairs,
    generate_pool,
    partition_text,
    principal_congruence,
    quotient,
    subalgebra_generated,
)
import factorlab.congruences as congruences
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


def test_all_congruences_size_bound(z6):
    with pytest.raises(ResourceBoundError):
        all_congruences(cyclic_ring(12))
    assert len(all_congruences(cyclic_ring(12), bound=12)) == 6


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
        assert _reps(all_congruences(a, bound=a.size)) == _reps(
            all_congruences_pairwise(a, bound=a.size)
        )


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
    ("lattices", "lattice_mixed", 11), ("rings", "ring_mixed", 5),
])
def test_pipeline_builds_each_lattice_once(capsys, monkeypatch, ctx, formula,
                                           members):
    # a fresh memo, so that algebras left alive by other tests do not count
    monkeypatch.setattr(congruences, "_LATTICES", WeakKeyDictionary())
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
    # one build per pool member, where pool generation and the
    # correspondence stage used to build some twice
    assert len(built) == len(set(built)) == members


def test_pipeline_computes_each_algebras_translations_once(capsys, monkeypatch):
    # a fresh lattice memo too: translations are computed only by lattice
    # builds, which a memo left warm by other tests would skip
    monkeypatch.setattr(congruences, "_LATTICES", WeakKeyDictionary())
    stored = []

    class Counting(WeakKeyDictionary):
        def __setitem__(self, algebra, translations):
            stored.append(algebra)
            super().__setitem__(algebra, translations)

    monkeypatch.setattr(congruences, "_TRANSLATIONS", Counting())
    code = main(["pipeline", str(FIXTURES / "rings.ctx"),
                 str(FIXTURES / "formulas" / "ring_mixed.fm"),
                 "--max-size", "16", "--format", "machine"])
    capsys.readouterr()
    assert code == 0
    # once per pool member, where every lattice build and every central
    # element's compatibility check used to recompute them
    assert len(stored) == len(set(stored)) == 5


def test_lattice_memo_entry_dies_with_its_algebra():
    # value-equal algebras share an entry, so the name must be unique
    name = "memo probe, used by no other test"
    algebra = FiniteAlgebra(Signature((("f", 1),)), 4, ((1, 0, 3, 2),), name)
    assert len(all_congruences(algebra)) == 7
    assert algebra in congruences._LATTICES
    assert algebra in congruences._TRANSLATIONS
    del algebra
    gc.collect()
    for memo in (congruences._LATTICES, congruences._TRANSLATIONS):
        assert name not in {a.name for a in memo.keys()}


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
    monkeypatch.setattr(congruences, "_LATTICES", WeakKeyDictionary())
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
    monkeypatch.setattr(congruences, "_LATTICES", WeakKeyDictionary())
    monkeypatch.setattr(congruences, "_close", counting_close)
    monkeypatch.setattr(congruences, "_principal_reps", counting_reps)
    return counts


@pytest.mark.parametrize("algebra, closures, pairs", [
    (_power(chain_lattice(3), 3), 171, 351), (_power(cyclic_ring(6), 2), 15, 630),
])
def test_one_closure_per_pair_graph_component(monkeypatch, algebra, closures,
                                              pairs):
    counts = _count_principal_closures(monkeypatch)
    all_congruences(algebra, bound=algebra.size)
    # one per strongly connected component, where closing every pair from
    # scratch took one per pair
    assert counts["closures"] == closures
    assert len(_all_pairs(algebra)) == pairs


def test_pool_principal_closures_are_pinned(monkeypatch):
    counts = _count_principal_closures(monkeypatch)
    generate_pool(load_context(str(FIXTURES / "lattices.ctx")), max_size=27, depth=3)
    assert len(counts["algebras"]) == 14
    assert counts["closures"] == 404
    # closing every pair from scratch takes one closure per pair
    assert sum(len(_all_pairs(a)) for a in counts["algebras"]) == 774


def test_pair_graph_pass_needs_no_recursion():
    # C4^3, a member of the lattices pool at depth 4, max size 64: a pair
    # graph of 2,016 nodes
    c3 = chain_lattice(3)
    c4, _ = subalgebra_generated(direct_product(c3, c3), [1, 2])
    member = direct_product(c4, direct_product(c4, c4))
    assert member.name == "C3xC3|[1, 2]xC3xC3|[1, 2]xC3xC3|[1, 2]"
    assert member.size == 64
    # lattices are congruence distributive, so Con(C4^3) = Con(C4)^3 = 8^3
    assert len(all_congruences(member, bound=64)) == 512
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
