import sys

import pytest

import factorlab.core
import factorlab.dfc
from factorlab import (
    DnfEvaluator,
    ResourceBoundError,
    central_elements,
    congruence_of_central,
    correspondence_check,
    direct_product,
    factor_pairs,
    parse_formula,
    partition_text,
    verify_dfc,
)
from factorlab.fileio import load_context, load_formula
from corpus import chain_lattice, cyclic_ring, lattice_context, ring_context
from conftest import FIXTURES
from oracles import (
    congruence_of_central_classified,
    ring_idempotents,
    verify_dfc_searched,
)

RING_PHI = "z1 * x = z1 * y"
LATTICE_PHI = r"x \/ z1 = y \/ z1"


def test_central_z6_matches_idempotents(z6, rings_z6_ctx):
    ces = central_elements(z6, rings_z6_ctx)
    assert sorted(ce.e[0] for ce in ces) == [0, 1, 3, 4]
    assert sorted(ce.e[0] for ce in ces) == ring_idempotents(z6)


def test_central_chain3_bottom_top_only(c3, lattices_ctx):
    ces = central_elements(c3, lattices_ctx)
    assert sorted(ce.e[0] for ce in ces) == [0, 2]


def test_central_diamond_all_four(diamond, lattices_ctx):
    ces = central_elements(diamond, lattices_ctx)
    assert sorted(ce.e[0] for ce in ces) == [0, 1, 2, 3]


def test_central_trivial_pairs_pin_orientation(z6, rings_z6_ctx):
    # the pair with identity theta carries the zero-term value, the mirrored
    # pair the one-term value
    zero_val = rings_z6_ctx.zero_values(z6)[0]
    one_val = rings_z6_ctx.one_values(z6)[0]
    for ce in central_elements(z6, rings_z6_ctx):
        if ce.pair.theta.is_identity():
            assert ce.e == (zero_val,)
        if ce.pair.theta.n_classes == 1:
            assert ce.e == (one_val,)


def test_central_uniqueness_per_pair(z6, rings_z6_ctx):
    ces = central_elements(z6, rings_z6_ctx)
    assert len(ces) == len(factor_pairs(z6))
    assert len({ce.e for ce in ces}) == len(ces)


def test_central_elements_of_ring_product(rings_ctx, z2):
    z2xz2 = direct_product(z2, z2, name="Z2xZ2")
    ces = central_elements(z2xz2, rings_ctx)
    assert len(ces) == 4
    assert sorted(ce.e[0] for ce in ces) == [0, 1, 2, 3]


def test_verify_dfc_ring_pool_passes(rings_z6_ctx):
    phi = parse_formula(RING_PHI, rings_z6_ctx.signature, 1)
    report = verify_dfc(phi, rings_z6_ctx)
    assert report.ok
    assert len(report.pairs_tested) == 16
    assert report.counterexamples == ()


def test_verify_dfc_lattice_pool_passes(lattices_ctx):
    phi = parse_formula(LATTICE_PHI, lattices_ctx.signature, 1)
    assert verify_dfc(phi, lattices_ctx).ok


def test_verify_dfc_equality_fails_with_back_direction(rings_z6_ctx):
    phi = parse_formula("x = y", rings_z6_ctx.signature, 1)
    report = verify_dfc(phi, rings_z6_ctx)
    assert not report.ok
    ce = report.counterexamples[0]
    assert ce.direction == "<="
    # formula false although the first coordinates agree
    assert ce.a == ce.c and ce.b != ce.d
    with pytest.raises(IndexError, match="counterexample index out of range"):
        report.counterexamples[len(report.counterexamples)]


def test_verify_dfc_forward_direction_counterexample(rings_z6_ctx):
    # b = d holds in products whenever the second coordinates agree, so it
    # reports a forward failure at some a != c
    phi = parse_formula("exists w . w = w and x = x", rings_z6_ctx.signature, 1)
    report = verify_dfc(phi, rings_z6_ctx)
    assert not report.ok
    assert any(ce.direction == "=>" for ce in report.counterexamples)


def test_verify_dfc_respects_pair_cap(rings_z6_ctx):
    phi = parse_formula(RING_PHI, rings_z6_ctx.signature, 1)
    report = verify_dfc(phi, rings_z6_ctx, pair_cap=6)
    assert ("Z6", "Z6") in report.skipped
    assert all(
        an != "Z6" or bn != "Z6" for an, bn in report.pairs_tested
    )


def test_verify_dfc_eval_cap(rings_z6_ctx):
    phi = parse_formula(RING_PHI, rings_z6_ctx.signature, 1)
    with pytest.raises(
        ResourceBoundError, match=r"^verify_dfc: estimated \d+ evaluations exceed cap 10$"
    ):
        verify_dfc(phi, rings_z6_ctx, eval_cap=10)


def test_verify_dfc_searches_no_product_member(monkeypatch):
    ctx = load_context(str(FIXTURES / "lattices.ctx")).populated(
        max_size=16, depth=3)
    phi = load_formula(FIXTURES / "formulas" / "not_dfc.fm", ctx.signature, 1)
    searched = []
    failure_masks = DnfEvaluator.failure_masks

    def counting(self, *args):
        searched.append(self.algebra)
        return failure_masks(self, *args)

    monkeypatch.setattr(DnfEvaluator, "failure_masks", counting)
    report = verify_dfc(phi, ctx)
    products = [e.algebra for e in ctx.pool if e.factors is not None]
    members = [e.algebra for e in ctx.pool if e.factors is None]
    assert (len(ctx.pool), len(products)) == (33, 23)
    assert not any(a in products for a in searched)
    # every other member once per (a, c) and side, where searching every
    # member made 7,618 calls
    assert len(searched) == 2 * sum(a.size ** 2 for a in members) == 408
    assert len(report.counterexamples) == 105254


FIXTURE_FORMULAS = {
    "lattices": ("lattice_dfc", "lattice_mixed", "not_dfc"),
    "boolean": ("lattice_dfc", "lattice_mixed", "not_dfc"),
    "rings": ("ring_dfc", "ring_mixed", "ring_no_witness3", "not_dfc"),
    "rings_z6": ("ring_dfc", "ring_mixed", "ring_no_witness3", "not_dfc"),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_FORMULAS))
def test_verify_dfc_matches_searching_every_member(name):
    ctx = load_context(str(FIXTURES / f"{name}.ctx")).populated(depth=3)
    assert any(e.factors is not None for e in ctx.pool)
    for formula in FIXTURE_FORMULAS[name]:
        phi = load_formula(FIXTURES / "formulas" / f"{formula}.fm", ctx.signature, 1)
        # equal reports have equal counterexample tuples
        assert verify_dfc(phi, ctx) == verify_dfc_searched(phi, ctx)


def _count_direct_products(monkeypatch) -> list:
    """Record every later `direct_product` call, by any route."""
    original = factorlab.core.direct_product
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module namespace that holds the function, so no route escapes
    for name, module in list(sys.modules.items()):
        if name.startswith("factorlab") and getattr(
            module, "direct_product", None
        ) is original:
            monkeypatch.setattr(module, "direct_product", counting)
    return calls


def test_verify_dfc_builds_no_product(monkeypatch):
    ctx = lattice_context(chain_lattice(3)).populated(max_size=16, depth=3)
    calls = _count_direct_products(monkeypatch)
    phi = parse_formula("x = y", ctx.signature, 1)
    report = verify_dfc(phi, ctx)
    assert calls == []
    assert len(ctx.pool) == 33
    assert len(report.counterexamples) == 105254


def test_correspondence_check_builds_no_product(monkeypatch):
    # central elements carry their factor pair only; no Decomposition (two
    # quotients and a product) is built for them
    ctx = load_context(str(FIXTURES / "rings.ctx")).populated()
    phi = parse_formula(RING_PHI, ctx.signature, 1)
    calls = _count_direct_products(monkeypatch)
    reports = [correspondence_check(entry.algebra, phi, ctx) for entry in ctx.pool]
    assert calls == []
    assert all(r.ok for r in reports)
    assert sum(r.n_central for r in reports) > len(ctx.pool)


def test_correspondence_check_compiles_the_formula_once(monkeypatch):
    ctx = load_context(str(FIXTURES / "lattices.ctx")).populated(max_size=16)
    phi = parse_formula(LATTICE_PHI, ctx.signature, 1)
    compiled = []

    class Counting(factorlab.dfc.DnfEvaluator):
        def __init__(self, algebra, phi):
            compiled.append(algebra)
            super().__init__(algebra, phi)

    monkeypatch.setattr(factorlab.dfc, "DnfEvaluator", Counting)
    reports = [correspondence_check(a, phi, ctx) for a in ctx.pool_algebras]
    assert all(r.ok for r in reports)
    # one compilation per algebra, where each central element had its own
    assert compiled == list(ctx.pool_algebras)
    assert len(compiled) == 11 and sum(r.n_central for r in reports) == 29
    # the single-element entry point still compiles for itself
    ce = central_elements(ctx.generator, ctx)[0]
    assert congruence_of_central(ctx.generator, phi, ce).ok
    assert compiled[-1] is ctx.generator and len(compiled) == len(reports) + 1


def test_dfc_relation_is_first_projection_kernel(z6, rings_z6_ctx):
    # evaluated over A x B with the distinguished parameters, a passing
    # formula relates exactly the pairs with equal first coordinate
    from factorlab import DnfEvaluator, pair_index

    phi = parse_formula(RING_PHI, rings_z6_ctx.signature, 1)
    z3 = cyclic_ring(3)
    p = direct_product(z6, z3)
    ev = DnfEvaluator(p, phi)
    zs = tuple(
        pair_index(za, zb, z3.size)
        for za, zb in zip(rings_z6_ctx.zero_values(z6), rings_z6_ctx.one_values(z3))
    )
    for x in range(p.size):
        for y in range(p.size):
            assert ev.satisfied(x, y, zs) == (x // 3 == y // 3)


def test_congruence_of_central_z6(z6, rings_z6_ctx):
    phi = parse_formula(RING_PHI, rings_z6_ctx.signature, 1)
    for ce in central_elements(z6, rings_z6_ctx):
        report = congruence_of_central(z6, phi, ce)
        assert report.ok
        assert report.expected == ce.pair.theta
        classified = congruence_of_central_classified(z6, phi, ce)
        assert classified.computed.rep == ce.pair.theta.rep
    # the idempotent 3 defines the two-class congruence it is zero-side for
    three = [
        ce for ce in central_elements(z6, rings_z6_ctx) if ce.e == (3,)
    ][0]
    rep = congruence_of_central(z6, phi, three)
    assert rep.ok
    assert partition_text(rep.expected) == "{0,2,4|1,3,5}"
    classified = congruence_of_central_classified(z6, phi, three)
    assert partition_text(classified.computed) == "{0,2,4|1,3,5}"


def test_congruence_of_central_boundary_elements(z6, rings_z6_ctx):
    phi = parse_formula(RING_PHI, rings_z6_ctx.signature, 1)
    ces = {ce.e[0]: ce for ce in central_elements(z6, rings_z6_ctx)}
    zero_side = rings_z6_ctx.zero_values(z6)[0]
    one_side = rings_z6_ctx.one_values(z6)[0]
    # zero-side element defines the identity relation's pair, one-side the total
    zero_report = congruence_of_central(z6, phi, ces[zero_side])
    one_report = congruence_of_central(z6, phi, ces[one_side])
    assert zero_report.ok and zero_report.expected.is_identity()
    assert one_report.ok and one_report.expected.n_classes == 1
    assert congruence_of_central_classified(
        z6, phi, ces[zero_side]).computed.is_identity()
    assert congruence_of_central_classified(
        z6, phi, ces[one_side]).computed.n_classes == 1


def test_congruence_of_central_mismatch_reported(z6, rings_z6_ctx):
    # a formula that does not define factor congruences yields a mismatch
    # (here: constantly true relates everything)
    phi = parse_formula("0 = 0", rings_z6_ctx.signature, 1)
    ces = central_elements(z6, rings_z6_ctx)
    reports = [congruence_of_central(z6, phi, ce) for ce in ces]
    classified = [congruence_of_central_classified(z6, phi, ce) for ce in ces]
    assert any(not r.ok for r in reports)
    assert any(r.is_congruence and not r.matches_pair for r in classified)
    assert [r.ok for r in reports] == [r.ok for r in classified]


@pytest.mark.parametrize("algebra, text", [
    (chain_lattice(3), "x != y"),  # not reflexive
    (chain_lattice(3), r"x \/ y = y"),  # x <= y: not symmetric
    # the kernel of squaring, {0} and {1, 2}: an equivalence, but 1 + 1 = 2
    # and 2 + 1 = 0 are not related
    (cyclic_ring(3), "x * x = y * y"),
])
def test_congruence_of_central_rejects_non_congruences(algebra, text):
    ctx = (ring_context if algebra.signature.has("*") else lattice_context)(algebra)
    phi = parse_formula(text, ctx.signature, 1)
    for ce in central_elements(algebra, ctx):
        report = congruence_of_central(algebra, phi, ce)
        assert not report.ok
        assert report.expected == ce.pair.theta
        classified = congruence_of_central_classified(algebra, phi, ce)
        assert not classified.is_congruence
        assert classified.computed is None


def test_correspondence_check_eval_cap(z6, rings_z6_ctx, monkeypatch):
    # 4 central elements, 6^(2+1) cells and witnesses each
    phi = parse_formula("exists w . z1 * x = z1 * y and w = w",
                        rings_z6_ctx.signature, 1)
    monkeypatch.setattr(factorlab.dfc, "DEFAULT_EVAL_CAP", 864)
    assert correspondence_check(z6, phi, rings_z6_ctx).ok
    monkeypatch.setattr(factorlab.dfc, "DEFAULT_EVAL_CAP", 863)
    with pytest.raises(
        ResourceBoundError,
        match=r"^correspondence_check: estimated 864 evaluations exceed cap 863$",
    ):
        correspondence_check(z6, phi, rings_z6_ctx)


def test_correspondence_z6(z6, rings_z6_ctx):
    phi = parse_formula(RING_PHI, rings_z6_ctx.signature, 1)
    report = correspondence_check(z6, phi, rings_z6_ctx)
    assert report.ok
    assert report.n_central == 4
    assert report.idempotent_check["ok"]
    assert report.idempotent_check["complements_ok"]


def test_correspondence_simple_algebra(z5, rings_z6_ctx):
    phi = parse_formula(RING_PHI, rings_z6_ctx.signature, 1)
    ctx = ring_context(z5).populated(max_size=5, depth=1)
    report = correspondence_check(z5, phi, ctx)
    assert report.ok
    assert report.n_central == 2


def test_correspondence_ring_product(rings_ctx, z2):
    phi = parse_formula(RING_PHI, rings_ctx.signature, 1)
    z2xz2 = direct_product(z2, z2, name="Z2xZ2")
    report = correspondence_check(z2xz2, phi, rings_ctx)
    assert report.ok
    assert report.n_central == 4


def test_correspondence_lattice_no_idempotent_check(diamond, lattices_ctx):
    phi = parse_formula(LATTICE_PHI, lattices_ctx.signature, 1)
    report = correspondence_check(diamond, phi, lattices_ctx)
    assert report.ok
    assert report.idempotent_check is None


def test_complement_duality_ring_fixture(z6, rings_z6_ctx):
    ces = central_elements(z6, rings_z6_ctx)
    by_pair = {(ce.pair.theta.rep, ce.pair.theta_c.rep): ce.e[0] for ce in ces}
    for (t, tc), e in by_pair.items():
        mirror = by_pair[(tc, t)]
        assert z6.apply("+", (e, mirror)) == z6.apply("1")


def test_l2_context_machinery(z6):
    # duplicated zero/one terms exercise tuple plumbing beyond length one
    from factorlab import FiniteAlgebra, Signature, VarietyContext
    from factorlab.terms import App

    sig = Signature(z6.signature.symbols, l=2)
    z6_l2 = FiniteAlgebra(sig, z6.size, z6.tables, z6.name)
    ctx = VarietyContext(
        z6_l2, (App("1"), App("1")), (App("0"), App("0"))
    ).populated(max_size=6, depth=1)
    phi = parse_formula("z1 * x = z1 * y and z2 * x = z2 * y", sig, 2)
    assert verify_dfc(phi, ctx).ok
    ces = central_elements(z6_l2, ctx)
    assert sorted(ce.e for ce in ces) == [(0, 0), (1, 1), (3, 3), (4, 4)]
