import sys

import pytest

import factorlab.core
import factorlab.dfc
from factorlab.congruences import factor_pairs, partition_text
from factorlab.core import direct_product
from factorlab.dfc import (
    CorrespondenceStage,
    central_elements,
    correspondence_check,
    verify_dfc,
)
from factorlab.errors import ResourceBoundError, ValidationError
from factorlab.formulas import DnfEvaluator, parse_formula
from factorlab.variety import PoolEntry, VarietyContext
from factorlab.fileio import load_context, load_formula
from factorlab.terms import App
from corpus import chain_lattice, cyclic_ring, lattice_context, ring_context
from conftest import FIXTURES
from oracles import (
    central_elements_scan,
    congruence_of_central,
    congruence_of_central_classified,
    correspondence_check_searched,
    ring_idempotents,
    verify_dfc_cells,
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


def _lattices_l2() -> VarietyContext:
    """C3 over the lattice signature with l = 2, zero = (0, 0), one = (1, 1)."""
    return VarietyContext(chain_lattice(3), (App("0"),) * 2, (App("1"),) * 2)


def test_l2_context_over_the_plain_generator():
    # the tuple length is the context's, so C3 itself carries l = 2
    ctx = _lattices_l2()
    assert ctx.l == 2 and ctx.generator == chain_lattice(3)
    assert [ce.e for ce in central_elements(ctx.generator, ctx)] == [(2, 2), (0, 0)]


@pytest.mark.parametrize("zero, one", [((), ()), ((App("0"),) * 2, (App("1"),))])
def test_context_tuples_need_one_positive_length(zero, one):
    with pytest.raises(ValidationError, match=r"^zero/one term tuples must have one "
                                              r"positive length, got \d/\d$"):
        VarietyContext(chain_lattice(3), zero, one)


CENTRAL_POOLS = {
    **{name: load_context(FIXTURES / f"{name}.ctx")
       for name in ("rings", "rings_z6", "lattices", "boolean")},
    "lattices-l2": _lattices_l2(),
}


@pytest.mark.parametrize("name", sorted(CENTRAL_POOLS))
def test_central_elements_match_scan_on_fixture_pools(name):
    # every member of the depth-3 pool, tuple by tuple in factor-pair order
    ctx = CENTRAL_POOLS[name].populated(max_size=16, depth=3)
    assert len(ctx.pool) > 4
    for member in ctx.pool_algebras:
        assert central_elements(member, ctx) == central_elements_scan(member, ctx)


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


def test_verify_dfc_eval_cap(rings_z6_ctx, monkeypatch):
    phi = parse_formula(RING_PHI, rings_z6_ctx.signature, 1)
    monkeypatch.setattr(factorlab.dfc, "DEFAULT_EVAL_CAP", 10)
    with pytest.raises(
        ResourceBoundError, match=r"^verify_dfc: estimated \d+ evaluations exceed cap 10$"
    ):
        verify_dfc(phi, rings_z6_ctx)


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
    assert (len(ctx.pool), len(products)) == (33, 26)
    assert not any(a in products for a in searched)
    # every other member once per (a, c) and side, where searching every
    # member made 7,618 calls
    assert len(searched) == 2 * sum(a.size ** 2 for a in members) == 232
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


@pytest.mark.parametrize("name", sorted(FIXTURE_FORMULAS))
def test_composed_signature_cells_match_searched_cells(name):
    # a recorded product's signature at each cell, composed from its
    # factors', is the one a search of the product finds there
    ctx = load_context(str(FIXTURES / f"{name}.ctx")).populated(depth=3)
    searched = tuple(PoolEntry(e.algebra, e.recipe) for e in ctx.pool)
    used = range(len(ctx.pool))
    products = [k for k, e in enumerate(ctx.pool) if e.factors is not None]
    assert products
    for formula in FIXTURE_FORMULAS[name]:
        phi = load_formula(FIXTURES / "formulas" / f"{formula}.fm", ctx.signature, 1)
        for values, diagonal in ((ctx.zero_values, True), (ctx.one_values, False)):
            composed = factorlab.dfc._Side(phi, ctx.pool, values, used, diagonal)
            direct = factorlab.dfc._Side(phi, searched, values, used, diagonal)
            for k in products:
                assert ([composed.by_id[s] for s in composed.relation(k)]
                        == [direct.by_id[s] for s in direct.relation(k)])


@pytest.mark.parametrize("name", sorted(FIXTURE_FORMULAS))
def test_verify_dfc_matches_reading_every_cell(name):
    ctx = load_context(str(FIXTURES / f"{name}.ctx")).populated(depth=3)
    for formula in FIXTURE_FORMULAS[name]:
        phi = load_formula(FIXTURES / "formulas" / f"{formula}.fm", ctx.signature, 1)
        report, oracle = verify_dfc(phi, ctx), verify_dfc_cells(phi, ctx)
        assert len(report.counterexamples) == len(oracle.counterexamples)
        assert report.counterexamples[:1] == oracle.counterexamples[:1]
        assert report == oracle


def test_verify_dfc_counts_from_histograms_and_builds_rows_on_demand(monkeypatch):
    ctx = load_context(str(FIXTURES / "lattices.ctx")).populated(
        max_size=16, depth=3)
    phi = load_formula(FIXTURES / "formulas" / "not_dfc.fm", ctx.signature, 1)
    entry_pairs = []
    pair_count = factorlab.dfc._pair_count

    def counting_pairs(hist_a, hist_b, holds):
        entry_pairs.append(len(hist_a) * len(hist_b))
        return pair_count(hist_a, hist_b, holds)

    composed = []
    product = factorlab.dfc._Side.product

    def counting_products(self, cells_a, na, cells_b, nb):
        composed.append((na, nb))
        return product(self, cells_a, na, cells_b, nb)

    monkeypatch.setattr(factorlab.dfc, "_pair_count", counting_pairs)
    # on the sides alone: the pool's seed patterns share the method
    monkeypatch.setattr(factorlab.dfc._Side, "product", counting_products)
    report = verify_dfc(phi, ctx)
    ces = report.counterexamples
    # one read per tested pair, of 1,657 histogram entry pairs in all, where
    # the cell loop read 723,608 cells
    assert len(entry_pairs) == len(report.pairs_tested) == 447
    assert sum(entry_pairs) == 1657
    assert len(ces) == 105254
    # the first row's group is (C3, C3): no product relation is composed
    assert (ces[0].left, ces[0].right) == ("C3", "C3")
    assert composed == []
    # every row: each of the 26 recorded products once per side
    assert len(tuple(ces)) == 105254
    assert len(composed) == 2 * 26


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
    stage = CorrespondenceStage(phi, ctx, ctx.pool_algebras)
    reports = [correspondence_check(a, phi, ctx, stage) for a in ctx.pool_algebras]
    assert all(r.ok for r in reports)
    # one compilation per searched member, where each central element had
    # its own; the recorded products are composed and compile nothing
    searched = [a for a in ctx.pool_algebras
                if getattr(a, "_composed", None) is None]
    assert compiled == searched
    assert len(compiled) == 7 and len(reports) == 11
    assert sum(r.n_central for r in reports) == 29
    # the single-element entry point still compiles for itself
    ce = central_elements(ctx.generator, ctx)[0]
    assert congruence_of_central(ctx.generator, phi, ce).ok
    assert compiled[-1] is ctx.generator and len(compiled) == len(searched) + 1


@pytest.mark.parametrize("name", sorted(FIXTURE_FORMULAS))
def test_correspondence_stage_matches_searching_every_member(name):
    # every member of the depth-3 pool, through one stage as the pipeline
    # runs it, against a search of the member itself
    ctx = load_context(str(FIXTURES / f"{name}.ctx")).populated(depth=3)
    composed = [a for a in ctx.pool_algebras
                if getattr(a, "_composed", None) is not None]
    assert composed or name == "rings_z6"
    for formula in FIXTURE_FORMULAS[name]:
        phi = load_formula(FIXTURES / "formulas" / f"{formula}.fm", ctx.signature, 1)
        stage = CorrespondenceStage(phi, ctx, ctx.pool_algebras)
        for algebra in ctx.pool_algebras:
            report = correspondence_check(algebra, phi, ctx, stage)
            oracle = correspondence_check_searched(algebra, phi, ctx)
            # the central tuples in order, each with its theta
            assert ([(r.element, r.expected.rep) for r in report.element_reports]
                    == [(r.element, r.expected.rep) for r in oracle.element_reports])
            assert report == oracle


def test_recorded_product_alone_is_composed(monkeypatch):
    # without a stage, a recorded product makes its own over its factors
    ctx = load_context(str(FIXTURES / "rings.ctx")).populated(max_size=16)
    phi = parse_formula(RING_PHI, ctx.signature, 1)
    product = ctx.pool_algebras[-1]
    assert product._composed and product.size == 16
    oracle = correspondence_check_searched(product, phi, ctx)
    built = []
    product_tables = factorlab.core._product_tables

    def building(a, b):
        built.append((a, b))
        return product_tables(a, b)

    monkeypatch.setattr(factorlab.core, "_product_tables", building)
    fresh = ctx.populated(max_size=16).pool_algebras[-1]
    report = correspondence_check(fresh, phi, ctx)
    assert built == []
    assert report.ok and report.n_central == 16
    # the oracle's congruences are on a value-equal copy of the product
    assert ([(r.element, r.expected.rep, r.ok) for r in report.element_reports]
            == [(r.element, r.expected.rep, r.ok) for r in oracle.element_reports])
    assert report.idempotent_check == oracle.idempotent_check


def test_dfc_relation_is_first_projection_kernel(z6, rings_z6_ctx):
    # evaluated over A x B with the distinguished parameters, a passing
    # formula relates exactly the pairs with equal first coordinate
    from factorlab.core import pair_index
    from factorlab.formulas import DnfEvaluator

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


def test_correspondence_stage_estimates_before_any_member(monkeypatch):
    # the depth-4, max-size-64 lattice pool under the pipeline's positive
    # formula: sum of central elements x |M|^3 over the 7 searched members,
    # plus, for each composed central tuple, the pairs of at most 4 entries
    # (2 signatures x 2 flags) per side
    ctx = load_context(str(FIXTURES / "lattices.ctx")).populated(
        max_size=64, depth=4)
    phi = parse_formula(r"exists w . x \/ z1 = y \/ z1", ctx.signature, 1)
    compiled = []

    class Counting(factorlab.dfc.DnfEvaluator):
        def __init__(self, algebra, phi):
            compiled.append(algebra)
            super().__init__(algebra, phi)

    monkeypatch.setattr(factorlab.dfc, "DnfEvaluator", Counting)
    searched = [a for a in ctx.pool_algebras
                if getattr(a, "_composed", None) is None]
    assert len(searched) == 7
    assert sum(len(central_elements(a, ctx)) * a.size ** 3 for a in searched) == 1131
    monkeypatch.setattr(factorlab.dfc, "DEFAULT_EVAL_CAP", 43754)
    with pytest.raises(
        ResourceBoundError,
        match=r"^correspondence_check: estimated 43755 evaluations exceed "
              r"cap 43754$",
    ):
        CorrespondenceStage(phi, ctx, ctx.pool_algebras)
    assert compiled == []
    monkeypatch.setattr(factorlab.dfc, "DEFAULT_EVAL_CAP", 43755)
    stage = CorrespondenceStage(phi, ctx, ctx.pool_algebras)
    assert all(correspondence_check(a, phi, ctx, stage).ok
               for a in ctx.pool_algebras)
    assert compiled == searched


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
    ctx = VarietyContext(
        z6, (App("1"), App("1")), (App("0"), App("0"))
    ).populated(max_size=6, depth=1)
    phi = parse_formula("z1 * x = z1 * y and z2 * x = z2 * y", z6.signature, 2)
    assert verify_dfc(phi, ctx).ok
    ces = central_elements(z6, ctx)
    assert sorted(ce.e for ce in ces) == [(0, 0), (1, 1), (3, 3), (4, 4)]
