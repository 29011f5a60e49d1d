import itertools

import pytest

import factorlab.dfc
import factorlab.positivize
from conftest import FIXTURES, REPO
from corpus import factor_indices
from factorlab.dfc import verify_dfc
from factorlab.errors import (
    InternalCheckError,
    NoWitnessError,
    ResourceBoundError,
)
from factorlab.formulas import parse_formula, strip_to_positive
from factorlab.freealg import free_pair_context
from factorlab.fileio import load_context, load_formula
from factorlab.positivize import (
    PositivizeResult,
    WitnessCertificate,
    _recheck_substitution,
    enumerate_witnesses,
    positivize,
)
from factorlab.terms import App, Var, term_text
from oracles import (
    all_witnesses,
    check_preservation,
    first_witness,
    free_pair_witnesses_materialized,
    recheck_substitution_every_member,
)
from test_dfc import _count_direct_products

RING_MIXED = "exists w . (z1 * x = z1 * y and w != z1) or (z1 = w and x = y)"
LATTICE_MIXED = (
    r"exists w . (x \/ z1 = y \/ z1 and w != z1) or (z1 = w and x = y)"
)


def _first_witness(phi, ctx):
    cert = positivize(phi, ctx, free_pair_context(ctx)).certificate
    return cert.disjunct, cert.witness_indices


def test_find_witness_ring(rings_ctx):
    phi = parse_formula(RING_MIXED, rings_ctx.signature, 1)
    k, ws = _first_witness(phi, rings_ctx)
    assert k == 0
    assert len(ws) == 1


def test_find_witness_quantifier_free_lattice(lattices_ctx):
    phi = parse_formula(r"(x \/ z1 = y \/ z1)", lattices_ctx.signature, 1)
    k, ws = _first_witness(phi, lattices_ctx)
    assert k == 0
    assert ws == ()


def test_no_witness_for_plain_equality(rings_ctx):
    phi = parse_formula("x = y", rings_ctx.signature, 1)
    with pytest.raises(NoWitnessError) as err:
        _first_witness(phi, rings_ctx)
    diag = err.value.diagnostics
    assert diag["x"]["right"] == "x" and diag["y"]["right"] == "y"


def test_decoy_disjunct_not_chosen(rings_ctx):
    # the decoy (z1 = w and x = y) fails at the distinguished assignment
    # because the rank-2 generators are distinct
    phi = parse_formula(RING_MIXED, rings_ctx.signature, 1)
    k, _ = _first_witness(phi, rings_ctx)
    assert k == 0


def test_positivize_ring(rings_ctx):
    phi = parse_formula(RING_MIXED, rings_ctx.signature, 1)
    result = positivize(phi, rings_ctx, free_pair_context(rings_ctx))
    assert result.k == 0
    assert result.phi_prime.text() == "exists w . z1 * x = z1 * y"
    assert all(lit.positive for lit in result.phi_prime.literals)
    assert len(result.witnesses) == 1
    u, v = result.witnesses[0]
    assert term_text(u) and term_text(v)
    assert result.warnings == ()


def test_positivize_already_positive(rings_ctx):
    phi = parse_formula(
        "exists w . (z1 * x = z1 * y and w = w)", rings_ctx.signature, 1
    )
    result = positivize(phi, rings_ctx, free_pair_context(rings_ctx))
    assert result.phi_prime.literals == phi.disjuncts[0]


def test_positivize_lattice_quantifier_free(lattices_ctx):
    phi = parse_formula(r"(x \/ z1 = y \/ z1)", lattices_ctx.signature, 1)
    result = positivize(phi, lattices_ctx, free_pair_context(lattices_ctx))
    assert result.k == 0
    assert result.witnesses == ()
    assert result.phi_prime.text() == r"x \/ z1 = y \/ z1"


def test_positivize_deterministic(rings_ctx):
    phi = parse_formula(RING_MIXED, rings_ctx.signature, 1)
    r1 = positivize(phi, rings_ctx, free_pair_context(rings_ctx))
    r2 = positivize(phi, rings_ctx, free_pair_context(rings_ctx))
    assert r1 == r2


def test_positivize_propagates_no_witness(rings_ctx):
    phi = parse_formula("x = y", rings_ctx.signature, 1)
    with pytest.raises(NoWitnessError):
        positivize(phi, rings_ctx, free_pair_context(rings_ctx))


def test_witness_terms_use_expected_variables(rings_ctx):
    phi = parse_formula(RING_MIXED, rings_ctx.signature, 1)
    result = positivize(phi, rings_ctx, free_pair_context(rings_ctx))
    from factorlab.terms import free_vars

    for u, v in result.witnesses:
        assert free_vars(u) <= {"x"}
        assert free_vars(v) <= {"x", "y"}


def test_enumerate_witnesses_includes_first(rings_ctx):
    phi = parse_formula(RING_MIXED, rings_ctx.signature, 1)
    k, ws = _first_witness(phi, rings_ctx)
    allw = enumerate_witnesses(phi, free_pair_context(rings_ctx))
    assert (k, ws) in allw
    assert allw == sorted(allw)
    # disjunct 0 admits every element except the parameter itself
    fpc_size = 64
    assert sum(1 for kk, _ in allw if kk == 0) == fpc_size - 1


# (context, formula) runs, each formula under 3 bound variables, so that the
# materialized product search of the oracle stays small
WITNESS_RUNS = [
    ("rings", FIXTURES / "formulas" / "ring_mixed.fm"),
    ("rings", FIXTURES / "formulas" / "not_dfc.fm"),
    ("rings", REPO / "perfbench" / "w4.fm"),
    ("rings", "exists u v . (z1 * u = v and u != x) or (u * v != 1 and 0 != 1)"),
    ("rings", "exists u v . (u + v = z1 and u != v and x + 1 != y)"),
    ("lattices", FIXTURES / "formulas" / "lattice_mixed.fm"),
    ("lattices", r"exists u v . (u \/ v = z1 and u != x) or (x /\ u = y and v != u)"),
    ("boolean", FIXTURES / "formulas" / "lattice_mixed.fm"),
    ("boolean", r"exists u . (x \/ u = y \/ u and u != z1 and u != x)"),
]


@pytest.mark.parametrize("ctx_name, formula", WITNESS_RUNS)
def test_witnesses_match_the_materialized_free_pair_product(ctx_name, formula):
    ctx = load_context(str(FIXTURES / f"{ctx_name}.ctx")).populated()
    if isinstance(formula, str):
        phi = parse_formula(formula, ctx.signature, ctx.l)
    else:
        phi = load_formula(str(formula), ctx.signature, ctx.l)
    fpc = free_pair_context(ctx)
    first, everything = free_pair_witnesses_materialized(phi, fpc)
    assert enumerate_witnesses(phi, fpc) == everything
    if first is None:
        with pytest.raises(NoWitnessError):
            positivize(phi, ctx, fpc)
    else:
        cert = positivize(phi, ctx, fpc).certificate
        assert (cert.disjunct, cert.witness_indices) == first


def test_positivize_builds_no_product(monkeypatch, rings_ctx):
    phi = parse_formula(RING_MIXED, rings_ctx.signature, 1)
    calls = _count_direct_products(monkeypatch)
    positivize(phi, rings_ctx, free_pair_context(rings_ctx))
    assert len(enumerate_witnesses(phi, free_pair_context(rings_ctx))) == 63
    assert calls == []


def test_witness_search_caps(monkeypatch, rings_ctx):
    # 2 disjuncts x (|F(x)| + |F(x,y)|) = 2 x (4 + 16) candidates, and 63
    # witnesses in the combined list
    phi = parse_formula(RING_MIXED, rings_ctx.signature, 1)
    monkeypatch.setattr(factorlab.dfc, "DEFAULT_EVAL_CAP", 39)
    with pytest.raises(
        ResourceBoundError,
        match="^positivize: estimated 40 witness candidates exceed cap 39$",
    ):
        positivize(phi, rings_ctx, free_pair_context(rings_ctx))
    monkeypatch.setattr(factorlab.dfc, "DEFAULT_EVAL_CAP", 62)
    assert positivize(phi, rings_ctx, free_pair_context(rings_ctx)).k == 0
    with pytest.raises(
        ResourceBoundError,
        match="^positivize: 63 combined witnesses exceed cap 62$",
    ):
        enumerate_witnesses(phi, free_pair_context(rings_ctx))


def test_verdicts_agree_for_input_and_output(rings_ctx, lattices_ctx):
    for ctx, text in [(rings_ctx, RING_MIXED), (lattices_ctx, LATTICE_MIXED)]:
        phi = parse_formula(text, ctx.signature, 1)
        result = positivize(phi, ctx, free_pair_context(ctx))
        assert verify_dfc(phi, ctx).ok
        assert verify_dfc(result.phi_prime, ctx).ok


def test_explicit_witness_values_satisfy_positive_literals(rings_ctx):
    # the forward computation: substituting the witness terms coordinatewise
    # satisfies every kept literal whenever the first coordinates agree
    from factorlab.core import direct_product, eval_term, pair_index
    from factorlab.formulas import DnfEvaluator

    phi = parse_formula(RING_MIXED, rings_ctx.signature, 1)
    result = positivize(phi, rings_ctx, free_pair_context(rings_ctx))
    algebras = rings_ctx.pool_algebras
    for a in algebras:
        for b in algebras:
            if a.size * b.size > 16:
                continue
            p = direct_product(a, b)
            ev = DnfEvaluator(p, result.phi_prime)
            zs = tuple(
                pair_index(za, zb, b.size)
                for za, zb in zip(
                    rings_ctx.zero_values(a), rings_ctx.one_values(b)
                )
            )
            for aa in range(a.size):
                for bb in range(b.size):
                    for dd in range(b.size):
                        x = pair_index(aa, bb, b.size)
                        y = pair_index(aa, dd, b.size)
                        found = first_witness(ev, x, y, zs)
                        assert found is not None
                        # explicit witnesses: u(a) on the left, v(b, d) right
                        for u, v in result.witnesses:
                            ua = eval_term(a, u, {"x": aa})
                            vbd = eval_term(b, v, {"x": bb, "y": dd})
                            env_w = pair_index(ua, vbd, b.size)
                            # the explicit pair is itself a witness
                            assert (0, (env_w,)) in all_witnesses(ev, x, y, zs)


def test_recheck_rejects_a_wrong_witness_term(rings_ctx):
    # w = x is satisfied by the witness (x, x); substituting the constant 1
    # on either side breaks it at x = 0 in the generator
    phi = parse_formula(
        "exists w . (z1 * x = z1 * y and w = x)", rings_ctx.signature, 1
    )
    result = positivize(phi, rings_ctx, free_pair_context(rings_ctx))
    assert [tuple(map(term_text, pair)) for pair in result.witnesses] == [("x", "x")]
    x = result.witnesses[0][0]
    name = rings_ctx.generator.name
    for pair, expected in [
        ((App("1"), x), f"zero-side substitution identity failed in '{name}' "
                        f"at x=0: w = x"),
        ((x, App("1")), f"one-side substitution identity failed in '{name}' "
                        f"at x=0, y=0: w = x"),
    ]:
        wrong = PositivizeResult(
            result.k, result.phi_prime, (pair,), result.certificate, result.warnings
        )
        with pytest.raises(InternalCheckError) as err:
            _recheck_substitution(wrong, rings_ctx)
        assert str(err.value) == expected


def _recheck_outcome(recheck, result, ctx):
    try:
        recheck(result, ctx)
    except InternalCheckError as exc:
        return str(exc)
    return None


def _small_terms(signature, names):
    """The variables and constants, then every operation applied to them."""
    atoms = [Var(v) for v in names]
    atoms += [App(sym) for sym, arity in signature.symbols if arity == 0]
    return atoms + [
        App(sym, args)
        for sym, arity in signature.symbols if arity > 0
        for args in itertools.product(atoms[:len(names)], repeat=arity)
    ]


# two positive formulas per family, each with one bound variable w, whose
# substitution identities hold for some witness pairs and fail for others
RECHECK_FORMULAS = {
    "ring": ("exists w . (z1 * x = z1 * y and w = x)",
             "exists w . (w * w = x * w and w + z1 = x + z1)"),
    "lattice": (r"exists w . (x \/ z1 = y \/ z1 and w = x)",
                r"exists w . (w /\ x = w and w \/ z1 = x \/ z1)"),
}


@pytest.mark.parametrize("ctx_name, family", [
    ("rings", "ring"), ("rings_z6", "ring"),
    ("lattices", "lattice"), ("boolean", "lattice"),
])
def test_recheck_matches_checking_every_member(ctx_name, family):
    # every pair of small witness terms, right and wrong, over the depth-2
    # pool: the same InternalCheckError text, or none, as checking the
    # products too
    ctx = load_context(str(FIXTURES / f"{ctx_name}.ctx")).populated()
    sig = ctx.signature
    outcomes = set()
    for text in RECHECK_FORMULAS[family]:
        psi = strip_to_positive(parse_formula(text, sig, 1), 0)
        for pair in itertools.product(_small_terms(sig, ["x"]),
                                      _small_terms(sig, ["x", "y"])):
            result = PositivizeResult(0, psi, (pair,), WitnessCertificate(0, ()))
            outcome = _recheck_outcome(_recheck_substitution, result, ctx)
            assert outcome == _recheck_outcome(
                recheck_substitution_every_member, result, ctx)
            outcomes.add(outcome)
    assert None in outcomes and len(outcomes) > 2


def test_recheck_evaluates_no_product_member(monkeypatch):
    # the depth-3/max-16 lattice pool: 33 members, 26 of them recorded
    # products (3 are quotients of products)
    ctx = load_context(str(FIXTURES / "lattices.ctx")).populated(16, 3)
    phi = load_formula(str(FIXTURES / "formulas" / "lattice_mixed.fm"),
                       ctx.signature, ctx.l)
    result = positivize(phi, ctx, free_pair_context(ctx))
    evaluated = set()
    eval_term = factorlab.positivize.eval_term

    def recording(algebra, term, env):
        evaluated.add(id(algebra))
        return eval_term(algebra, term, env)

    monkeypatch.setattr(factorlab.positivize, "eval_term", recording)
    _recheck_substitution(result, ctx)
    products = {id(e.algebra) for e, f in zip(ctx.pool, factor_indices(ctx.pool))
                if f is not None}
    assert len(ctx.pool) == 33 and len(products) == 26
    # the generator alone: the identities it satisfies hold in HSP of it,
    # where the recheck used to evaluate all 10 non-product members
    assert evaluated == {id(ctx.generator)}


# -- preservation harness --------------------------------------------------------


def test_preservation_ring_positive(rings_z6_ctx):
    psi = strip_to_positive(
        parse_formula("z1 * x = z1 * y", rings_z6_ctx.signature, 1), 0
    )
    report = check_preservation(psi, rings_z6_ctx)
    assert report.ok
    assert report.homs_checked > 0
    assert report.products_checked > 0


def test_preservation_empty_conjunction(rings_ctx):
    psi = strip_to_positive(parse_formula("x != y", rings_ctx.signature, 1), 0)
    assert psi.is_trivially_true
    assert check_preservation(psi, rings_ctx).ok


def test_preservation_detects_smuggled_negation(rings_z6_ctx):
    # bypass the positivity validator to plant a disequation; the quotient
    # Z6 -> Z3 collapses 1 and 4, so x != y at (1, 4) breaks preservation
    psi = strip_to_positive(
        parse_formula("z1 * x = z1 * y", rings_z6_ctx.signature, 1), 0
    )
    bad_lit = parse_formula("x != y", rings_z6_ctx.signature, 1).disjuncts[0][0]
    object.__setattr__(psi, "literals", (bad_lit,))
    report = check_preservation(psi, rings_z6_ctx)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "homomorphic-image" in kinds
