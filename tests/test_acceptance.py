"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import json

from conftest import FIXTURES
from factorlab.congruences import (
    Congruence,
    all_congruences,
    factor_pairs,
    quotient,
)
from factorlab.dfc import central_elements, verify_dfc
from factorlab.formulas import parse_formula, strip_to_positive
from factorlab.freealg import free_algebra, free_pair_context
from factorlab.positivize import positivize
from factorlab.variety import PoolEntry, VarietyContext
from factorlab.cli import main
from corpus import (
    boolean_algebra2,
    chain_lattice,
    cyclic_ring,
    diamond_lattice,
)
from factorlab.terms import App
from oracles import (
    check_preservation,
    congruence_reps_bruteforce,
    decomposition_from_pair,
    ring_idempotents,
    set_partitions,
    term_function_vectors,
)

RING_PHI = "z1 * x = z1 * y"
LATTICE_PHI = r"x \/ z1 = y \/ z1"


def _ring_pool_z2_to_z6() -> VarietyContext:
    """The pool {Z2, Z3, Z4, Z6}, realized as quotients of Z12 so membership
    in one variety holds by construction."""
    z12 = cyclic_ring(12)
    entries = []
    for d in (2, 3, 4, 6):
        theta = Congruence(z12, tuple(i % d for i in range(12)))
        q, _ = quotient(z12, theta)
        assert q.tables == cyclic_ring(d).tables
        entries.append(PoolEntry(q, f"quotient(Z12, mod {d})"))
    return VarietyContext(z12, (App("1"),), (App("0"),), tuple(entries))


def _lattice_pool() -> VarietyContext:
    c3 = chain_lattice(3)
    theta = Congruence(c3, (0, 0, 2))
    c2, _ = quotient(c3, theta)
    assert c2.tables == chain_lattice(2).tables
    from factorlab.core import direct_product

    l2x2 = direct_product(c2, c2, name="L2x2")
    return VarietyContext(
        c3, (App("0"),), (App("1"),),
        (PoolEntry(c2, "quotient(C3, collapse lower edge)"),
         PoolEntry(c3, "generator"),
         PoolEntry(l2x2, "product(C2, C2)")),
    )


def test_criterion_1_congruence_oracle_equivalence(all_fixture_algebras):
    assert len(set_partitions(6)) == 203
    small = {
        name: a for name, a in all_fixture_algebras.items() if a.size <= 6
    }
    assert len(small) >= 11
    for name, algebra in sorted(small.items()):
        computed = {c.rep for c in all_congruences(algebra)}
        oracle = congruence_reps_bruteforce(algebra)
        assert computed == oracle, f"congruence mismatch for {name}"
    print(
        f"criterion 1: PASS - all_congruences matches the partition-filter "
        f"oracle on {len(small)} fixture algebras (exact)"
    )


def test_criterion_2_factor_pair_ground_truth(z6, z5, z2):
    from factorlab.core import direct_product

    z2xz2 = direct_product(z2, z2, name="Z2xZ2")
    expected = {"Z6": (z6, 4), "Z5": (z5, 2), "Z2xZ2": (z2xz2, 4)}
    for name, (algebra, count) in expected.items():
        pairs = factor_pairs(algebra)
        assert len(pairs) == count, f"{name}: {len(pairs)} pairs, wanted {count}"
        for pair in pairs:
            # decomposition_from_pair raises unless the induced map is a
            # bijective homomorphism
            dec = decomposition_from_pair(algebra, pair)
            assert dec.left.size * dec.right.size == algebra.size
    print(
        "criterion 2: PASS - ordered factor pairs: Z6=4, Z5=2, Z2xZ2=4, all "
        "decompositions bijective homomorphisms (exact counts)"
    )


def test_criterion_3_central_element_ground_truth(z6, rings_z6_ctx, lattices_ctx):
    central_z6 = sorted(ce.e[0] for ce in central_elements(z6, rings_z6_ctx))
    assert central_z6 == [0, 1, 3, 4]
    assert central_z6 == ring_idempotents(z6)
    c3 = chain_lattice(3)
    central_c3 = sorted(ce.e[0] for ce in central_elements(c3, lattices_ctx))
    assert central_c3 == [0, 2]  # bottom and top
    diamond = diamond_lattice()
    central_d = sorted(ce.e[0] for ce in central_elements(diamond, lattices_ctx))
    assert central_d == [0, 1, 2, 3]
    print(
        "criterion 3: PASS - central elements: Z6={0,1,3,4} (= idempotent "
        "oracle), 3-chain={bottom,top}, 2x2 lattice=all 4 (exact sets)"
    )


def test_criterion_4_free_algebra_sizes(z2):
    b2 = boolean_algebra2()
    for name, base in (("Z2 ring", z2), ("2-element Boolean", b2)):
        fa = free_algebra(base, 1)
        assert fa.size == 4, f"{name}: |F(1)| = {fa.size}"
        assert set(fa.vectors) == term_function_vectors(base, 1)
    print(
        "criterion 4: PASS - |F(1)| = 4 over the Z2 ring and over the "
        "2-element Boolean algebra, cross-checked by independent pointwise "
        "enumeration (exact)"
    )


def test_criterion_5_dfc_biconditional(rings_z6_ctx):
    ring_ctx = _ring_pool_z2_to_z6()
    assert sorted(a.size for a in ring_ctx.pool_algebras) == [2, 3, 4, 6]
    phi_ring = parse_formula(RING_PHI, ring_ctx.signature, 1)
    report_a = verify_dfc(phi_ring, ring_ctx)
    assert report_a.ok and len(report_a.pairs_tested) == 16

    lattice_ctx = _lattice_pool()
    phi_lat = parse_formula(LATTICE_PHI, lattice_ctx.signature, 1)
    report_b = verify_dfc(phi_lat, lattice_ctx)
    assert report_b.ok and len(report_b.pairs_tested) == 9

    phi_bad = parse_formula("x = y", ring_ctx.signature, 1)
    report_c = verify_dfc(phi_bad, ring_ctx)
    assert not report_c.ok
    big_b = [
        ce for ce in report_c.counterexamples
        if next(a.size for a in ring_ctx.pool_algebras if a.name == ce.right) >= 2
    ]
    assert big_b, "no counterexample recorded on a pair with |B| >= 2"
    print(
        "criterion 5: PASS - exhaustive biconditional holds on the ring pool "
        "{Z2,Z3,Z4,Z6} and the lattice pool {C2,C3,L2x2}; plain equality "
        f"fails with {len(report_c.counterexamples)} recorded counterexamples"
    )


def _run_pipeline_json(capsys, ctx_file, formula_file):
    code = main([
        "pipeline", str(FIXTURES / ctx_file),
        str(FIXTURES / "formulas" / formula_file), "--format", "machine",
    ])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_6_end_to_end_pipeline(capsys, rings_ctx, lattices_ctx):
    cases = [
        ("rings.ctx", "ring_mixed.fm", rings_ctx,
         "exists w . (z1 * x = z1 * y and w != z1) or (z1 = w and x = y)"),
        ("lattices.ctx", "lattice_mixed.fm", lattices_ctx,
         r"exists w . (x \/ z1 = y \/ z1 and w != z1) or (z1 = w and x = y)"),
    ]
    for ctx_file, formula_file, ctx, text in cases:
        phi = parse_formula(text, ctx.signature, 1)
        assert any(
            not lit.positive for conj in phi.disjuncts for lit in conj
        ), "fixture must contain a negative literal"
        assert len(phi.disjuncts) >= 2, "fixture must contain a decoy disjunct"

        code, data = _run_pipeline_json(capsys, ctx_file, formula_file)
        assert code == 0
        assert data["status"] == "pass"
        stage_names = [s["name"] for s in data["stages"]]
        assert stage_names == [
            "verify-input", "positivize", "verify-positive", "correspondence"
        ]
        assert all(
            s["status"] in ("pass", "ok") for s in data["stages"]
        )
        positive = data["stages"][1]["phi_prime"]
        reparsed = parse_formula(positive, ctx.signature, 1)
        assert all(lit.positive for conj in reparsed.disjuncts for lit in conj)

        # the emitted witness terms satisfy the substitution identities on
        # every pool algebra (positivize raises otherwise; run it directly)
        result = positivize(phi, ctx, free_pair_context(ctx))
        assert result.k == 0 and result.witnesses
    print(
        "criterion 6: PASS - both mixed fixtures run verify -> positivize -> "
        "re-verify -> correspondence clean, witness substitution identities "
        "hold on every pool algebra"
    )


def test_criterion_7_preservation_harness(rings_z6_ctx, lattices_ctx):
    fixture_positives = []
    for ctx, texts in (
        (rings_z6_ctx, [RING_PHI, "exists w . (z1 * x = z1 * y and w != z1)"]),
        (lattices_ctx, [LATTICE_PHI,
                        r"exists w . (x \/ z1 = y \/ z1 and w != z1)"]),
    ):
        for text in texts:
            psi = strip_to_positive(parse_formula(text, ctx.signature, 1), 0)
            fixture_positives.append((ctx, psi))
    checked = 0
    for ctx, psi in fixture_positives:
        report = check_preservation(psi, ctx)
        assert report.ok, f"violations for {psi.text()}: {report.violations}"
        checked += report.assignments_checked

    smuggled = strip_to_positive(
        parse_formula(RING_PHI, rings_z6_ctx.signature, 1), 0
    )
    bad = parse_formula("x != y", rings_z6_ctx.signature, 1).disjuncts[0][0]
    object.__setattr__(smuggled, "literals", (bad,))
    report = check_preservation(smuggled, rings_z6_ctx)
    assert not report.ok
    assert any(v.kind == "homomorphic-image" for v in report.violations)
    print(
        f"criterion 7: PASS - zero preservation violations across "
        f"{checked} assignments for {len(fixture_positives)} fixture "
        f"positives; smuggled negation detected"
    )


def test_criterion_8_pipeline_determinism():
    import os
    import subprocess
    import sys

    from conftest import REPO

    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    cmd = [
        sys.executable, "-m", "factorlab", "pipeline",
        str(FIXTURES / "rings.ctx"),
        str(FIXTURES / "formulas" / "ring_mixed.fm"),
        "--format", "machine",
    ]
    first = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    assert first == second
    assert first.strip(), "pipeline produced no output"
    print(
        "criterion 8: PASS - two consecutive machine-format pipeline runs "
        "are byte-identical"
    )
