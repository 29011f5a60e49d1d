import itertools

import pytest

from factorlab import (
    DnfEvaluator,
    ExistentialDnf,
    FiniteAlgebra,
    FormulaSyntaxError,
    Literal,
    PositiveExistential,
    ValidationError,
    direct_product,
    pair_index,
    parse_formula,
    parse_term_text,
    strip_to_positive,
)
from corpus import (
    chain_lattice,
    cyclic_ring,
    lattice_signature,
    ring_signature,
)
from factorlab.formulas import MAX_NESTING
from factorlab.terms import App, Var, term_text
from oracles import eval_in_product, first_witness

SIG = ring_signature()
LSIG = lattice_signature()


def test_parse_shape_mixed():
    phi = parse_formula("exists w . (z1 * x = z1 * y and w = w)", SIG, 1)
    assert phi.bound_vars == ("w",)
    assert len(phi.disjuncts) == 1
    assert phi.positive_indices(0) == (0, 1)


def test_parse_two_disjuncts():
    phi = parse_formula(
        "exists w . (z1 * x = z1 * y and w != z1) or (z1 = w and x = y)", SIG, 1
    )
    assert len(phi.disjuncts) == 2
    assert phi.positive_indices(0) == (0,)
    assert phi.positive_indices(1) == (0, 1)


def test_parse_quantifier_free_lattice():
    phi = parse_formula(r"(x \/ z1 = y \/ z1)", LSIG, 1)
    assert phi.bound_vars == ()
    assert len(phi.disjuncts) == 1
    assert all(lit.positive for lit in phi.disjuncts[0])


def test_parse_rejects_universal():
    with pytest.raises(FormulaSyntaxError, match="not existential"):
        parse_formula("forall w . x = y", SIG, 1)


def test_parse_unknown_symbol():
    with pytest.raises(FormulaSyntaxError, match="unknown symbol 'frob'"):
        parse_formula("frob(x) = y", SIG, 1)


def test_parse_arity_mismatch():
    with pytest.raises(FormulaSyntaxError, match="takes 0 arguments"):
        parse_formula("0(x) = y", SIG, 1)


def test_parse_free_variable_outside_roles():
    with pytest.raises(FormulaSyntaxError, match="free variable 'q'"):
        parse_formula("q = x", SIG, 1)
    with pytest.raises(FormulaSyntaxError, match="free variable 'z2'"):
        parse_formula("z2 = x", SIG, 1)


def test_parse_z2_allowed_when_l_is_two():
    phi = parse_formula("z2 = x", SIG, 2)
    assert phi.l == 2


def test_parse_bound_shadowing_role_rejected():
    with pytest.raises(FormulaSyntaxError, match="shadows a role"):
        parse_formula("exists x . x = y", SIG, 1)


def test_parse_bound_colliding_with_symbol_rejected():
    with pytest.raises(FormulaSyntaxError, match="collides with a symbol"):
        parse_formula("exists 0 . x = y", SIG, 1)


def test_parse_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("x = ", SIG, 1)
    assert err.value.position == 4


def test_parse_comment_and_whitespace():
    phi = parse_formula("# header\n  z1 * x = z1 * y  # trailing\n", SIG, 1)
    assert phi.text() == "z1 * x = z1 * y"


def test_parse_middle_dot_aliases_star():
    phi = parse_formula("z1 · x = z1 · y", SIG, 1)
    assert phi.text() == "z1 * x = z1 * y"


def test_parse_disequality_desugars():
    phi = parse_formula("x != y", SIG, 1)
    assert not phi.disjuncts[0][0].positive


def test_parse_nested_infix_requires_parens():
    with pytest.raises(FormulaSyntaxError, match="parentheses required"):
        parse_formula("x + y + z1 = x", SIG, 1)
    phi = parse_formula("(x + y) + z1 = x", SIG, 1)
    assert term_text(phi.disjuncts[0][0].lhs) == "(x + y) + z1"


def test_parse_prefix_application():
    from corpus import boolean_signature

    phi = parse_formula("not(x) = z1", boolean_signature(), 1)
    assert phi.disjuncts[0][0].lhs == App("not", (Var("x"),))


def test_parse_term_text_roundtrip():
    t = parse_term_text("(x + 1) * (y + 0)", SIG)
    assert parse_term_text(term_text(t), SIG) == t


@pytest.mark.parametrize(
    "text",
    [
        "z1 * x = z1 * y",
        "exists w . (z1 * x = z1 * y and w = w)",
        "exists w v . (z1 * x = z1 * y and w != v) or (x = y and v = w)",
        "x + (z1 * y) = y + (z1 * x)",
        "x != y or 0 = 1",
    ],
)
def test_print_parse_round_trip(text):
    phi = parse_formula(text, SIG, 1)
    assert parse_formula(phi.text(), SIG, 1) == phi


def test_print_parse_round_trip_lattice():
    phi = parse_formula(r"exists w . (x \/ z1 = y \/ z1 and w != z1)", LSIG, 1)
    assert parse_formula(phi.text(), LSIG, 1) == phi


# -- evaluation ---------------------------------------------------------------


def test_eval_dnf_equal_arguments(z6):
    phi = parse_formula("z1 * x = z1 * y", SIG, 1)
    assert DnfEvaluator(z6, phi).satisfied(2, 2, (3,))


def test_eval_dnf_table_cases(z6):
    ev = DnfEvaluator(z6, parse_formula("z1 * x = z1 * y", SIG, 1))
    # 3*1 = 3 and 3*2 = 0 differ; 3*2 = 0 and 3*4 = 0 agree
    assert not ev.satisfied(1, 2, (3,))
    assert ev.satisfied(2, 4, (3,))
    assert not ev.satisfied(1, 2, (1,))


def test_eval_dnf_witness_search(z6):
    ev = DnfEvaluator(z6, parse_formula("exists w . w + w = x and x = y", SIG, 1))
    # doubles in Z6 are {0, 2, 4}
    assert ev.satisfied(4, 4, (0,))
    assert not ev.satisfied(3, 3, (0,))


def test_first_witness_is_lexicographic(z6):
    phi = parse_formula("exists w u . w + u = x and x = y", SIG, 1)
    found = first_witness(DnfEvaluator(z6, phi), 3, 3, (0,))
    assert found == (0, (0, 3))


def test_witness_search_checks_each_literal_once_its_variables_are_bound(z6):
    # each literal mentions one bound variable, so a search that checks it as
    # soon as that variable is bound tries 6 values per level: 36 lookups.
    # Enumerating whole tuples first would examine 6^6 = 46,656 of them.
    lookups = []

    class Counted(tuple):
        def __getitem__(self, i):
            lookups.append(i)
            if len(lookups) > 1000:
                raise AssertionError("more table lookups than a pruned search needs")
            return tuple.__getitem__(self, i)

    counted = FiniteAlgebra(
        z6.signature, z6.size, tuple(Counted(t) for t in z6.tables), "Z6"
    )
    names = [f"w{i}" for i in range(1, 7)]
    phi = parse_formula(
        f"exists {' '.join(names)} . "
        + " and ".join(f"{w} + 0 = x" for w in names),
        SIG, 1,
    )
    assert first_witness(DnfEvaluator(counted, phi), 5, 0, (0,)) == (0, (5,) * 6)


def test_nesting_depth_is_bounded():
    deep = "(" * 3000 + "x" + ")" * 3000
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse_formula(deep + " = y", SIG, 1)
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse_term_text(deep, SIG)
    at_limit = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_term_text(at_limit, SIG) == Var("x")
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse_term_text("(" + at_limit + ")", SIG)


def test_eval_in_product_matches_explicit_product_exhaustively():
    for a, b in [
        (cyclic_ring(2), cyclic_ring(3)),
        (chain_lattice(2), chain_lattice(3)),
        (cyclic_ring(6), cyclic_ring(6)),  # the size-36 boundary case
    ]:
        sig = a.signature
        phi = (
            parse_formula("z1 * x = z1 * y", sig, 1)
            if sig.has("*")
            else parse_formula(r"x \/ z1 = y \/ z1", sig, 1)
        )
        p = direct_product(a, b)
        ev = DnfEvaluator(p, phi)
        for aa, cc in itertools.product(range(a.size), repeat=2):
            for bb, dd in itertools.product(range(b.size), repeat=2):
                for za in range(a.size):
                    for zb in range(b.size):
                        via_oracle = eval_in_product(
                            p, b.size, phi, (aa, bb), (cc, dd), ((za, zb),)
                        )
                        compiled = ev.satisfied(
                            pair_index(aa, bb, b.size),
                            pair_index(cc, dd, b.size),
                            (pair_index(za, zb, b.size),),
                        )
                        assert via_oracle == compiled


def test_eval_in_product_first_coordinate_orientation(z6):
    # with parameters (1, 0) the idempotent equation pins the first coordinate
    phi = parse_formula("z1 * x = z1 * y", SIG, 1)
    p = direct_product(z6, z6)
    assert eval_in_product(p, 6, phi, (1, 0), (1, 5), ((1, 0),))
    assert not eval_in_product(p, 6, phi, (1, 0), (2, 0), ((1, 0),))
    # with parameters (0, 1) the same equation pins the second coordinate
    assert eval_in_product(p, 6, phi, (1, 0), (2, 0), ((0, 1),))
    assert not eval_in_product(p, 6, phi, (1, 0), (1, 5), ((0, 1),))


def test_atomic_coordinatewise_in_products():
    a, b = cyclic_ring(2), cyclic_ring(3)
    phi = parse_formula("x + x = y", SIG, 1)
    ev_p, ev_a, ev_b = (DnfEvaluator(alg, phi) for alg in (direct_product(a, b), a, b))
    for xa, ya in itertools.product(range(a.size), repeat=2):
        for xb, yb in itertools.product(range(b.size), repeat=2):
            in_product = ev_p.satisfied(
                pair_index(xa, xb, b.size), pair_index(ya, yb, b.size), (0,)
            )
            in_coords = ev_a.satisfied(xa, ya, (0,)) and ev_b.satisfied(xb, yb, (0,))
            assert in_product == in_coords


# -- strip_to_positive ----------------------------------------------------------


def test_strip_keeps_positive_literals():
    phi = parse_formula("exists w . (z1 * x = z1 * y and w != z1)", SIG, 1)
    psi = strip_to_positive(phi, 0)
    assert psi.bound_vars == ("w",)
    assert len(psi.literals) == 1
    assert psi.literals[0].text() == "z1 * x = z1 * y"


def test_strip_all_positive_unchanged():
    phi = parse_formula("exists w . (z1 * x = z1 * y and w = w)", SIG, 1)
    psi = strip_to_positive(phi, 0)
    assert psi.literals == phi.disjuncts[0]


def test_strip_all_negative_flags_empty():
    phi = parse_formula("exists w . x != y", SIG, 1)
    psi = strip_to_positive(phi, 0)
    assert psi.is_trivially_true
    assert psi.literals == ()


def test_positive_existential_rejects_negatives():
    with pytest.raises(ValidationError, match="negative literal"):
        PositiveExistential((), (Literal(Var("x"), Var("y"), positive=False),), 1)


def test_existential_dnf_rejects_unknown_free_variable():
    with pytest.raises(ValidationError, match="free variables"):
        ExistentialDnf((), ((Literal(Var("q"), Var("x")),),), 1)
