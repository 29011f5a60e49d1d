"""Convert an existential DNF formula that defines first-coordinate equality
into a positive one: locate the satisfied disjunct at the distinguished
assignment in the product of the rank-1 and rank-2 free algebras, extract term
witnesses for the bound variables, and keep only the positive literals.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import FiniteAlgebra, direct_product, eval_term, pair_index, surjective_homomorphisms
from .errors import InternalCheckError, NoWitnessError, ResourceBoundError
from .formulas import (
    DnfEvaluator,
    ExistentialDnf,
    PositiveExistential,
    strip_to_positive,
    z_roles,
)
from .freealg import DEFAULT_BUDGET, FreePairContext, free_pair_context
from .terms import Term, term_text
from .variety import VarietyContext


@dataclass(frozen=True)
class WitnessCertificate:
    """What was satisfied where: the chosen disjunct, the witness elements in
    the free-pair product, and the distinguished assignment that was used."""

    disjunct: int
    witness_indices: tuple[int, ...]
    x_index: int
    y_index: int
    z_indices: tuple[int, ...]
    literal_texts: tuple[str, ...]


@dataclass(frozen=True)
class PositivizeResult:
    k: int
    phi_prime: PositiveExistential
    witnesses: tuple[tuple[Term, Term], ...]
    certificate: WitnessCertificate
    warnings: tuple[str, ...] = ()


def _distinguished_diagnostics(fpc: FreePairContext) -> dict:
    ux, vx = fpc.split(fpc.x)
    uy, vy = fpc.split(fpc.y)
    return {
        "product_size": fpc.product.size,
        "x": {"index": fpc.x, "left": term_text(fpc.f1.witnesses[ux]),
              "right": term_text(fpc.f2.witnesses[vx])},
        "y": {"index": fpc.y, "left": term_text(fpc.f1.witnesses[uy]),
              "right": term_text(fpc.f2.witnesses[vy])},
        "z": list(fpc.z),
    }


def enumerate_witnesses(
    phi: ExistentialDnf,
    ctx: VarietyContext,
    budget: int = DEFAULT_BUDGET,
    fpc: FreePairContext | None = None,
) -> list[tuple[int, tuple[int, ...]]]:
    """All valid (disjunct, witness) pairs at the distinguished assignment.
    A caller that already holds `free_pair_context(ctx, budget)` passes it
    as `fpc`."""
    if fpc is None:
        fpc = free_pair_context(ctx, budget)
    return DnfEvaluator(fpc.product, phi).all_witnesses(fpc.x, fpc.y, fpc.z)


def positivize(
    phi: ExistentialDnf,
    ctx: VarietyContext,
    budget: int = DEFAULT_BUDGET,
    fpc: FreePairContext | None = None,
) -> PositivizeResult:
    """Bundle the chosen disjunct, its positive part and term witnesses.

    The disjunct and witness are the first satisfying every literal of that
    disjunct at (x,x), (x,y), (zero, one) in the free-pair product.  The
    witness for each bound variable decodes into a pair of terms: one over
    {x} from the rank-1 coordinate and one over {x, y} from the rank-2
    coordinate.  Before returning, the substitution identities those terms
    must satisfy are re-verified over the whole pool; a failure there is a
    bug, not an input error.  A caller that already holds
    `free_pair_context(ctx, budget)` passes it as `fpc`.
    """
    if fpc is None:
        fpc = free_pair_context(ctx, budget)
    found = DnfEvaluator(fpc.product, phi).first_witness(fpc.x, fpc.y, fpc.z)
    if found is None:
        raise NoWitnessError(
            "no disjunct is satisfiable at the distinguished assignment over "
            "the free-pair product; the formula cannot define first-coordinate "
            "equality over this variety",
            _distinguished_diagnostics(fpc),
        )
    k, ws = found
    witnesses = []
    for w in ws:
        u, v = fpc.split(w)
        witnesses.append((fpc.f1.witnesses[u], fpc.f2.witnesses[v]))
    phi_prime = strip_to_positive(phi, k)
    warnings = []
    if phi_prime.is_trivially_true:
        warnings.append(
            "chosen disjunct has no positive literals; the positive formula is "
            "constantly true and will fail first-coordinate verification"
        )
    certificate = WitnessCertificate(
        disjunct=k,
        witness_indices=ws,
        x_index=fpc.x,
        y_index=fpc.y,
        z_indices=fpc.z,
        literal_texts=tuple(lit.text() for lit in phi.disjuncts[k]),
    )
    result = PositivizeResult(k, phi_prime, tuple(witnesses), certificate,
                              tuple(warnings))
    _recheck_substitution(result, ctx)
    return result


def _recheck_substitution(result: PositivizeResult, ctx: VarietyContext) -> None:
    """The positive literals of the chosen disjunct must hold, in every pool
    algebra, at (x, x, zero, u(x)) and at (x, y, one, v(x, y))."""
    psi = result.phi_prime
    zs = z_roles(psi.l)
    for algebra in ctx.pool_algebras or (ctx.generator,):
        elements = algebra.elements()
        sides = (  # (side, z values, witness coordinate, (x, y) points)
            ("zero", ctx.zero_values(algebra), 0, [(a, a) for a in elements]),
            ("one", ctx.one_values(algebra), 1,
             itertools.product(elements, repeat=2)),
        )
        for side, z_values, coord, points in sides:
            for a, b in points:
                env = {"x": a, "y": b, **dict(zip(zs, z_values))}
                for pair, w in zip(result.witnesses, psi.bound_vars):
                    env[w] = eval_term(algebra, pair[coord], {"x": a, "y": b})
                for lit in psi.literals:
                    if eval_term(algebra, lit.lhs, env) != eval_term(
                        algebra, lit.rhs, env
                    ):
                        at = f"x={a}" if coord == 0 else f"x={a}, y={b}"
                        raise InternalCheckError(
                            f"{side}-side substitution identity failed in "
                            f"'{algebra.name}' at {at}: {lit.text()}"
                        )


# -- preservation harness -------------------------------------------------------


@dataclass(frozen=True)
class PreservationViolation:
    kind: str  # "homomorphic-image" | "direct-product"
    source: str
    target: str
    assignment: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class PreservationReport:
    """Positive existential formulas survive surjective images and products;
    any violation reported here indicates an evaluator bug or a negative
    literal smuggled past the type."""

    formula_text: str
    homs_checked: int
    products_checked: int
    assignments_checked: int
    skipped: tuple[str, ...]
    violations: tuple[PreservationViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_preservation(
    psi: PositiveExistential,
    ctx: VarietyContext,
    hom_candidate_cap: int = 200_000,
    pair_cap: int = 64,
) -> PreservationReport:
    algebras = ctx.pool_algebras or (ctx.generator,)
    l = psi.l
    violations: list[PreservationViolation] = []
    skipped: list[str] = []
    homs_checked = 0
    products_checked = 0
    assignments = 0

    def role_envs(algebra: FiniteAlgebra):
        n = algebra.size
        for x in range(n):
            for y in range(n):
                for zs in itertools.product(range(n), repeat=l):
                    yield x, y, zs

    for a in algebras:
        ev_a = DnfEvaluator(a, psi)
        for b in algebras:
            try:
                homs = surjective_homomorphisms(a, b, hom_candidate_cap)
            except ResourceBoundError:
                skipped.append(f"homs {a.name} -> {b.name}")
                continue
            ev_b = DnfEvaluator(b, psi)
            for h in homs:
                homs_checked += 1
                for x, y, zs in role_envs(a):
                    assignments += 1
                    if ev_a.satisfied(x, y, zs) and not ev_b.satisfied(
                        h[x], h[y], tuple(h[z] for z in zs)
                    ):
                        violations.append(
                            PreservationViolation(
                                "homomorphic-image",
                                a.name,
                                b.name,
                                (x, y, *zs),
                                f"holds at ({x},{y},{zs}) in {a.name} but not "
                                f"at the image in {b.name}",
                            )
                        )

    for a in algebras:
        ev_a = DnfEvaluator(a, psi)
        sat_a = [s for s in role_envs(a) if ev_a.satisfied(*s)]
        for b in algebras:
            if a.size * b.size > pair_cap:
                skipped.append(f"product {a.name} x {b.name}")
                continue
            products_checked += 1
            p = direct_product(a, b)
            ev_p = DnfEvaluator(p, psi)
            ev_b = DnfEvaluator(b, psi)
            sat_b = [s for s in role_envs(b) if ev_b.satisfied(*s)]
            for xa, ya, za in sat_a:
                for xb, yb, zb in sat_b:
                    assignments += 1
                    x = pair_index(xa, xb, b.size)
                    y = pair_index(ya, yb, b.size)
                    zs = tuple(
                        pair_index(z1, z2, b.size) for z1, z2 in zip(za, zb)
                    )
                    if not ev_p.satisfied(x, y, zs):
                        violations.append(
                            PreservationViolation(
                                "direct-product",
                                a.name,
                                b.name,
                                (x, y, *zs),
                                f"holds in both coordinates but not in the "
                                f"product at ({x},{y},{zs})",
                            )
                        )
    return PreservationReport(
        psi.text(),
        homs_checked,
        products_checked,
        assignments,
        tuple(skipped),
        tuple(violations),
    )
