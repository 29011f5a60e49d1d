"""Convert an existential DNF formula that defines first-coordinate equality
into a positive one: locate the satisfied disjunct at the distinguished
assignment in the product of the rank-1 and rank-2 free algebras, extract term
witnesses for the bound variables, and keep only the positive literals.

F(x) x F(x,y) is never built: as in `verify_dfc`, a disjunct holds in a
product at a pair of witnesses exactly when both satisfy its positive
literals and no negative literal fails at both (Feferman-Vaught).
"""
from __future__ import annotations

import itertools

from .core import FiniteAlgebra, eval_term, pair_index
from .errors import InternalCheckError, NoWitnessError, ResourceBoundError
from .formulas import (
    DnfEvaluator,
    ExistentialDnf,
    PositiveExistential,
    strip_to_positive,
    z_roles,
)
from .freealg import DEFAULT_BUDGET, FreePairContext, free_pair_context
from .terms import Term, _Record, term_text
from .variety import VarietyContext

# Cap on the candidate tuples of both factors' witness searches and on the
# witnesses of a combined list (the value of verify_dfc's DEFAULT_EVAL_CAP).
SEARCH_CAP = 10_000_000
# A factor of a product with its x, y and z values.
Factor = tuple[FiniteAlgebra, tuple[int, int, tuple[int, ...]]]


class WitnessCertificate(_Record):
    """What was satisfied where: the chosen disjunct and the witness elements
    in the free-pair product."""

    __slots__ = ("disjunct", "witness_indices")

    def __init__(self, disjunct: int, witness_indices: tuple[int, ...]):
        super().__init__(disjunct, witness_indices)


class PositivizeResult(_Record):
    __slots__ = ("k", "phi_prime", "witnesses", "certificate", "warnings")

    def __init__(self, k: int, phi_prime: PositiveExistential,
                 witnesses: tuple[tuple[Term, Term], ...],
                 certificate: WitnessCertificate, warnings: tuple[str, ...] = ()):
        super().__init__(k, phi_prime, witnesses, certificate, warnings)


def _distinguished_diagnostics(fpc: FreePairContext) -> dict:
    ux, vx = fpc.split(fpc.x)
    uy, vy = fpc.split(fpc.y)
    return {
        "product_size": fpc.f1.size * fpc.f2.size,
        "x": {"index": fpc.x, "left": term_text(fpc.f1.witnesses[ux]),
              "right": term_text(fpc.f2.witnesses[vx])},
        "y": {"index": fpc.y, "left": term_text(fpc.f1.witnesses[uy]),
              "right": term_text(fpc.f2.witnesses[vy])},
        "z": list(fpc.z),
    }


def _rectangles(
    phi: ExistentialDnf, left: Factor, right: Factor, keep_all: bool
) -> list[tuple[int, list, list]]:
    """(disjunct, left witnesses, right witnesses) for every pair of failure
    masks, one per factor, with no bit in common.  Each factor is searched
    once; each list is in lexicographic order, and holds only its first
    witness unless keep_all.  Raises ResourceBoundError before searching when
    disjuncts x (|left|^nb + |right|^nb) exceeds SEARCH_CAP."""
    nb = len(phi.bound_vars)
    estimate = len(phi.disjuncts) * (left[0].size**nb + right[0].size**nb)
    if estimate > SEARCH_CAP:
        raise ResourceBoundError(
            f"positivize: estimated {estimate} witness candidates exceed cap "
            f"{SEARCH_CAP}"
        )
    sides = []
    for algebra, roles in (left, right):
        found = [{} for _ in phi.disjuncts]  # per disjunct, mask -> witnesses
        for k, mask, ws in DnfEvaluator(algebra, phi).masked_witnesses(*roles):
            listed = found[k].setdefault(mask, [])
            if keep_all or not listed:
                listed.append(ws)
        sides.append(found)
    return [
        (k, us, vs)
        for k, (left_masks, right_masks) in enumerate(zip(*sides))
        for fu, us in left_masks.items()
        for fv, vs in right_masks.items()
        if fu & fv == 0
    ]


def first_product_witness(
    phi: ExistentialDnf, left: Factor, right: Factor
) -> tuple[int, tuple[int, ...]] | None:
    """`tests/oracles.first_witness` of the evaluator over
    direct_product(A, B) at the paired role values, without building A x B.
    Witnesses are product indices u * |B| + v, so their lexicographic order
    is that of the interleaved (u1, v1, u2, v2, ...), and the least witness
    of a rectangle pairs its two sides' first witnesses."""
    n = right[0].size
    return min(
        ((k, tuple(pair_index(a, b, n) for a, b in zip(us[0], vs[0])))
         for k, us, vs in _rectangles(phi, left, right, False)),
        default=None,
    )


def product_witnesses(
    phi: ExistentialDnf, left: Factor, right: Factor
) -> list[tuple[int, tuple[int, ...]]]:
    """`tests/oracles.all_witnesses` of the evaluator over
    direct_product(A, B) at the paired role values, without building A x B:
    the sorted union of the rectangles.  Raises ResourceBoundError before
    building the list when it would exceed SEARCH_CAP."""
    rectangles = _rectangles(phi, left, right, True)
    size = sum(len(us) * len(vs) for _, us, vs in rectangles)
    if size > SEARCH_CAP:
        raise ResourceBoundError(
            f"positivize: {size} combined witnesses exceed cap {SEARCH_CAP}"
        )
    n = right[0].size
    return sorted(
        (k, tuple(pair_index(a, b, n) for a, b in zip(u, v)))
        for k, us, vs in rectangles for u in us for v in vs
    )


def _factors(fpc: FreePairContext) -> tuple[Factor, Factor]:
    """F(x) with its roles (x, x, zero) and F(x,y) with (x, y, one)."""
    left, right = zip(*map(fpc.split, (fpc.x, fpc.y, *fpc.z)))
    return ((fpc.f1.algebra, (*left[:2], left[2:])),
            (fpc.f2.algebra, (*right[:2], right[2:])))


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
    return product_witnesses(phi, *_factors(fpc))


def positivize(
    phi: ExistentialDnf,
    ctx: VarietyContext,
    budget: int = DEFAULT_BUDGET,
    fpc: FreePairContext | None = None,
    witnesses: list[tuple[int, tuple[int, ...]]] | None = None,
) -> PositivizeResult:
    """Bundle the chosen disjunct, its positive part and term witnesses.

    The disjunct and witness are the first satisfying every literal of that
    disjunct at (x,x), (x,y), (zero, one) in the free-pair product, found
    factor by factor (see `first_product_witness`).  The
    witness for each bound variable decodes into a pair of terms: one over
    {x} from the rank-1 coordinate and one over {x, y} from the rank-2
    coordinate.  Before returning, the substitution identities those terms
    must satisfy are re-verified over the whole pool; a failure there is a
    bug, not an input error.  A caller that already holds
    `free_pair_context(ctx, budget)` passes it as `fpc`, and one holding
    `enumerate_witnesses` passes it as `witnesses`, whose head is the witness.
    """
    if fpc is None:
        fpc = free_pair_context(ctx, budget)
    if witnesses is None:
        found = first_product_witness(phi, *_factors(fpc))
    else:
        found = witnesses[0] if witnesses else None
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
    result = PositivizeResult(k, phi_prime, tuple(witnesses),
                              WitnessCertificate(k, ws), tuple(warnings))
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
