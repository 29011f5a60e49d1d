"""Central elements and the exhaustive first-coordinate-definability harness.

Orientation convention, fixed once for the whole package: the central element
attached to an ordered factor pair (theta, theta*) is the unique tuple
congruent to the zero terms modulo theta and to the one terms modulo theta*,
and a verified formula evaluated with parameters (zero-in-A, one-in-B) in
A x B defines equality of first coordinates under the pair encoding
index = a*|B| + b.
"""
from __future__ import annotations

from dataclasses import dataclass

from .congruences import (
    Congruence,
    Decomposition,
    FactorPair,
    decomposition_from_pair,
    factor_pairs,
)
from .core import FiniteAlgebra, direct_product, pair_index
from .errors import InternalCheckError, ResourceBoundError, ValidationError
from .formulas import DnfEvaluator, ExistentialDnf, PositiveExistential
from .variety import VarietyContext

DEFAULT_PAIR_CAP = 64
DEFAULT_EVAL_CAP = 10_000_000


@dataclass(frozen=True)
class CentralElement:
    algebra: FiniteAlgebra
    e: tuple[int, ...]
    pair: FactorPair
    decomposition: Decomposition


def central_elements(
    algebra: FiniteAlgebra,
    ctx: VarietyContext,
    bound: int = 8,
    pairs: list[FactorPair] | None = None,
) -> list[CentralElement]:
    """One central tuple per ordered factor pair.

    The tuple exists and is unique because every theta-class meets every
    theta*-class in exactly one element.  A caller that already holds
    `factor_pairs(algebra, bound)` passes it as `pairs`.
    """
    if algebra.signature != ctx.signature:
        raise ValidationError("algebra signature differs from the context")
    zero = ctx.zero_values(algebra)
    one = ctx.one_values(algebra)
    if pairs is None:
        pairs = factor_pairs(algebra, bound)
    out = []
    for pair in pairs:
        e = []
        for i in range(ctx.l):
            hits = [
                c
                for c in algebra.elements()
                if pair.theta.related(c, zero[i]) and pair.theta_c.related(c, one[i])
            ]
            if len(hits) != 1:
                raise InternalCheckError(
                    f"central tuple not unique for pair in '{algebra.name}': "
                    f"{len(hits)} candidates at position {i}"
                )
            e.append(hits[0])
        out.append(
            CentralElement(
                algebra, tuple(e), pair, decomposition_from_pair(algebra, pair)
            )
        )
    return out


# -- exhaustive verification -----------------------------------------------------


@dataclass(frozen=True)
class DfcCounterexample:
    left: str
    right: str
    a: int
    b: int
    c: int
    d: int
    direction: str  # "=>": formula true but a != c; "<=": formula false but a == c

    def as_tuple(self) -> tuple:
        return (self.left, self.right, self.a, self.b, self.c, self.d, self.direction)


@dataclass(frozen=True)
class DfcReport:
    formula_text: str
    pairs_tested: tuple[tuple[str, str], ...]
    skipped: tuple[tuple[str, str], ...]
    counterexamples: tuple[DfcCounterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


def verify_dfc(
    phi: ExistentialDnf | PositiveExistential,
    ctx: VarietyContext,
    pair_cap: int = DEFAULT_PAIR_CAP,
    eval_cap: int = DEFAULT_EVAL_CAP,
) -> DfcReport:
    """For every ordered pool pair (A, B) and all a,c in A, b,d in B, compare
    the formula at ((a,b), (c,d), (zero-in-A, one-in-B)) against a == c.

    Mismatches are data, not errors.  Both orders of every pool pair are
    tested because the two coordinates play different roles.
    """
    algebras = ctx.pool_algebras
    if not algebras:
        raise ValidationError("pool is empty; populate the context first")
    tested = [
        (a, b)
        for a in algebras
        for b in algebras
        if a.size * b.size <= pair_cap
    ]
    skipped = tuple(
        (a.name, b.name)
        for a in algebras
        for b in algebras
        if a.size * b.size > pair_cap
    )
    nb = len(phi.bound_vars)
    estimate = sum(
        (a.size * b.size) ** 2 * max(1, (a.size * b.size) ** nb)
        for a, b in tested
    )
    if estimate > eval_cap:
        raise ResourceBoundError(
            f"estimated {estimate} literal evaluations exceed cap {eval_cap}"
        )
    counterexamples = []
    for a, b in tested:
        product = direct_product(a, b)
        ev = DnfEvaluator(product, phi)
        zs = tuple(
            pair_index(za, zb, b.size)
            for za, zb in zip(ctx.zero_values(a), ctx.one_values(b))
        )
        for ea in a.elements():
            for ec in a.elements():
                expected = ea == ec
                for eb in b.elements():
                    x = pair_index(ea, eb, b.size)
                    for ed in b.elements():
                        got = ev.satisfied(x, pair_index(ec, ed, b.size), zs)
                        if got != expected:
                            counterexamples.append(
                                DfcCounterexample(
                                    a.name, b.name, ea, eb, ec, ed,
                                    "=>" if got else "<=",
                                )
                            )
    counterexamples.sort(key=DfcCounterexample.as_tuple)
    return DfcReport(
        phi.text(),
        tuple((a.name, b.name) for a, b in tested),
        skipped,
        tuple(counterexamples),
    )


# -- formula / central-element correspondence -------------------------------------


@dataclass(frozen=True)
class CentralCongruenceReport:
    element: tuple[int, ...]
    is_congruence: bool
    matches_pair: bool
    computed: Congruence | None
    expected: Congruence
    note: str

    @property
    def ok(self) -> bool:
        return self.is_congruence and self.matches_pair


def congruence_of_central(
    algebra: FiniteAlgebra,
    phi: ExistentialDnf | PositiveExistential,
    ce: CentralElement,
) -> CentralCongruenceReport:
    """The relation {(a, c) : formula holds at (a, c, e)} must be the factor
    congruence on the zero side of the element's pair."""
    ev = DnfEvaluator(algebra, phi)
    n = algebra.size
    rel = [[ev.satisfied(a, c, ce.e) for c in range(n)] for a in range(n)]
    note = (
        "convention: the element is zero-side for pair.theta, and the relation "
        "defined by the formula is compared against pair.theta"
    )
    for a in range(n):
        if not rel[a][a]:
            return CentralCongruenceReport(
                ce.e, False, False, None, ce.pair.theta, "relation is not reflexive"
            )
        for c in range(n):
            if rel[a][c] != rel[c][a]:
                return CentralCongruenceReport(
                    ce.e, False, False, None, ce.pair.theta,
                    "relation is not symmetric",
                )
    # build class representatives, then let the congruence validator check
    # transitivity-compatibility in one go
    rep = []
    for a in range(n):
        rep.append(min(c for c in range(n) if rel[a][c]))
    try:
        theta = Congruence(algebra, tuple(rep))
    except ValidationError as exc:
        return CentralCongruenceReport(
            ce.e, False, False, None, ce.pair.theta, f"not a congruence: {exc}"
        )
    for a in range(n):
        for c in range(n):
            if rel[a][c] != theta.related(a, c):
                return CentralCongruenceReport(
                    ce.e, False, False, None, ce.pair.theta,
                    "relation is not transitive",
                )
    return CentralCongruenceReport(
        ce.e, True, theta.rep == ce.pair.theta.rep, theta, ce.pair.theta, note
    )


@dataclass(frozen=True)
class CorrespondenceReport:
    algebra_name: str
    n_central: int
    n_pairs: int
    element_reports: tuple[CentralCongruenceReport, ...]
    bijection_ok: bool
    idempotent_check: dict | None

    @property
    def ok(self) -> bool:
        return (
            self.bijection_ok
            and all(r.ok for r in self.element_reports)
            and (self.idempotent_check is None or self.idempotent_check["ok"])
        )


def _ring_like(algebra: FiniteAlgebra) -> bool:
    sig = algebra.signature
    return (
        sig.has("+") and sig.arity("+") == 2
        and sig.has("*") and sig.arity("*") == 2
        and sig.has("0") and sig.arity("0") == 0
        and sig.has("1") and sig.arity("1") == 0
    )


def correspondence_check(
    algebra: FiniteAlgebra,
    phi: ExistentialDnf | PositiveExistential,
    ctx: VarietyContext,
    bound: int = 8,
) -> CorrespondenceReport:
    """Central elements must map bijectively, via the relation the formula
    defines, onto the zero-side kernels of the ordered factor pairs.  Ring
    fixtures are additionally cross-checked against the idempotent oracle."""
    pairs = factor_pairs(algebra, bound)
    ces = central_elements(algebra, ctx, bound, pairs)
    reports = tuple(congruence_of_central(algebra, phi, ce) for ce in ces)
    # one element per pair by construction, so only distinctness can fail
    bijection_ok = len({ce.e for ce in ces}) == len(ces)
    idem = None
    if _ring_like(algebra) and ctx.l == 1:
        one = algebra.apply("1")
        idempotents = sorted(
            e for e in algebra.elements() if algebra.apply("*", (e, e)) == e
        )
        central_set = sorted(ce.e[0] for ce in ces)
        complements_ok = True
        by_pair = {(ce.pair.theta.rep, ce.pair.theta_c.rep): ce.e[0] for ce in ces}
        for ce in ces:
            mirror = by_pair.get((ce.pair.theta_c.rep, ce.pair.theta.rep))
            if mirror is None or algebra.apply("+", (ce.e[0], mirror)) != one:
                complements_ok = False
        idem = {
            "ok": idempotents == central_set and complements_ok,
            "idempotents": idempotents,
            "central": central_set,
            "complements_ok": complements_ok,
        }
    return CorrespondenceReport(
        algebra.name, len(ces), len(pairs), reports, bijection_ok, idem
    )
