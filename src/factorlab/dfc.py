"""Central elements and the exhaustive first-coordinate-definability harness.

Orientation convention, fixed once for the whole package: the central element
attached to an ordered factor pair (theta, theta*) is the unique tuple
congruent to the zero terms modulo theta and to the one terms modulo theta*,
and a verified formula evaluated with parameters (zero-in-A, one-in-B) in
A x B defines equality of first coordinates under the pair encoding
index = a*|B| + b.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

from .congruences import Congruence, FactorPair, factor_pairs
from .core import FiniteAlgebra
from .errors import InternalCheckError, ResourceBoundError, ValidationError
from .formulas import DnfEvaluator, ExistentialDnf, PositiveExistential
from .terms import _Record
from .variety import VarietyContext

DEFAULT_PAIR_CAP = 64
DEFAULT_EVAL_CAP = 10_000_000


class CentralElement(_Record):
    __slots__ = ("algebra", "e", "pair")

    def __init__(self, algebra: FiniteAlgebra, e: tuple[int, ...], pair: FactorPair):
        super().__init__(algebra, e, pair)


def central_elements(
    algebra: FiniteAlgebra, ctx: VarietyContext
) -> list[CentralElement]:
    """One central tuple per ordered factor pair.

    The tuple exists and is unique because every theta-class meets every
    theta*-class in exactly one element.  No size bound applies: the caller
    chose the algebra, and its lattice is built once (see `all_congruences`).
    """
    if algebra.signature != ctx.signature:
        raise ValidationError("algebra signature differs from the context")
    zero = ctx.zero_values(algebra)
    one = ctx.one_values(algebra)
    pairs = factor_pairs(algebra, algebra.size)
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
        out.append(CentralElement(algebra, tuple(e), pair))
    return out


# -- exhaustive verification -----------------------------------------------------


class DfcCounterexample(_Record):
    __slots__ = ("left", "right", "a", "b", "c", "d", "direction")

    # direction "=>": formula true but a != c; "<=": formula false but a == c
    def __init__(self, left: str, right: str, a: int, b: int, c: int, d: int,
                 direction: str):
        super().__init__(left, right, a, b, c, d, direction)

    def as_tuple(self) -> tuple:
        return self._values()


class DfcCounterexamples(Sequence):
    """The counterexamples of one `verify_dfc` run in `as_tuple` order, built
    only as far as they are read.

    `groups` maps (left name, right name) to (a, c, cells) entries, one per
    tested pair with those names and (a, c) whose mismatch cells (b, d) are
    non-empty.  The length is the number of cells.  Reading a row by index
    sorts the rows of its name group once, as plain tuples, and wraps that
    row in DfcCounterexample once.  Equality and hashing are those of the
    tuple of all rows.
    """

    __slots__ = ("_keys", "_entries", "_starts", "_rows", "_read")

    def __init__(self, groups: dict):
        self._keys = sorted(key for key, entries in groups.items() if entries)
        self._entries = [groups[key] for key in self._keys]
        starts = [0]  # the index of the first row of each group, then the length
        for entries in self._entries:
            starts.append(starts[-1] + sum(len(cells) for _, _, cells in entries))
        self._starts = starts
        self._rows: list = [None] * len(self._keys)
        self._read: dict[int, DfcCounterexample] = {}

    def _group(self, g: int) -> list:
        """Group g's rows (a, b, c, d, direction), sorted."""
        rows = self._rows[g]
        if rows is None:
            rows = self._rows[g] = sorted(
                (a, b, c, d, "<=" if a == c else "=>")
                for a, c, cells in self._entries[g]
                for b, d in cells
            )
        return rows

    def _at(self, k: int) -> DfcCounterexample:
        ce = self._read.get(k)
        if ce is None:
            g = bisect_right(self._starts, k) - 1
            row = self._group(g)[k - self._starts[g]]
            ce = self._read[k] = DfcCounterexample(*self._keys[g], *row)
        return ce

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index):
        # negative indices and slices as for a tuple
        try:
            picked = range(len(self))[index]
        except IndexError:
            raise IndexError("counterexample index out of range") from None
        if isinstance(index, slice):
            return tuple(map(self._at, picked))
        return self._at(picked)

    def __iter__(self):
        for g, key in enumerate(self._keys):
            for row in self._group(g):
                yield DfcCounterexample(*key, *row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<{len(self)} DFC counterexamples>"


class DfcReport(_Record):
    __slots__ = ("formula_text", "pairs_tested", "skipped", "counterexamples")

    def __init__(self, formula_text: str, pairs_tested: tuple[tuple[str, str], ...],
                 skipped: tuple[tuple[str, str], ...],
                 counterexamples: Sequence[DfcCounterexample]):
        super().__init__(formula_text, pairs_tested, skipped, counterexamples)

    @property
    def ok(self) -> bool:
        return len(self.counterexamples) == 0

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
    the formula at ((a,b), (c,d), (zero-in-A, one-in-B)) in A x B against
    a == c, without building A x B.

    Existential truth in a product decomposes into truth in the factors
    (Feferman-Vaught): a disjunct holds when some witness pair satisfies
    every positive literal in both coordinates and every negative literal in
    at least one.  So each member M gets one relation per side it is used
    on (zero values on the left, one values on the right): at every (a, c)
    in M^2, per disjunct, the set of the masks of negative literals that
    fail together at some witness satisfying its positive literals.  Equal
    results are interned to one signature per side.  A member that is not
    a recorded product is searched, one `DnfEvaluator.failure_masks` call
    per (a, c).  A product P = A x B of the pool is never searched: zero and
    one values are coordinatewise, so its set at ((a1, a2), (c1, c2)) is,
    per disjunct, {fa & fb} over A's set at (a1, c1) and B's at (a2, c2),
    composed once per pair of signatures and read from the factors'
    relations.  A table over left
    and right signatures, filled once per signature pair that occurs,
    records whether some disjunct has a left and a right mask with no
    failure in common, and each pair reads its (|A||B|)^2 cells from that
    table.

    Pairs with |A||B| > pair_cap are skipped and listed.  The pre-flight
    estimate, checked against eval_cap, is the sum over sides of |M|^(2+nb)
    for each searched member and |P|^2 signature reads for each product,
    plus the sum of (|A||B|)^2 over tested pairs.  A factor is never larger
    than its product, so it is used on every side its product is.
    Mismatches are data, not errors: the report counts them at once and
    builds them, in sorted order, only as they are read (see
    DfcCounterexamples).  Both orders of every pool pair are tested because
    the two coordinates play different roles.
    """
    pool = ctx.pool
    algebras = ctx.pool_algebras
    if not algebras:
        raise ValidationError("pool is empty; populate the context first")
    tested = [
        (i, j)
        for i, a in enumerate(algebras)
        for j, b in enumerate(algebras)
        if a.size * b.size <= pair_cap
    ]
    skipped = tuple(
        (a.name, b.name)
        for a in algebras
        for b in algebras
        if a.size * b.size > pair_cap
    )
    lefts = sorted({i for i, _ in tested})
    rights = sorted({j for _, j in tested})
    per_member = len(phi.bound_vars) + 2
    estimate = sum(
        algebras[k].size ** (per_member if pool[k].factors is None else 2)
        for k in lefts + rights
    ) + sum((algebras[i].size * algebras[j].size) ** 2 for i, j in tested)
    if estimate > eval_cap:
        raise ResourceBoundError(
            f"verify_dfc: estimated {estimate} evaluations exceed cap {eval_cap}"
        )

    def side(values, used):
        """The relations of the members used on one side, by pool index, and
        the side's signatures by id.  A relation lists the signature ids of
        every (a, c), at index a*|M| + c."""
        signatures: dict = {}  # signature -> id
        by_id: list = []
        composed: dict = {}  # (id in A, id in B) -> id in A x B

        def intern(signature):
            found = signatures.get(signature)
            if found is None:
                found = signatures[signature] = len(by_id)
                by_id.append(signature)
            return found

        def compose(sa, sb):
            found = composed.get((sa, sb))
            if found is None:
                found = composed[sa, sb] = intern(tuple(
                    frozenset([fa & fb for fa in masks_a for fb in masks_b])
                    for masks_a, masks_b in zip(by_id[sa], by_id[sb])
                ))
            return found

        # a factor comes before its product in the pool and is used on every
        # side the product is, so in index order it is built first
        relations: dict = {}
        for k in used:
            algebra, factors = pool[k].algebra, pool[k].factors
            if factors is None:
                ev = DnfEvaluator(algebra, phi)
                zs = values(algebra)
                n = algebra.size
                rel = [
                    intern(ev.failure_masks(a, c, zs))
                    for a in range(n)
                    for c in range(n)
                ]
            else:
                # (a1, a2) is a1*|B| + a2, so row (a1, a2) runs over c1, then c2
                rel_a, rel_b = relations[factors[0]], relations[factors[1]]
                na, nb = algebras[factors[0]].size, algebras[factors[1]].size
                rows_b = [rel_b[a2 * nb:(a2 + 1) * nb] for a2 in range(nb)]
                rel = []
                for a1 in range(na):
                    row_a = rel_a[a1 * na:(a1 + 1) * na]
                    for row_b in rows_b:
                        rel += [compose(sa, sb) for sa in row_a for sb in row_b]
            relations[k] = rel
        return relations, by_id

    left, left_by_id = side(ctx.zero_values, lefts)
    right, right_by_id = side(ctx.one_values, rights)
    table: dict = {}  # (left id, right id) -> does the formula hold

    def holds(sa, sb):
        found = table.get((sa, sb))
        if found is None:
            # some disjunct offers a left and a right mask with no failing
            # negative literal in common
            found = table[sa, sb] = any(
                fa & fb == 0
                for masks_a, masks_b in zip(left_by_id[sa], right_by_id[sb])
                for fa in masks_a
                for fb in masks_b
            )
        return found

    # the cells (b, d) of B whose truth value differs from a == c, keyed by
    # (signature of (a, c), a == c, B)
    mismatches: dict = {}
    groups: dict = {}  # (left name, right name) -> [(a, c, cells)]
    for i, j in tested:
        a, b = algebras[i], algebras[j]
        rel_a, rel_b = left[i], right[j]
        na, nb = a.size, b.size
        entries = groups.setdefault((a.name, b.name), [])
        for ea in range(na):
            for ec in range(na):
                expected = ea == ec
                sa = rel_a[ea * na + ec]
                cells = mismatches.get((sa, expected, j))
                if cells is None:
                    cells = mismatches[sa, expected, j] = [
                        divmod(bd, nb)
                        for bd, sb in enumerate(rel_b)
                        if holds(sa, sb) != expected
                    ]
                if cells:
                    entries.append((ea, ec, cells))
    return DfcReport(
        phi.text(),
        tuple((algebras[i].name, algebras[j].name) for i, j in tested),
        skipped,
        DfcCounterexamples(groups),
    )


# -- formula / central-element correspondence -------------------------------------


class CentralCongruenceReport(_Record):
    __slots__ = ("element", "expected", "ok")

    def __init__(self, element: tuple[int, ...], expected: Congruence, ok: bool):
        super().__init__(element, expected, ok)


def congruence_of_central(
    algebra: FiniteAlgebra,
    phi: ExistentialDnf | PositiveExistential,
    ce: CentralElement,
) -> CentralCongruenceReport:
    """The relation {(a, c) : formula holds at (a, c, e)} must be the factor
    congruence pair.theta on the zero side of the element's pair.  A relation
    equal to theta is a congruence, so it is compared with theta cell by cell
    and never checked for being one."""
    return _central_report(DnfEvaluator(algebra, phi), ce)


def _central_report(ev: DnfEvaluator, ce: CentralElement) -> CentralCongruenceReport:
    """`congruence_of_central` with the formula already compiled over the
    algebra, so that one compilation serves all of its central elements."""
    rep = ce.pair.theta.rep
    n = len(rep)
    ok = all(
        ev.satisfied(a, c, ce.e) == (rep[a] == rep[c])
        for a in range(n) for c in range(n)
    )
    return CentralCongruenceReport(ce.e, ce.pair.theta, ok)


class CorrespondenceReport(_Record):
    __slots__ = ("algebra_name", "element_reports", "bijection_ok",
                 "idempotent_check")

    def __init__(self, algebra_name: str,
                 element_reports: tuple[CentralCongruenceReport, ...],
                 bijection_ok: bool, idempotent_check: dict | None):
        super().__init__(algebra_name, element_reports, bijection_ok,
                         idempotent_check)

    @property
    def n_central(self) -> int:
        """The number of central elements, which is also the number of ordered
        factor pairs: there is one element per pair."""
        return len(self.element_reports)

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
) -> CorrespondenceReport:
    """Central elements must map bijectively, via the relation the formula
    defines, onto the zero-side kernels of the ordered factor pairs.  Ring
    fixtures are additionally cross-checked against the idempotent oracle.
    The pre-flight estimate, checked against DEFAULT_EVAL_CAP once the
    central elements are known, is their number times |M|^(2+nb)."""
    ces = central_elements(algebra, ctx)
    estimate = len(ces) * algebra.size ** (len(phi.bound_vars) + 2)
    if estimate > DEFAULT_EVAL_CAP:
        raise ResourceBoundError(
            f"correspondence_check: estimated {estimate} evaluations exceed "
            f"cap {DEFAULT_EVAL_CAP}"
        )
    ev = DnfEvaluator(algebra, phi)
    reports = tuple(_central_report(ev, ce) for ce in ces)
    # one element per ordered pair by construction, so len(ces) counts the
    # pairs and only distinctness can fail
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
    return CorrespondenceReport(algebra.name, reports, bijection_ok, idem)
