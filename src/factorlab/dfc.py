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
from collections import Counter
from collections.abc import Sequence

from .congruences import Congruence, FactorPair, factor_pairs
from .core import FiniteAlgebra, _PairCells
from .errors import InternalCheckError, ResourceBoundError, ValidationError
from .formulas import DnfEvaluator, ExistentialDnf, PositiveExistential
from .terms import _Record
from .variety import VarietyContext

DEFAULT_PAIR_CAP = 64
# Cap on evaluations, and on positivize's witnesses; read at call time.
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
    out = []
    for pair in factor_pairs(algebra):
        theta, theta_c = pair.theta.rep, pair.theta_c.rep
        # hence c -> (theta-class, theta*-class) is a bijection; e_i is the
        # element at (zero_i's theta-class, one_i's theta*-class)
        meet = {(theta[c], theta_c[c]): c for c in algebra.elements()}
        e = tuple(meet.get((theta[z], theta_c[o])) for z, o in zip(zero, one))
        if len(meet) != algebra.size or None in e:
            raise InternalCheckError(
                f"central tuple not unique for pair in '{algebra.name}'")
        out.append(CentralElement(algebra, e, pair))
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

    `counts` maps (left name, right name) to the number of rows of that name
    group, and `build(key)` gives the group's rows (a, b, c, d, direction) in
    any order.  The length is known at once.  Reading a row by index builds
    and sorts its group once, as plain tuples, and wraps that row in
    DfcCounterexample once.  Equality and hashing are those of the tuple of
    all rows.
    """

    __slots__ = ("_keys", "_build", "_starts", "_rows", "_read")

    def __init__(self, counts: dict, build):
        self._keys = sorted(key for key, count in counts.items() if count)
        self._build = build
        starts = [0]  # the index of the first row of each group, then the length
        for key in self._keys:
            starts.append(starts[-1] + counts[key])
        self._starts = starts
        self._rows: list = [None] * len(self._keys)
        self._read: dict[int, DfcCounterexample] = {}

    def _group(self, g: int) -> list:
        """Group g's rows (a, b, c, d, direction), sorted."""
        rows = self._rows[g]
        if rows is None:
            rows = sorted(self._build(self._keys[g]))
            if len(rows) != self._starts[g + 1] - self._starts[g]:
                raise InternalCheckError(
                    f"counterexamples of {self._keys[g]}: {len(rows)} rows "
                    f"built, {self._starts[g + 1] - self._starts[g]} counted"
                )
            self._rows[g] = rows
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


class _Side(_PairCells):
    """The signatures of the pool members used on one side of `verify_dfc`,
    with `values` giving a member's z tuple: its zero values on the left and
    its one values on the right.

    A member's signature at (a, c) is, per disjunct, the set of the masks of
    negative literals that fail together at some witness satisfying its
    positive literals.  Signatures are the interned cells (see
    `_PairCells`), and a member's relation is its cells.  Its histogram
    counts its cells per (id, flag), where the flag is a == c if `diagonal`
    and False otherwise, so that without it the counts are per signature.

    A member that is not a recorded product (an entry with `factors`: a
    product, or a quotient of one that has the tables of its factors'
    product) is searched, one `DnfEvaluator.failure_masks` call per (a, c).
    A recorded product P = A x B is never searched: zero and one values are
    coordinatewise, so its signature at ((a1, a2), (c1, c2)) is, per
    disjunct, {fa & fb} over A's at (a1, c1) and B's at (a2, c2): `combine`.
    Its histogram is composed from the factors': each pair of entries adds
    the product of their counts to (the paired id, both flags).  Its
    relation is composed from theirs only when `relation` asks for it.
    """

    __slots__ = ("histograms", "_pool", "_relations")

    def __init__(self, phi, pool, values, used, diagonal: bool):
        super().__init__()
        self.histograms: dict = {}  # pool index -> {(id, flag): cells}
        self._pool = pool
        self._relations: dict = {}  # pool index -> relation
        # a factor comes before its product in the pool and is used on every
        # side the product is, so in index order its histogram is built first
        for k in used:
            algebra, factors = pool[k].algebra, pool[k].factors
            if factors is None:
                ev = DnfEvaluator(algebra, phi)
                zs = values(algebra)
                n = algebra.size
                rel = self._relations[k] = [
                    self.intern(ev.failure_masks(a, c, zs))
                    for a in range(n)
                    for c in range(n)
                ]
                flags = [diagonal and a == c for a in range(n) for c in range(n)]
                self.histograms[k] = Counter(zip(rel, flags))
            else:
                hist = self.histograms[k] = Counter()
                hist_b = self.histograms[factors[1]].items()
                for (sa, ea), na in self.histograms[factors[0]].items():
                    for (sb, eb), nb in hist_b:
                        hist[self.pair(sa, sb), ea and eb] += na * nb

    @staticmethod
    def combine(x: tuple, y: tuple) -> tuple:
        return tuple(
            frozenset([fa & fb for fa in masks_a for fb in masks_b])
            for masks_a, masks_b in zip(x, y)
        )

    def relation(self, k: int) -> list:
        """Member k's relation; a product's is composed the first time."""
        rel = self._relations.get(k)
        if rel is None:
            i, j = self._pool[k].factors
            rel = self._relations[k] = self.product(
                self.relation(i), self._pool[i].algebra.size,
                self.relation(j), self._pool[j].algebra.size)
        return rel


class _Holds(dict):
    """(left id, right id) -> whether the formula holds there: some disjunct
    offers a left and a right mask with no failing negative literal in
    common.  Filled as it is read."""

    __slots__ = ("_left", "_right")

    def __init__(self, left: list, right: list):
        super().__init__()
        self._left, self._right = left, right

    def __missing__(self, key):
        sa, sb = key
        found = self[key] = any(
            fa & fb == 0
            for masks_a, masks_b in zip(self._left[sa], self._right[sb])
            for fa in masks_a
            for fb in masks_b
        )
        return found


def _pair_count(hist_a: dict, hist_b: dict, holds: _Holds) -> int:
    """The counterexamples of a pair from its left and right histograms: the
    sum of count_A(s, e) * count_B(t) where holds(s, t) differs from e."""
    return sum(
        na * nb
        for (sa, expected), na in hist_a.items()
        for (sb, _), nb in hist_b.items()
        if holds[sa, sb] != expected
    )


def _mismatch_rows(pairs: list, algebras, left: _Side, right: _Side,
                   holds: _Holds) -> list:
    """The rows (a, b, c, d, direction) of the tested pairs (i, j), read from
    their relations cell by cell."""
    rows = []
    for i, j in pairs:
        rel_a, rel_b = left.relation(i), right.relation(j)
        na, nb = algebras[i].size, algebras[j].size
        # the cells (b, d) whose truth value differs from a == c, keyed by
        # (signature of (a, c), a == c)
        mismatches: dict = {}
        for ac, sa in enumerate(rel_a):
            a, c = divmod(ac, na)
            expected = a == c
            cells = mismatches.get((sa, expected))
            if cells is None:
                cells = mismatches[sa, expected] = [
                    divmod(bd, nb)
                    for bd, sb in enumerate(rel_b)
                    if holds[sa, sb] != expected
                ]
            direction = "<=" if expected else "=>"
            rows += [(a, b, c, d, direction) for b, d in cells]
    return rows


def verify_dfc(
    phi: ExistentialDnf | PositiveExistential,
    ctx: VarietyContext,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> DfcReport:
    """For every ordered pool pair (A, B) and all a,c in A, b,d in B, compare
    the formula at ((a,b), (c,d), (zero-in-A, one-in-B)) in A x B against
    a == c, without building A x B.

    Existential truth in a product decomposes into truth in the factors
    (Feferman-Vaught): a disjunct holds when some witness pair satisfies
    every positive literal in both coordinates and every negative literal in
    at least one.  So the formula's truth at ((a,b), (c,d)) is a function of
    A's left signature at (a, c) and B's right signature at (b, d) (see
    _Side: a member is searched once per side it is used on, except a
    recorded product, which is composed from its factors).  A pair's
    counterexample count is therefore the sum of count_A(s, e) * count_B(t)
    over the entries of A's left histogram and B's right histogram where
    holds(s, t) differs from e = (a == c); the truth of each pair of
    signatures is worked out once, when first read.

    Pairs with |A||B| > pair_cap are skipped and listed.  The pre-flight
    estimate, checked against DEFAULT_EVAL_CAP, is the sum over sides of
    |M|^(2+nb) for each searched member and |P|^2 for each product, plus the
    sum of (|A||B|)^2 over tested pairs.  It is an upper bound of the work: a
    histogram has at most |M|^2 entries.  A factor is never larger than its
    product, so it is used on every side its product is.
    Mismatches are data, not errors: the report counts them at once.  A name
    group's rows are built from the pairs' relations cell by cell, composing
    a product's from its factors', and sorted only when one of its rows is
    read (see DfcCounterexamples).  Both orders of every pool pair are tested
    because the two coordinates play different roles.
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
    if estimate > DEFAULT_EVAL_CAP:
        raise ResourceBoundError(
            f"verify_dfc: estimated {estimate} evaluations exceed cap "
            f"{DEFAULT_EVAL_CAP}"
        )
    left = _Side(phi, pool, ctx.zero_values, lefts, diagonal=True)
    right = _Side(phi, pool, ctx.one_values, rights, diagonal=False)
    holds = _Holds(left.by_id, right.by_id)
    counts: dict = {}  # (left name, right name) -> counterexamples
    groups: dict = {}  # (left name, right name) -> [(i, j)] with some
    for i, j in tested:
        count = _pair_count(left.histograms[i], right.histograms[j], holds)
        if count:
            key = algebras[i].name, algebras[j].name
            counts[key] = counts.get(key, 0) + count
            groups.setdefault(key, []).append((i, j))
    return DfcReport(
        phi.text(),
        tuple((algebras[i].name, algebras[j].name) for i, j in tested),
        skipped,
        DfcCounterexamples(
            counts,
            lambda key: _mismatch_rows(groups[key], algebras, left, right, holds),
        ),
    )


# -- formula / central-element correspondence -------------------------------------


class CentralCongruenceReport(_Record):
    __slots__ = ("element", "expected", "ok")

    def __init__(self, element: tuple[int, ...], expected: Congruence, ok: bool):
        super().__init__(element, expected, ok)


def _central_report(ev: DnfEvaluator, ce: CentralElement) -> CentralCongruenceReport:
    """One central element's check in `correspondence_check`, with the
    formula compiled once over the algebra: the relation {(a, c) : formula
    holds at (a, c, e)} must be the factor congruence pair.theta on the zero
    side of the element's pair.  A relation equal to theta is a congruence,
    so it is compared with theta cell by cell and never checked for being
    one."""
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
