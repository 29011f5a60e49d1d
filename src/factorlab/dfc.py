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

from .congruences import Congruence, FactorPair, factor_pairs, lattice_factors
from .core import FiniteAlgebra, _capped_power, _PairCells
from .errors import InternalCheckError, ResourceBoundError, ValidationError
from .formulas import DnfEvaluator, ExistentialDnf, PositiveExistential
from .terms import _Record
from .variety import VarietyContext

DEFAULT_PAIR_CAP = 64
# Cap on evaluations, and on positivize's witnesses; read at call time.
DEFAULT_EVAL_CAP = 10_000_000


class CentralElement(_Record):
    __slots__ = ("algebra", "e", "pair")


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
    # direction "=>": formula true but a != c; "<=": formula false but a == c
    __slots__ = ("left", "right", "a", "b", "c", "d", "direction")

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

    @property
    def ok(self) -> bool:
        return len(self.counterexamples) == 0

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


class _Side(_PairCells):
    """The signatures of algebras under one formula: on one side of
    `verify_dfc`, those of the `algebras` used there, with `values` giving
    an algebra's z tuple (its zero values on the left, its one values on
    the right); in the correspondence stage, none at first, since
    `CorrespondenceStage` asks for each algebra's at each of its central
    tuples.

    A member's signature at (a, c) is, per disjunct, the set of the masks of
    negative literals that fail together at some witness satisfying its
    positive literals.  Signatures are the interned cells (see
    `_PairCells`), and a member's relation is its cells.  Its histogram
    counts its cells per (id, flag), where each cell's flag is the caller's:
    `verify_dfc` passes a == c if `diagonal` and False otherwise, so that
    without it the counts are per signature.

    An algebra that is not a recorded product (one from `direct_product`,
    which names its `_factors`) is searched, one `DnfEvaluator.failure_masks`
    call per (a, c): `search`.  A recorded product P = A x B is never
    searched: zero and one values are coordinatewise, so its signature at
    ((a1, a2), (c1, c2)) is, per disjunct, {fa & fb} over A's at (a1, c1)
    and B's at (a2, c2): `combine`.  When a cell's flag is its coordinates'
    flags joined by `and`, its histogram is composed from the factors': each
    pair of entries adds the product of their counts to (the paired id, both
    flags): `compose`.  Its relation is composed from theirs only when
    `relation` asks for it.
    """

    __slots__ = ("histograms", "_relations")

    def __init__(self, phi, values=None, algebras=(), diagonal=False):
        super().__init__()
        self.histograms: dict = {}  # id(algebra) -> {(id, flag): cells}
        self._relations: dict = {}  # id(algebra) -> relation
        for algebra in algebras:  # factors first (see `_with_factors`)
            key, factors = id(algebra), getattr(algebra, "_factors", None)
            if factors is None:
                n = algebra.size
                rel = self._relations[key] = self.search(
                    DnfEvaluator(algebra, phi), values(algebra))
                flags = [diagonal and a == c for a in range(n) for c in range(n)]
                self.histograms[key] = Counter(zip(rel, flags))
            else:
                self.histograms[key] = self.compose(
                    *[self.histograms[id(f)] for f in factors])

    def search(self, ev: DnfEvaluator, zs: tuple[int, ...]) -> list[int]:
        """The relation of the evaluator's algebra at the z tuple zs."""
        n = ev.algebra.size
        return [self.intern(ev.failure_masks(a, c, zs))
                for a in range(n) for c in range(n)]

    def compose(self, hist_a: dict, hist_b: dict) -> Counter:
        """The histogram of A x B from A's and B's."""
        hist = Counter()
        items_b = hist_b.items()
        for (sa, ea), na in hist_a.items():
            for (sb, eb), nb in items_b:
                hist[self.pair(sa, sb), ea and eb] += na * nb
        return hist

    @staticmethod
    def combine(x: tuple, y: tuple) -> tuple:
        return tuple(frozenset([fa & fb for fa in masks_a for fb in masks_b])
                     for masks_a, masks_b in zip(x, y))

    def relation(self, algebra: FiniteAlgebra) -> list:
        """The relation of an algebra of the side; a product's is composed
        the first time."""
        rel = self._relations.get(id(algebra))
        if rel is None:
            a, b = algebra._factors
            rel = self._relations[id(algebra)] = self.product(
                self.relation(a), a.size, self.relation(b), b.size)
        return rel


def _with_factors(algebras) -> list[FiniteAlgebra]:
    """`algebras` and, recursively, the factors of the recorded products
    among them, each object once and every factor before its products."""
    found: dict = {}  # id -> algebra, in order

    def add(algebra: FiniteAlgebra) -> None:
        if id(algebra) not in found:
            for factor in getattr(algebra, "_factors", None) or ():
                add(factor)
            found[id(algebra)] = algebra

    for algebra in algebras:
        add(algebra)
    return list(found.values())


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
        rel_a, rel_b = left.relation(algebras[i]), right.relation(algebras[j])
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
    |M|^(2+nb) for each searched algebra and |P|^2 for each product, plus the
    sum of (|A||B|)^2 over tested pairs.  It is an upper bound of the work: a
    histogram has at most |M|^2 entries.  A side holds the members it uses
    and, recursively, their products' factors, each once.
    Mismatches are data, not errors: the report counts them at once.  A name
    group's rows are built from the pairs' relations cell by cell, composing
    a product's from its factors', and sorted only when one of its rows is
    read (see DfcCounterexamples).  Both orders of every pool pair are tested
    because the two coordinates play different roles.
    """
    algebras = ctx.pool_algebras
    if not algebras:
        raise ValidationError("pool is empty; populate the context first")
    tested = [(i, j) for i, a in enumerate(algebras) for j, b in enumerate(algebras)
              if a.size * b.size <= pair_cap]
    skipped = tuple((a.name, b.name) for a in algebras for b in algebras
                    if a.size * b.size > pair_cap)
    lefts = _with_factors(algebras[i] for i in sorted({i for i, _ in tested}))
    rights = _with_factors(algebras[j] for j in sorted({j for _, j in tested}))
    per_member = len(phi.bound_vars) + 2
    estimate = sum(a.size ** (2 if getattr(a, "_factors", None) else per_member)
                   for a in lefts + rights)
    estimate += sum((algebras[i].size * algebras[j].size) ** 2 for i, j in tested)
    if estimate > DEFAULT_EVAL_CAP:
        raise ResourceBoundError(
            f"verify_dfc: estimated {estimate} evaluations exceed cap "
            f"{DEFAULT_EVAL_CAP}"
        )
    left = _Side(phi, ctx.zero_values, lefts, diagonal=True)
    right = _Side(phi, ctx.one_values, rights, diagonal=False)
    holds = _Holds(left.by_id, right.by_id)
    counts: dict = {}  # (left name, right name) -> counterexamples
    groups: dict = {}  # (left name, right name) -> [(i, j)] with some
    for i, j in tested:
        count = _pair_count(left.histograms[id(algebras[i])],
                            right.histograms[id(algebras[j])], holds)
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


def _central_report(ev: DnfEvaluator, ce: CentralElement) -> CentralCongruenceReport:
    """One central element's check in a searched `correspondence_check`,
    with the formula compiled once over the algebra: the relation
    {(a, c) : formula holds at (a, c, e)} must be the factor congruence
    pair.theta on the zero side of the element's pair.  A relation equal to
    theta is a congruence, so it is compared with theta cell by cell and
    never checked for being one."""
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


def _ring_facts(algebra: FiniteAlgebra, ces: list[CentralElement]) -> tuple:
    """The sorted idempotents of a ring read off its tables, and whether
    each central element and the one of its mirrored pair add up to 1."""
    one = algebra.apply("1")
    idempotents = sorted(
        e for e in algebra.elements() if algebra.apply("*", (e, e)) == e
    )
    by_pair = {(ce.pair.theta.rep, ce.pair.theta_c.rep): ce.e[0] for ce in ces}
    complements_ok = True
    for ce in ces:
        mirror = by_pair.get((ce.pair.theta_c.rep, ce.pair.theta.rep))
        if mirror is None or algebra.apply("+", (ce.e[0], mirror)) != one:
            complements_ok = False
    return idempotents, complements_ok


class CorrespondenceStage:
    """The correspondence stage over some `members`, for one formula and one
    context: one pre-flight estimate for all of them, and what is kept of
    every member that a recorded product is composed from.

    The report of a product whose factors share a median term
    (`lattice_factors`) is composed from theirs (see `correspondence_check`),
    so each such product and each factor of one, recursively, is kept: its
    central elements, one histogram of its cells per central element (see
    `_Side`), and, for the ring cross-check, its idempotents and whether its
    complements add up to 1.  A kept algebra that is not composed is
    searched once, one `failure_masks` call per cell and central element.
    Any other member is searched cell by cell when its report is asked for,
    stopping at each cell's first satisfying witness.

    The estimate, checked against DEFAULT_EVAL_CAP before any member is
    read, is len(central elements) x |M|^(2+nb) per searched algebra, plus,
    per composed central tuple of P = A x B, the pairs of histogram entries
    it composes, at most min(|A|^2, h) x min(|B|^2, h): an entry is a
    distinct (signature, flag), and h is twice the number of signatures,
    2^(2^k) per disjunct with k negative literals.  Every algebra the
    estimate counts shares the context's signature.
    """

    __slots__ = ("_phi", "_side", "_ring", "_algebras", "_elements", "_kept")

    def __init__(self, phi: ExistentialDnf | PositiveExistential,
                 ctx: VarietyContext, members: Sequence[FiniteAlgebra]):
        self._phi = phi
        self._side = _Side(phi)
        self._ring = _ring_like(ctx.generator) and ctx.l == 1
        self._algebras: dict = {}  # id -> algebra, for every one counted
        self._elements: dict = {}  # id -> central elements, if not composed
        # id -> (central elements, histograms, ring facts), or None until
        # built, for every kept one
        self._kept: dict = {}
        cap = DEFAULT_EVAL_CAP
        per_member = len(phi.bound_vars) + 2
        # counted only up to the cap: min(|A|^2, entries) is then either
        # |A|^2 or past the cap, as it is with the true count
        entries = 2
        for conj in phi.disjuncts:
            negatives = sum(not lit.positive for lit in conj)
            entries *= _capped_power(2, 2 ** negatives, cap)
            if entries > cap:
                break
        counts: dict = {}  # id -> number of central elements
        estimate = 0

        def count(algebra: FiniteAlgebra) -> int:
            nonlocal estimate
            key = id(algebra)
            if key not in counts:
                self._algebras[key] = algebra
                factors = lattice_factors(algebra)
                if factors is None:
                    ces = self._elements[key] = central_elements(algebra, ctx)
                    counts[key] = len(ces)
                    estimate += len(ces) * algebra.size ** per_member
                else:
                    a, b = factors
                    for kept in (algebra, a, b):
                        self._kept[id(kept)] = None
                    counts[key] = count(a) * count(b)
                    estimate += counts[key] * (min(a.size ** 2, entries)
                                               * min(b.size ** 2, entries))
            return counts[key]

        for algebra in members:
            count(algebra)
        if estimate > cap:
            raise ResourceBoundError(
                f"correspondence_check: estimated {estimate} evaluations exceed "
                f"cap {cap}"
            )

    def __contains__(self, algebra: FiniteAlgebra) -> bool:
        return id(algebra) in self._algebras

    def report(self, algebra: FiniteAlgebra) -> CorrespondenceReport:
        """`correspondence_check`'s report on a member of the stage."""
        key = id(algebra)
        if key in self._kept:
            ces, hists, ring = self._built(algebra)
            by_id = self._side.by_id
            # the formula holds at a cell when some disjunct has mask 0 there
            reports = tuple(
                CentralCongruenceReport(ce.e, ce.pair.theta, all(
                    any(0 in masks for masks in by_id[s]) == flag
                    for s, flag in hist))
                for ce, hist in zip(ces, hists)
            )
        else:
            ces = self._elements[key]
            ev = DnfEvaluator(algebra, self._phi)
            reports = tuple(_central_report(ev, ce) for ce in ces)
            ring = _ring_facts(algebra, ces) if self._ring else None
        # one element per ordered pair by construction, so len(ces) counts the
        # pairs and only distinctness can fail
        bijection_ok = len({ce.e for ce in ces}) == len(ces)
        idem = None
        if ring is not None:
            idempotents, complements_ok = ring
            central_set = sorted(ce.e[0] for ce in ces)
            idem = {
                "ok": idempotents == central_set and complements_ok,
                "idempotents": idempotents,
                "central": central_set,
                "complements_ok": complements_ok,
            }
        return CorrespondenceReport(algebra.name, reports, bijection_ok, idem)

    def _built(self, algebra: FiniteAlgebra) -> tuple:
        """(central elements, histograms, ring facts or None) of a kept
        algebra: searched, or composed from its factors', the first time."""
        key = id(algebra)
        found = self._kept[key]
        if found is None:
            factors = lattice_factors(algebra)
            if factors is None:
                ces = self._elements[key]
                ev = DnfEvaluator(algebra, self._phi)
                n = algebra.size
                hists = []
                for ce in ces:
                    rep = ce.pair.theta.rep
                    flags = [rep[a] == rep[c] for a in range(n) for c in range(n)]
                    hists.append(Counter(zip(self._side.search(ev, ce.e), flags)))
                found = ces, hists, _ring_facts(algebra, ces) if self._ring else None
            else:
                found = self._from_factors(algebra, *factors)
            self._kept[key] = found
        return found

    def _from_factors(self, algebra: FiniteAlgebra, a: FiniteAlgebra,
                      b: FiniteAlgebra) -> tuple:
        """(central elements, histograms, ring facts or None) of the
        recorded product `algebra` = A x B, from A's and B's."""
        ces_a, hists_a, ring_a = self._built(a)
        ces_b, hists_b, ring_b = self._built(b)
        m = b.size
        products: dict = {}  # (rep in A, rep in B) -> (key, congruence)

        def product(x: Congruence, y: Congruence) -> tuple:
            found = products.get((x.rep, y.rep))
            if found is None:
                rep = tuple([r * m + q for r in x.rep for q in y.rep])
                found = products[x.rep, y.rep] = (
                    (x.n_classes * y.n_classes, rep), Congruence._trusted(algebra, rep))
            return found

        rows = []
        for ce_a, hist_a in zip(ces_a, hists_a):
            for ce_b, hist_b in zip(ces_b, hists_b):
                order, theta = product(ce_a.pair.theta, ce_b.pair.theta)
                order_c, theta_c = product(ce_a.pair.theta_c, ce_b.pair.theta_c)
                e = tuple([x * m + y for x, y in zip(ce_a.e, ce_b.e)])
                rows.append((order, order_c,
                             CentralElement(algebra, e, FactorPair(theta, theta_c)),
                             self._side.compose(hist_a, hist_b)))
        # as `factor_pairs` orders the pairs: by their congruences' places
        # in the lattice, sorted by (number of classes, rep)
        rows.sort(key=lambda row: (row[0], row[1]))
        ring = None
        if ring_a is not None:
            ring = ([x * m + y for x in ring_a[0] for y in ring_b[0]],
                    ring_a[1] and ring_b[1])
        return [row[2] for row in rows], [row[3] for row in rows], ring


def correspondence_check(
    algebra: FiniteAlgebra,
    phi: ExistentialDnf | PositiveExistential,
    ctx: VarietyContext,
    stage: CorrespondenceStage | None = None,
) -> CorrespondenceReport:
    """Central elements must map bijectively, via the relation the formula
    defines, onto the zero-side kernels of the ordered factor pairs.  Ring
    fixtures are additionally cross-checked against the idempotent oracle.
    `stage` is the `CorrespondenceStage` of the caller's members, for `phi`
    and `ctx`; without it, or when it does not count `algebra`, the check
    makes its own, so its pre-flight bound (see there) covers `algebra`
    alone and, for a composed product, its factors.

    A product P = A x B whose factors share a median term (`lattice_factors`)
    is never searched.  Its report is composed from its factors':
    - Factor pairs.  Every congruence of A x B is
      alpha x beta (Fraser and Horn, "Congruence relations in direct
      products", Proc. AMS 26, 1970).  alpha x beta meets alpha* x beta* in
      the identity exactly when alpha meets alpha* and beta meets beta* in
      theirs, and then |A/alpha||A/alpha*| >= |A| and likewise in B, so the
      class counts multiply to |A||B| exactly when each factor's do to its
      size.  So the factor pairs of P are the (alpha x beta, alpha* x
      beta*) for factor pairs (alpha, alpha*) of A and (beta, beta*) of B,
      sorted as `factor_pairs` sorts them.
    - Central tuples.  Zero and one values are coordinatewise, so the
      central tuple of that pair is, in each coordinate, A's e1 and B's e2
      paired: e1*|B| + e2.
    - The relation.  Existential truth in A x B is a function of the
      factors' signatures (Feferman and Vaught, Fund. Math. 47, 1959; see
      `_Side`), and alpha x beta relates ((a1, a2), (c1, c2)) exactly when
      alpha relates (a1, c1) and beta relates (a2, c2).  So P's histogram
      at that tuple, its cells counted per (signature, flag "the pair's
      theta relates a and c"), is composed from A's at e1 and B's at e2,
      with the flags joined by `and`; P passes there exactly when every
      entry's truth, some disjunct has mask 0, equals its flag.
    - The ring cross-check.  (x, y)^2 = (x^2, y^2), so the idempotents of
      A x B are the pairs of idempotents; the mirrored pair of a product
      pair is the product of the mirrored pairs, so the complements of P
      add up to 1 exactly when those of A and of B do.
    Any other algebra is searched: each central element's relation is
    compared cell by cell with its theta, through one compiled evaluator
    per algebra.
    """
    if stage is None or algebra not in stage:
        stage = CorrespondenceStage(phi, ctx, [algebra])
    return stage.report(algebra)
