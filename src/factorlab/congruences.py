"""Congruences as compatible partitions: principal generation, the full
lattice at desk scale, factor pairs and quotients.

A congruence is stored as its canonical representative array rep[0..n-1] with
rep[i] = least element of i's class, so equality is tuple equality and sorted
output is deterministic.

Everything here works through the basic translations a -> f(c1,..,a,..,ck)
(R. Freese, "Computing congruences efficiently", Algebra Universalis 59,
2008): an equivalence is a congruence iff every basic translation maps each
class into one class.

The principals are found in one pass over the pair graph, whose nodes are
the pairs a<b, with an edge {a,b} -> {t(a),t(b)} per basic translation t
with t(a) != t(b).  Since Cg(a,b) = Eq{(a,b)} v V_t Cg(t(a),t(b)), all pairs
of a strongly connected component share one principal: the equivalence join
of the component's own pairs with its successors' principals, which needs no
closure under the translations, as every one maps each of those pairs into
the join.  An iterative Tarjan pass (R. Tarjan, "Depth-first search and
linear graph algorithms", SIAM J. Comput. 1, 1972) finishes each component
after every component it reaches, so one union-find call per component gives
its principal.  The join closure is incremental: each distinct principal,
keyed by a generating pair (a, b) and taken finest first, is skipped if
already found and otherwise joined with each found r with r[a] != r[b].  The
found set stays closed under joins after every step, so it ends as the whole
lattice.

A product's lattice is composed from its factors' when the variety has a
median term.  `median_term` looks for binary operations f, g of the
generator for which m(x,y,z) = g(g(f(x,y), f(y,z)), f(x,z)) satisfies
m(x,x,y) = m(x,y,x) = m(y,x,x) = x; f = g is allowed, and the check reads
at most b^2 * 3n^2 cells for b binary operations on n elements.  Each of
these identities holds in every algebra of HSP(generator), so in every pool
member.  In such a variety every congruence Psi of A x B is a product
theta x phi (Fraser and Horn, "Congruence relations in direct products",
Proc. AMS 26, 1970): if (a,b) Psi (c,d), the polynomial
X -> m(X, (a,b'), (c,b')) maps the two elements to (a,b') and (c,b'), and
m((a',b), (a',d), X) maps them to (a',b) and (a',d); so Psi is the product
of its projections theta and phi.  `compose_lattice` records a product with
its factors, and on first read `all_congruences` builds the rep of
theta x phi at a*|B| + b as rep_theta[a]*|B| + rep_phi[b], with no closure.
Without a median term, every lattice is built by the join closure.

A join closure counts n cells per join, and a composed lattice
|Con A| * |Con B| * |A x B| cells; past LATTICE_CELL_CAP either raises
ResourceBoundError before it allocates more.
"""
from __future__ import annotations

from .core import FiniteAlgebra, _renamed_tables
from .errors import InternalCheckError, ResourceBoundError, ValidationError
from .terms import _Record

# Cap on the cells one lattice build writes: n per join of the join
# closure, or |Con A| * |Con B| * |A x B| for a composed product.
LATTICE_CELL_CAP = 2_000_000


def _translations(algebra: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """The distinct non-identity basic translations, each as its value table,
    computed once per algebra and kept in its `_translations` slot."""
    kept = getattr(algebra, "_translations", None)
    if kept is None:
        n = algebra.size
        found: set[tuple[int, ...]] = set()
        for (_, arity), table in zip(algebra.signature.symbols, algebra.tables):
            for pos in range(arity):
                # entries that vary only in argument `pos` lie `stride` apart
                stride = n ** (arity - 1 - pos)
                for base in range(len(table)):
                    if base // stride % n == 0:
                        found.add(table[base : base + n * stride : stride])
        found.discard(tuple(range(n)))
        kept = tuple(found)
        object.__setattr__(algebra, "_translations", kept)
    return kept


def _close(parent: list[int], pending) -> tuple[int, ...]:
    """Merge the pending pairs into the union-find forest `parent` and
    return the canonical rep tuple.  The forest keeps parent[i] <= i, so
    every root is its class's least member."""
    for x, y in pending:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            continue
        if y < x:
            x, y = y, x
        parent[y] = x
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return tuple(parent)


def _join_rep(r1: tuple[int, ...], r2: tuple[int, ...]) -> tuple[int, ...]:
    return _close(list(r1), enumerate(r2))


def _respects_translations(algebra: FiniteAlgebra, rep: tuple[int, ...]) -> bool:
    """True iff every basic translation maps each class of rep into one class."""
    return all(
        rep[t[i]] == rep[t[r]]
        for t in _translations(algebra)
        for i, r in enumerate(rep)
    )


class Congruence(_Record):
    """A congruence as its canonical rep array.  The constructor validates;
    congruences computed here are correct by construction and skip it."""

    __slots__ = ("algebra", "rep")

    def __init__(self, algebra: FiniteAlgebra, rep: tuple[int, ...]):
        n = algebra.size
        if len(rep) != n:
            raise ValidationError(f"rep array length {len(rep)} for size {n}")
        for i, r in enumerate(rep):
            if not 0 <= r <= i:
                raise ValidationError(f"rep[{i}]={r} is not the least class member")
            if rep[r] != r:
                raise ValidationError(f"rep[{i}]={r} but rep[{r}]={rep[r]}")
        if not _respects_translations(algebra, rep):
            raise ValidationError("incompatible partition rejected")
        super().__init__(algebra, rep)

    def related(self, a: int, b: int) -> bool:
        return self.rep[a] == self.rep[b]

    def classes(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for i, r in enumerate(self.rep):
            out.setdefault(r, []).append(i)
        return [out[r] for r in sorted(out)]

    @property
    def n_classes(self) -> int:
        return len(set(self.rep))

    def is_identity(self) -> bool:
        return all(r == i for i, r in enumerate(self.rep))

    def __str__(self) -> str:
        return partition_text(self)


# A Congruence for a rep array that is a congruence by construction.
_trusted = Congruence._trusted


def partition_text(theta: Congruence) -> str:
    """Compact class-list rendering, e.g. {0,3|1,4|2,5}."""
    return "{" + "|".join(",".join(map(str, c)) for c in theta.classes()) + "}"


def congruence_from_partition(
    algebra: FiniteAlgebra, classes: list[list[int]]
) -> Congruence:
    n = algebra.size
    seen: set[int] = set()
    rep = [-1] * n
    for cls in classes:
        if not cls:
            raise ValidationError("empty class in partition")
        for e in cls:
            if not isinstance(e, int) or not 0 <= e < n:
                raise ValidationError(
                    f"partition element {e!r} is not in the universe 0..{n - 1}"
                )
        least = min(cls)
        for e in cls:
            if e in seen:
                raise ValidationError(f"element {e} in two classes")
            seen.add(e)
            rep[e] = least
    if len(seen) != n:
        raise ValidationError("partition does not cover the universe")
    return Congruence(algebra, tuple(rep))


def principal_congruence(algebra: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Least congruence identifying a and b, by the pass over the pair
    graph (see the module docstring)."""
    n = algebra.size
    if not (0 <= a < n and 0 <= b < n):
        raise ValidationError(f"elements ({a},{b}) outside universe of size {n}")
    return _trusted(algebra, _principal_reps(algebra, [(a, b)])[a, b])


def _principal_reps(algebra: FiniteAlgebra, pairs: list) -> dict:
    """Each pair's principal congruence, by one pass over the part of the
    pair graph that `pairs` reach (see the module docstring).  The pair a<b
    is node a*n + b, and each component's principal is one `_close` call.
    """
    n = algebra.size
    images = list(zip(*_translations(algebra))) or [()] * n  # images[a][i] = t_i(a)
    order = [0] * (n * n)  # discovery number, 0 while unseen
    low = [0] * (n * n)
    comp = [-1] * (n * n)  # component number once finished
    succ: list = [None] * (n * n)  # successor nodes, as a tuple
    reps: list[tuple[int, ...]] = []  # component number -> principal,
    keys: list[tuple[int, int]] = []  # a pair it is generated by,
    classes: list[int] = []  # and its number of classes
    stack: list[int] = []
    seen = 0

    def visit(v: int) -> tuple:
        nonlocal seen
        seen += 1
        order[v] = low[v] = seen
        stack.append(v)
        a, b = divmod(v, n)
        succ[v] = out = tuple({
            x * n + y if x < y else y * n + x
            for x, y in zip(images[a], images[b]) if x != y
        })
        return (v, iter(out))

    for a, b in pairs:
        if order[a * n + b]:
            continue
        path = [visit(a * n + b)]
        while path:
            v, edges = path[-1]
            for w in edges:
                if not order[w]:
                    path.append(visit(w))
                    break
                if comp[w] < 0 and order[w] < low[v]:  # w is still open
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] < order[v]:
                    continue
                k = len(stack) - 1
                while stack[k] != v:
                    k -= 1
                members = stack[k:]
                del stack[k:]
                c = len(reps)
                for m in members:
                    comp[m] = c
                # a successor's principal is Cg(x, y) for its key pair (x, y),
                # so it adds nothing once a joined principal relates x and y
                below = {comp[w] for m in members for w in succ[m]}
                below.discard(c)
                joined: list[tuple[int, ...]] = []
                for d in sorted(below, key=classes.__getitem__):
                    x, y = keys[d]
                    if all(r[x] != r[y] for r in joined):
                        joined.append(reps[d])
                base = joined[0] if joined else range(n)
                pending = [divmod(m, n) for m in members]
                for rep in joined[1:]:  # as merges of base's classes
                    pending += {
                        (base[i], base[r]) for i, r in enumerate(rep)
                        if base[i] != base[r]
                    }
                rep = _close(list(base), pending)
                reps.append(rep)
                keys.append(divmod(v, n))
                classes.append(len(set(rep)))
    return {(a, b): reps[comp[a * n + b]] for a, b in pairs}


def median_term(algebra: FiniteAlgebra) -> tuple[int, int] | None:
    """The first pair (f, g) of binary operation indices, in signature
    order, for which m(x,y,z) = g(g(f(x,y), f(y,z)), f(x,z)) is a majority
    term of `algebra`, or None."""
    n = algebra.size
    binary = [
        (k, table)
        for k, ((_, arity), table) in enumerate(
            zip(algebra.signature.symbols, algebra.tables))
        if arity == 2
    ]
    for i, f in binary:
        for j, g in binary:
            if all(
                g[g[f[x * n + x] * n + f[x * n + y]] * n + f[x * n + y]] == x
                and g[g[f[x * n + y] * n + f[y * n + x]] * n + f[x * n + x]] == x
                and g[g[f[y * n + x] * n + f[x * n + x]] * n + f[y * n + x]] == x
                for x in range(n) for y in range(n)
            ):
                return i, j
    return None


def compose_lattice(
    product: FiniteAlgebra, left: FiniteAlgebra, right: FiniteAlgebra
) -> None:
    """Record that `product` is `direct_product(left, right)` in a variety
    with a median term, so its lattice is composed from theirs."""
    object.__setattr__(product, "_composed", (left, right))


def _lattice_reps(algebra: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """The sorted rep tuples of the lattice, kept in the algebra's
    `_lattice` slot: composed from a product's factors, or built by the
    incremental join closure.  Raises ResourceBoundError past
    LATTICE_CELL_CAP cells."""
    reps = getattr(algebra, "_lattice", None)
    if reps is not None:
        return reps
    n = algebra.size
    factors = getattr(algebra, "_composed", None)
    if factors is not None:
        lefts, rights = map(_lattice_reps, factors)
        _check_cells(algebra, len(lefts) * len(rights) * n)
        m = factors[1].size
        found = [tuple([a * m + b for a in r1 for b in r2])
                 for r1 in lefts for r2 in rights]
    else:
        keyed: dict[tuple[int, ...], tuple[int, int]] = {}
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for pair, rep in _principal_reps(algebra, pairs).items():
            keyed.setdefault(rep, pair)
        found = {tuple(range(n))}
        cells = 0
        for p, (a, b) in sorted(keyed.items(), key=lambda kv: -len(set(kv[0]))):
            if p not in found:
                joins = [r for r in found if r[a] != r[b]]
                cells += len(joins) * n
                _check_cells(algebra, cells)
                found.update([_join_rep(r, p) for r in joins])
    reps = tuple(sorted(found, key=lambda r: (len(set(r)), r)))
    object.__setattr__(algebra, "_lattice", reps)
    return reps


def _check_cells(algebra: FiniteAlgebra, cells: int,
                 stage: str = "all_congruences", kind: str = "lattice") -> None:
    if cells > LATTICE_CELL_CAP:
        raise ResourceBoundError(
            f"{stage}: estimated {cells} {kind} cells for "
            f"'{algebra.name}' exceed cap {LATTICE_CELL_CAP}"
        )


def all_congruences(algebra: FiniteAlgebra) -> list[Congruence]:
    """The full congruence lattice by the incremental join closure of the
    principals, or composed from a product's factors (see the module
    docstring).  Sorted by (number of classes, rep array), so the total
    congruence comes first and the identity last.
    """
    return [_trusted(algebra, rep) for rep in _lattice_reps(algebra)]


# -- factor pairs and quotients ----------------------------------------------


def _meet_is_identity(r1: tuple[int, ...], r2: tuple[int, ...]) -> bool:
    return len(set(zip(r1, r2))) == len(r1)


class FactorPair(_Record):
    """An ordered complementary pair: the meet is the identity and the
    composition theta o theta_c is total.  Built only by `factor_pairs`."""

    __slots__ = ("theta", "theta_c")


def factor_pairs(algebra: FiniteAlgebra) -> list[FactorPair]:
    """All ordered pairs (theta, theta*) with meet identity and composition total.

    The test is "meet is the identity and |A/theta| * |A/theta*| = |A|".
    Meet identity makes a -> (a/theta, a/theta*) injective from A into
    A/theta x A/theta*; equal cardinalities make it onto as well, and onto
    says that every theta-class meets every theta*-class, which is exactly
    theta o theta* = theta* o theta = total.

    Both orientations are returned: the central element attached to a pair
    depends on which side carries the zero tuple.
    """
    cons = all_congruences(algebra)
    n = algebra.size
    counts = [c.n_classes for c in cons]
    return [
        FactorPair(t1, t2)
        for t1, k1 in zip(cons, counts)
        for t2, k2 in zip(cons, counts)
        if k1 * k2 == n and _meet_is_identity(t1.rep, t2.rep)
    ]


def quotient(
    algebra: FiniteAlgebra, theta: Congruence
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Quotient algebra on theta-classes plus the projection map."""
    if theta.algebra != algebra:
        raise ValidationError("congruence belongs to a different algebra")
    size, tables, proj = _quotient_tables(algebra, theta)
    return FiniteAlgebra._trusted(
        algebra.signature, size, tables, _quotient_name(algebra, theta)
    ), proj


def _quotient_tables(
    algebra: FiniteAlgebra, theta: Congruence
) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Size, operation tables and projection map of algebra/theta, for a
    theta of `algebra`: `quotient` without the name."""
    reps = sorted(set(theta.rep))
    index = {r: i for i, r in enumerate(reps)}
    proj = tuple(index[theta.rep[e]] for e in range(algebra.size))
    return len(reps), _renamed_tables(algebra, reps, proj), proj


def _quotient_name(algebra: FiniteAlgebra, theta: Congruence) -> str:
    return f"{algebra.name}/{partition_text(theta)}"


# -- compactness diagnostics ---------------------------------------------------


class CompactnessReport(_Record):
    """How many principal congruences are needed to generate theta.

    Finite algebras always admit some finite generating set; the search below
    is exhaustive for m <= 2 and falls back to a greedy cover beyond that.
    The pair search for m = 2 raises ResourceBoundError before it starts
    when its joins would pass LATTICE_CELL_CAP cells.
    """

    __slots__ = ("theta", "m", "generating_pairs", "exhaustive")


def compactness_report(
    algebra: FiniteAlgebra, theta: Congruence
) -> CompactnessReport:
    if theta.algebra != algebra:
        raise ValidationError("congruence belongs to a different algebra")
    if theta.is_identity():
        return CompactnessReport(theta, 0, (), True)
    n = algebra.size
    candidates = [(a, b) for a in range(n) for b in range(a + 1, n) if theta.related(a, b)]
    principals = _principal_reps(algebra, candidates)
    for p in candidates:
        if principals[p] == theta.rep:
            return CompactnessReport(theta, 1, (p,), True)
    # each pair of candidates is one join of n cells
    c = len(candidates)
    _check_cells(algebra, c * (c - 1) // 2 * n, "compactness_report", "join")
    for i, p in enumerate(candidates):
        for q in candidates[i + 1 :]:
            if _join_rep(principals[p], principals[q]) == theta.rep:
                return CompactnessReport(theta, 2, (p, q), True)
    # greedy cover: join principals until theta is reached
    chosen: list[tuple[int, int]] = []
    acc = tuple(range(n))
    for a, b in candidates:
        if acc == theta.rep:
            break
        if acc[a] == acc[b]:
            continue
        acc = _join_rep(acc, principals[a, b])
        chosen.append((a, b))
    if acc != theta.rep:
        raise InternalCheckError("greedy principal cover failed to reach theta")
    return CompactnessReport(theta, len(chosen), tuple(chosen), False)
