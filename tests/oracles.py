"""Independent brute-force oracles.

Everything here deliberately avoids the library's algorithms: congruences are
found by filtering all set partitions with a full-tuple compatibility scan,
and free-algebra carriers by a plain set-based fixpoint over pointwise
vectors.  The table-scan principal closure, its compatibility check and the
relational composition are the congruence layer's earlier implementation,
kept as references for the translation-based one.  `all_congruences_pairwise`
is the lattice as it was before the incremental join closure: principals
closed under every basic translation, each joined with every lattice
element.  `generate_pool_rescan` is the pool as it was before each member
was expanded once: every round rescans every member and every pair.
`direct_product_cellwise` is the product as it was before it read its
tables through `core._images`: one index computation per cell.
`principal_reps_per_pair` is the principal step as it was before the pass
over the pair graph: one closure under the generating translations per
pair.  `subalgebra_generated_rounds` is the subalgebra closure as it was
before its last pass doubled as the table build.
`identity_congruence` and `total_congruence` are the lattice's two ends,
which only the tests build.  Formulas are evaluated by
plain recursive `eval_term` over every bound-variable assignment, and over
A x B through the materialized product table.  `first_witness` and
`all_witnesses` read the evaluator's hits whose failure mask is 0, the
witness queries only the tests ask.  `verify_dfc_materialized` is
the first-coordinate harness as it was before it went coordinatewise: one
product table and one witness search per product cell.
`verify_dfc_searched` is the harness as it was before it composed the
relations of recorded products from their factors: every member is searched
on every side it is used on.
`free_algebra_pointwise` is the free-algebra closure as it was before it ran
row by row on carrier vectors: one Python loop over the points per operation
application, in the closure and again in the carrier tables.
Congruence joins, meets and the decomposition along a factor pair, which only
the tests use, are built here from the union-find above and the library's
validating constructors.  So are the homomorphism checks and the
preservation harness for positive formulas, which only the tests use too.
`free_pair_witnesses_materialized` is the witness search of `positivize` as
it was before it went factor by factor: one search over the materialized
F(x) x F(x,y).
`congruence_of_central_classified` is the correspondence check per central
element as it was before it compared with the factor congruence directly:
the relation is first classified as an equivalence and a congruence.
`RECORD_TWINS` holds the package's record classes declared with
`@dataclass(frozen=True)`, as they were before `terms._Record` replaced the
decorator, with the same fields as today's classes: the reference for their
equality, hashing, repr and immutability.
"""
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field, make_dataclass

from factorlab import (
    Congruence,
    DnfEvaluator,
    ExistentialDnf,
    FactorPair,
    FiniteAlgebra,
    PoolEntry,
    PositiveExistential,
    ResourceBoundError,
    ValidationError,
    VarietyContext,
    all_congruences,
    direct_product,
    eval_term,
    pair_index,
    quotient,
    subalgebra_generated,
)
from factorlab.dfc import (
    DEFAULT_EVAL_CAP,
    DEFAULT_PAIR_CAP,
    DfcCounterexample,
    DfcCounterexamples,
    DfcReport,
)
import factorlab.congruences as congruences
from factorlab.core import _images
from factorlab.errors import InternalCheckError
from factorlab.freealg import DEFAULT_BUDGET, FreeAlgebra, _default_var_names
from factorlab.terms import App, Term, Var


def set_partitions(n):
    """All partitions of {0..n-1} as lists of sorted classes (restricted
    growth strings)."""
    out = []

    def grow(prefix, maxi):
        i = len(prefix)
        if i == n:
            classes = {}
            for e, c in enumerate(prefix):
                classes.setdefault(c, []).append(e)
            out.append([classes[c] for c in sorted(classes)])
            return
        for c in range(maxi + 2):
            grow(prefix + [c], max(maxi, c))

    grow([], -1)
    return out


def rep_of_partition(n, classes):
    rep = [0] * n
    for cls in classes:
        least = min(cls)
        for e in cls:
            rep[e] = least
    return tuple(rep)


def compatible_naive(algebra, rep):
    """Full scan: every pair of componentwise-related argument tuples must
    have related images (no single-coordinate shortcut)."""
    n = algebra.size
    for sym, arity in algebra.signature.symbols:
        if arity == 0:
            continue
        for u in itertools.product(range(n), repeat=arity):
            for v in itertools.product(range(n), repeat=arity):
                if all(rep[a] == rep[b] for a, b in zip(u, v)):
                    if rep[algebra.apply(sym, u)] != rep[algebra.apply(sym, v)]:
                        return False
    return True


def congruence_reps_bruteforce(algebra):
    """All compatible partitions of the universe, as canonical rep tuples."""
    n = algebra.size
    found = set()
    for classes in set_partitions(n):
        rep = rep_of_partition(n, classes)
        if compatible_naive(algebra, rep):
            found.add(rep)
    return found


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def rep_tuple(self):
        # roots are the least members because union keeps the smaller root
        return tuple(self.find(i) for i in range(len(self.parent)))


def is_compatible_table_scan(algebra, rep):
    """Compatibility one argument position at a time, scanning the tables;
    full compatibility follows by transitivity through intermediate tuples."""
    n = algebra.size
    classes = {}
    for i, r in enumerate(rep):
        classes.setdefault(r, []).append(i)
    multi = [c for c in classes.values() if len(c) > 1]
    if not multi:
        return True
    for sym, arity in algebra.signature.symbols:
        if arity == 0:
            continue
        table = algebra.table(sym)
        for pos in range(arity):
            for rest in itertools.product(range(n), repeat=arity - 1):
                for cls in multi:
                    first = None
                    for a in cls:
                        idx = 0
                        for j in range(arity):
                            if j == pos:
                                idx = idx * n + a
                            else:
                                idx = idx * n + rest[j if j < pos else j - 1]
                        v = rep[table[idx]]
                        if first is None:
                            first = v
                        elif v != first:
                            return False
    return True


def close_under_operations(algebra, uf):
    """Merge classes by table scans until every operation respects them."""
    n = algebra.size
    changed = True
    while changed:
        changed = False
        classes = {}
        for i in range(n):
            classes.setdefault(uf.find(i), []).append(i)
        multi = [c for c in classes.values() if len(c) > 1]
        if not multi:
            return
        for sym, arity in algebra.signature.symbols:
            if arity == 0:
                continue
            table = algebra.table(sym)
            for pos in range(arity):
                for rest in itertools.product(range(n), repeat=arity - 1):
                    for cls in multi:
                        first = None
                        for a in cls:
                            idx = 0
                            for j in range(arity):
                                if j == pos:
                                    idx = idx * n + a
                                else:
                                    idx = idx * n + rest[j if j < pos else j - 1]
                            v = table[idx]
                            if first is None:
                                first = v
                            elif uf.union(first, v):
                                changed = True


def principal_rep_table_scan(algebra, a, b):
    """Rep tuple of the least congruence identifying a and b."""
    uf = UnionFind(algebra.size)
    uf.union(a, b)
    close_under_operations(algebra, uf)
    return uf.rep_tuple()


def compose(t1, t2):
    """Relational composition {(x,z) : exists y with x t1 y and y t2 z}."""
    n = len(t1.rep)
    cls1 = {}
    for i in range(n):
        cls1.setdefault(t1.rep[i], []).append(i)
    pairs = set()
    for x in range(n):
        for y in cls1[t1.rep[x]]:
            r2 = t2.rep[y]
            for z in range(n):
                if t2.rep[z] == r2:
                    pairs.add((x, z))
    return frozenset(pairs)


def identity_congruence(algebra: FiniteAlgebra) -> Congruence:
    return Congruence(algebra, tuple(range(algebra.size)))


def total_congruence(algebra: FiniteAlgebra) -> Congruence:
    return Congruence(algebra, (0,) * algebra.size)


def all_congruences_pairwise(algebra: FiniteAlgebra, bound: int = 8) -> list:
    """The lattice as `all_congruences` built it before the incremental
    join closure: every principal, closed under all basic translations, is
    joined with every lattice element until no join is new."""
    n = algebra.size
    if n > bound:
        raise ResourceBoundError(
            f"size {n} exceeds congruence enumeration bound {bound}"
        )
    translations = congruences._translations(algebra)
    principals = {
        congruences._close(list(range(n)), translations, [(a, b)])
        for a in range(n)
        for b in range(a + 1, n)
    }
    found = {tuple(range(n))} | principals
    frontier = list(principals)
    while frontier:
        fresh = []
        for rep in frontier:
            for p in principals:
                j = congruences._join_rep(rep, p)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return [
        congruences._trusted(algebra, rep)
        for rep in sorted(found, key=lambda r: (len(set(r)), r))
    ]


def principal_reps_per_pair(algebra: FiniteAlgebra, pairs: list) -> dict:
    """`congruences._principal_reps` as it was before the pass over the pair
    graph: each pair's principal closed from scratch under the generating
    translations."""
    generators = congruences._generators(algebra)
    return {
        p: congruences._close(list(range(algebra.size)), generators, [p])
        for p in pairs
    }


def subalgebra_generated_rounds(
    algebra: FiniteAlgebra, seed
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """`subalgebra_generated` as it was before its last closure pass doubled
    as the table build: rounds until one adds nothing, then the tables."""
    n = algebra.size
    ops = [
        (table, arity)
        for (_, arity), table in zip(algebra.signature.symbols, algebra.tables)
    ]
    current = set(seed) | {table[0] for table, arity in ops if arity == 0}
    changed = True
    while changed:
        changed = False
        snapshot = sorted(current)
        for table, arity in ops:
            if arity == 0:
                continue
            size = len(current)
            current.update(_images(table, arity, snapshot, n))
            changed = changed or len(current) != size
    embedding = tuple(sorted(current))
    back = {old: new for new, old in enumerate(embedding)}
    tables = tuple(
        tuple([back[v] for v in _images(table, arity, embedding, n)])
        for table, arity in ops
    )
    sub = FiniteAlgebra(
        algebra.signature, len(embedding), tables, f"{algebra.name}|{sorted(seed)}"
    )
    return sub, embedding


def _check_owner(t1, t2):
    if t1.algebra != t2.algebra:
        raise ValidationError("congruences belong to different algebras")


def congruence_join(t1: Congruence, t2: Congruence) -> Congruence:
    """The transitive closure of the union, which is again a congruence."""
    _check_owner(t1, t2)
    uf = UnionFind(t1.algebra.size)
    for i, (r1, r2) in enumerate(zip(t1.rep, t2.rep)):
        uf.union(i, r1)
        uf.union(i, r2)
    return Congruence(t1.algebra, uf.rep_tuple())


def congruence_meet(t1: Congruence, t2: Congruence) -> Congruence:
    """The intersection: classes are the pairs of a t1-class and a t2-class."""
    _check_owner(t1, t2)
    first: dict[tuple[int, int], int] = {}
    rep = tuple(first.setdefault(key, i) for i, key in enumerate(zip(t1.rep, t2.rep)))
    return Congruence(t1.algebra, rep)


def generate_pool_rescan(
    ctx: VarietyContext, max_size: int = 8, depth: int = 2
) -> list[PoolEntry]:
    """`generate_pool` as it was before each member was expanded once: every
    round takes the quotients and subalgebras of every member so far, and
    the products of every pair of them."""
    gen = ctx.generator
    bound = max(max_size, gen.size)
    entries = [PoolEntry(gen, "generator")]
    seen = {(gen.size, gen.tables)}

    def add(algebra, recipe, out):
        if algebra.size > max_size:
            return
        fp = (algebra.size, algebra.tables)
        if fp in seen:
            return
        seen.add(fp)
        out.append(PoolEntry(algebra, recipe))

    for _ in range(depth):
        fresh = []
        snapshot = list(entries)
        for entry in snapshot:
            a = entry.algebra
            for theta in all_congruences(a, bound=bound):
                q, _ = quotient(a, theta)
                add(q, f"quotient({a.name}, {theta})", fresh)
            seeds = [()] + [(s,) for s in range(a.size)] + [
                pair for pair in itertools.combinations(range(a.size), 2)
            ]
            for seed in seeds:
                if not seed and not a.signature.constants:
                    continue
                sub, _ = subalgebra_generated(a, seed)
                add(sub, f"subalgebra({a.name}, {list(seed)})", fresh)
        for e1 in snapshot:
            for e2 in snapshot:
                if e1.algebra.size * e2.algebra.size > max_size:
                    continue
                p = direct_product(e1.algebra, e2.algebra)
                add(p, f"product({e1.algebra.name}, {e2.algebra.name})", fresh)
        if not fresh:
            break
        entries.extend(fresh)
    return entries


def direct_product_cellwise(
    a: FiniteAlgebra, b: FiniteAlgebra, name: str | None = None
) -> FiniteAlgebra:
    """`direct_product` as it was before it read its tables through
    `core._images`: each cell splits its argument tuple into the two
    coordinates' table indices."""
    nb = b.size
    n = a.size * nb
    tables = []
    for (_, arity), ta, tb in zip(a.signature.symbols, a.tables, b.tables):
        if arity == 0:
            tables.append((pair_index(ta[0], tb[0], nb),))
            continue
        table = []
        for args in itertools.product(range(n), repeat=arity):
            ia = ib = 0
            for p in args:
                ia = ia * a.size + p // nb
                ib = ib * nb + p % nb
            table.append(pair_index(ta[ia], tb[ib], nb))
        tables.append(tuple(table))
    return FiniteAlgebra(
        a.signature, n, tuple(tables), name or f"{a.name}x{b.name}"
    )


# -- homomorphisms ------------------------------------------------------------


def is_homomorphism(
    a: FiniteAlgebra, b: FiniteAlgebra, h: Sequence[int]
) -> bool:
    """True iff h (total map on A's universe into B's) commutes with every table."""
    if a.signature != b.signature:
        raise ValidationError("signature mismatch")
    if len(h) != a.size:
        raise ValidationError(f"map has {len(h)} entries for universe of {a.size}")
    if any(not 0 <= v < b.size for v in h):
        raise ValidationError("map image outside codomain universe")
    for sym, arity in a.signature.symbols:
        for args in itertools.product(range(a.size), repeat=arity):
            if h[a.apply(sym, args)] != b.apply(sym, [h[x] for x in args]):
                return False
    return True


def surjective_homomorphisms(
    a: FiniteAlgebra, b: FiniteAlgebra, max_candidates: int = 200_000
) -> list[tuple[int, ...]]:
    """All surjective homomorphisms A -> B by brute enumeration.

    Raises ResourceBoundError when |B|^|A| exceeds max_candidates.
    """
    if a.signature != b.signature:
        raise ValidationError("signature mismatch")
    total = b.size**a.size
    if total > max_candidates:
        raise ResourceBoundError(
            f"{total} candidate maps {a.name} -> {b.name} exceed cap {max_candidates}"
        )
    ops = [
        (a.signature.index(sym), arity)
        for sym, arity in a.signature.symbols
    ]
    out = []
    rng_a = range(a.size)
    for h in itertools.product(range(b.size), repeat=a.size):
        if len(set(h)) != b.size:
            continue
        ok = True
        for sym_i, arity in ops:
            ta = a.tables[sym_i]
            tb = b.tables[sym_i]
            for args in itertools.product(rng_a, repeat=arity):
                ia = ib = 0
                for x in args:
                    ia = ia * a.size + x
                    ib = ib * b.size + h[x]
                if h[ta[ia]] != tb[ib]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(h)
    return out


@dataclass(frozen=True)
class Decomposition:
    left: FiniteAlgebra
    right: FiniteAlgebra
    iso: tuple[int, ...]
    proj_left: tuple[int, ...]
    proj_right: tuple[int, ...]


def decomposition_from_pair(algebra: FiniteAlgebra, pair: FactorPair) -> Decomposition:
    """Split the algebra along a factor pair; asserts the map is a bijective
    homomorphism onto the product of the two quotients."""
    a1, p1 = quotient(algebra, pair.theta)
    a2, p2 = quotient(algebra, pair.theta_c)
    iso = tuple(pair_index(p1[c], p2[c], a2.size) for c in range(algebra.size))
    if len(set(iso)) != algebra.size or a1.size * a2.size != algebra.size:
        raise InternalCheckError(
            f"factor pair of '{algebra.name}' does not induce a bijection"
        )
    if not is_homomorphism(algebra, direct_product(a1, a2), iso):
        raise InternalCheckError(
            f"factor pair of '{algebra.name}' does not induce a homomorphism"
        )
    return Decomposition(a1, a2, iso, tuple(p1), tuple(p2))


@dataclass(frozen=True)
class ClassifiedCentralReport:
    element: tuple[int, ...]
    is_congruence: bool
    matches_pair: bool
    computed: Congruence | None
    expected: Congruence
    note: str

    @property
    def ok(self) -> bool:
        return self.is_congruence and self.matches_pair


def congruence_of_central_classified(
    algebra: FiniteAlgebra,
    phi: ExistentialDnf | PositiveExistential,
    ce,
) -> ClassifiedCentralReport:
    """The relation {(a, c) : formula holds at (a, c, e)}, classified before it
    is compared with the zero-side factor congruence pair.theta: is it an
    equivalence, is it compatible, and is it pair.theta."""
    ev = DnfEvaluator(algebra, phi)
    n = algebra.size
    rel = [[ev.satisfied(a, c, ce.e) for c in range(n)] for a in range(n)]
    # rel is an equivalence iff it is the kernel of a -> least c with rel(a, c)
    rep = tuple(row.index(True) if True in row else -1 for row in rel)
    if any(rel[a][c] != (rep[a] == rep[c]) for a in range(n) for c in range(n)):
        note = "relation is not an equivalence"
    elif not congruences._respects_translations(algebra, rep):
        note = "equivalence is not compatible with the operations"
    else:
        return ClassifiedCentralReport(
            ce.e, True, rep == ce.pair.theta.rep,
            congruences._trusted(algebra, rep), ce.pair.theta,
            "convention: the element is zero-side for pair.theta, and the "
            "relation defined by the formula is compared against pair.theta",
        )
    return ClassifiedCentralReport(ce.e, False, False, None, ce.pair.theta, note)


def ring_idempotents(algebra):
    return sorted(e for e in range(algebra.size) if algebra.apply("*", (e, e)) == e)


def term_function_vectors(algebra, rank):
    """Pointwise vectors of all term functions in `rank` variables, computed
    by a dumb set fixpoint (no witness bookkeeping, no budget, no layering)."""
    points = list(itertools.product(range(algebra.size), repeat=rank))
    vectors = set()
    for j in range(rank):
        vectors.add(tuple(p[j] for p in points))
    for sym, arity in algebra.signature.symbols:
        if arity == 0:
            vectors.add((algebra.apply(sym),) * len(points))
    while True:
        new = set()
        for sym, arity in algebra.signature.symbols:
            if arity == 0:
                continue
            for vecs in itertools.product(sorted(vectors), repeat=arity):
                out = tuple(
                    algebra.apply(sym, [v[p] for v in vecs])
                    for p in range(len(points))
                )
                if out not in vectors:
                    new.add(out)
        if not new:
            return vectors
        vectors |= new


def witnesses_naive(algebra, phi, x, y, zs):
    """Every (disjunct index, bound-variable assignment) satisfying all
    literals of that disjunct, disjunct by disjunct and lexicographically
    within one: no compilation, no literal scheduling, no pruning."""
    env = {"x": x, "y": y, **{f"z{i + 1}": z for i, z in enumerate(zs)}}
    out = []
    for k, conj in enumerate(phi.disjuncts):
        for w in itertools.product(range(algebra.size), repeat=len(phi.bound_vars)):
            env.update(zip(phi.bound_vars, w))
            if all(
                (eval_term(algebra, lit.lhs, env) == eval_term(algebra, lit.rhs, env))
                == lit.positive
                for lit in conj
            ):
                out.append((k, w))
    return out


def all_witnesses(ev: DnfEvaluator, x, y, zs):
    """Every (disjunct index, bound-variable assignment) of `ev` satisfying
    all literals of that disjunct, in search order: the hits of
    `masked_witnesses` whose mask is 0."""
    return [(k, ws) for k, mask, ws in ev.masked_witnesses(x, y, zs) if not mask]


def first_witness(ev: DnfEvaluator, x, y, zs):
    """The head of `all_witnesses`, found without searching further, or None."""
    for k, mask, ws in ev.masked_witnesses(x, y, zs):
        if not mask:
            return k, ws
    return None


def masked_witnesses_naive(algebra, phi, x, y, zs):
    """Yield (disjunct index, failure mask, bound-variable assignment) at
    every assignment satisfying the positive literals of that disjunct, in
    the order of `witnesses_naive`; bit j of the mask is set when the j-th
    negative literal of the disjunct fails there."""
    env = {"x": x, "y": y, **{f"z{i + 1}": z for i, z in enumerate(zs)}}
    for k, conj in enumerate(phi.disjuncts):
        negatives = [lit for lit in conj if not lit.positive]
        for w in itertools.product(range(algebra.size), repeat=len(phi.bound_vars)):
            env.update(zip(phi.bound_vars, w))
            if all(
                eval_term(algebra, lit.lhs, env) == eval_term(algebra, lit.rhs, env)
                for lit in conj if lit.positive
            ):
                yield k, sum(
                    1 << j for j, lit in enumerate(negatives)
                    if eval_term(algebra, lit.lhs, env)
                    == eval_term(algebra, lit.rhs, env)
                ), w


def eval_in_product(product, b_size, phi, ab, cd, z_pairs):
    """The formula over the materialized product A x B, with |B| = b_size, at
    paired arguments under the fixed encoding; z_pairs gives, per z-role,
    the (A-side, B-side) coordinates."""
    x = pair_index(ab[0], ab[1], b_size)
    y = pair_index(cd[0], cd[1], b_size)
    zs = tuple(pair_index(za, zb, b_size) for za, zb in z_pairs)
    return bool(witnesses_naive(product, phi, x, y, zs))


def verify_dfc_materialized(
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


def verify_dfc_searched(
    phi: ExistentialDnf | PositiveExistential,
    ctx: VarietyContext,
    pair_cap: int = DEFAULT_PAIR_CAP,
    eval_cap: int = DEFAULT_EVAL_CAP,
) -> DfcReport:
    """`verify_dfc` with one `failure_masks` call per (a, c) of every member
    used on a side, recorded products included, and the estimate that
    counts |M|^(2+nb) for each of them."""
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
    estimate = (
        sum(algebras[i].size ** per_member for i in lefts)
        + sum(algebras[j].size ** per_member for j in rights)
        + sum((algebras[i].size * algebras[j].size) ** 2 for i, j in tested)
    )
    if estimate > eval_cap:
        raise ResourceBoundError(
            f"verify_dfc: estimated {estimate} evaluations exceed cap {eval_cap}"
        )

    def relation(algebra, zs, signatures):
        ev = DnfEvaluator(algebra, phi)
        n = algebra.size
        return [
            signatures.setdefault(ev.failure_masks(a, c, zs), len(signatures))
            for a in range(n)
            for c in range(n)
        ]

    left_sigs: dict = {}
    right_sigs: dict = {}
    left = {
        i: relation(algebras[i], ctx.zero_values(algebras[i]), left_sigs)
        for i in lefts
    }
    right = {
        j: relation(algebras[j], ctx.one_values(algebras[j]), right_sigs)
        for j in rights
    }
    left_by_id, right_by_id = list(left_sigs), list(right_sigs)
    table: dict = {}

    def holds(sa, sb):
        found = table.get((sa, sb))
        if found is None:
            found = table[sa, sb] = any(
                fa & fb == 0
                for masks_a, masks_b in zip(left_by_id[sa], right_by_id[sb])
                for fa in masks_a
                for fb in masks_b
            )
        return found

    mismatches: dict = {}
    groups: dict = {}
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


def _pointwise(
    table: tuple[int, ...], vecs: list[tuple[int, ...]], n: int, n_points: int
) -> tuple[int, ...]:
    """The operation with flat table `table` applied at every point to the
    argument vectors `vecs`."""
    if not vecs:
        return (table[0],) * n_points
    if len(vecs) == 2:  # the common case, unrolled
        return tuple([table[a * n + b] for a, b in zip(*vecs)])
    out = []
    for col in zip(*vecs):
        i = 0
        for a in col:
            i = i * n + a
        out.append(table[i])
    return tuple(out)


def free_algebra_pointwise(
    base: FiniteAlgebra, rank: int, budget: int = DEFAULT_BUDGET
) -> FreeAlgebra:
    """Closure of the rank projection vectors (plus constants) under all
    operations, computed pointwise over the index space base^rank.

    Raises ResourceBoundError, reporting the partial carrier size, as soon as
    the closure exceeds the budget.
    """
    if rank < 0:
        raise ValidationError("rank must be nonnegative")
    names = _default_var_names(rank)
    n = base.size
    points = list(itertools.product(range(n), repeat=rank))
    if rank == 0 and not base.signature.constants:
        raise ValidationError("rank 0 needs at least one constant symbol")

    index: dict[tuple[int, ...], int] = {}
    vectors: list[tuple[int, ...]] = []
    witnesses: list[Term] = []

    def add(vec: tuple[int, ...], term: Term) -> int:
        found = index.get(vec)
        if found is not None:
            return found
        if len(vectors) >= budget:
            raise ResourceBoundError(
                f"free algebra closure over '{base.name}' exceeded budget "
                f"{budget} (partial carrier size {len(vectors)}); "
                f"shrink the base algebra or raise the budget"
            )
        i = len(vectors)
        index[vec] = i
        vectors.append(vec)
        witnesses.append(term)
        return i

    generators = tuple(
        add(tuple(pt[j] for pt in points), Var(names[j])) for j in range(rank)
    )
    for sym, arity in base.signature.symbols:
        if arity == 0:
            c = base.apply(sym)
            add((c,) * len(points), App(sym, ()))

    prev = 0
    while True:
        snapshot = len(vectors)
        if snapshot == prev:
            break
        for sym, arity in base.signature.symbols:
            if arity == 0:
                continue
            table = base.table(sym)
            for args in itertools.product(range(snapshot), repeat=arity):
                if max(args) < prev:
                    continue  # computed in an earlier round
                vec = _pointwise(table, [vectors[a] for a in args], n, len(points))
                if vec not in index:
                    add(vec, App(sym, tuple(witnesses[a] for a in args)))
        prev = snapshot

    size = len(vectors)
    tables = []
    for sym, arity in base.signature.symbols:
        table = []
        btab = base.table(sym)
        for args in itertools.product(range(size), repeat=arity):
            vec = _pointwise(btab, [vectors[a] for a in args], n, len(points))
            entry = index.get(vec)
            if entry is None:
                raise InternalCheckError("carrier is not closed under operations")
            table.append(entry)
        tables.append(tuple(table))
    carrier = FiniteAlgebra(
        base.signature, size, tuple(tables), f"F{rank}({base.name})"
    )
    return FreeAlgebra(
        base, rank, names, lambda: carrier, tuple(vectors), tuple(witnesses),
        generators,
    )


# -- the free-pair product and the preservation harness ------------------------


def free_pair_witnesses_materialized(phi, fpc):
    """(first witness, all witnesses) of phi at the distinguished assignment,
    searched over the materialized F(x) x F(x,y): the route `positivize` and
    `enumerate_witnesses` took before they went factor by factor."""
    ev = DnfEvaluator(direct_product(fpc.f1.algebra, fpc.f2.algebra), phi)
    return (
        first_witness(ev, fpc.x, fpc.y, fpc.z),
        all_witnesses(ev, fpc.x, fpc.y, fpc.z),
    )


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


# -- dataclass twins of the record classes ---------------------------------------


def _twin(name, *fields, **options):
    """A frozen dataclass named like the record class, so that reprs compare
    as text.  A field is a name, or (name, type, field(...))."""
    return make_dataclass(name, fields, frozen=True, **options)


def _opt(name, default):
    return (name, object, field(default=default))


RECORD_TWINS = {twin.__name__: twin for twin in (
    _twin("Var", "name"),
    _twin("App", "symbol", _opt("args", ())),
    _twin("Signature", "symbols", _opt("l", 1)),
    _twin("FiniteAlgebra", "signature", "size", "tables", _opt("name", "A")),
    _twin("Congruence", "algebra", "rep"),
    _twin("FactorPair", "theta", "theta_c"),
    _twin("CompactnessReport", "theta", "m", "generating_pairs", "exhaustive"),
    _twin("Literal", "lhs", "rhs", _opt("positive", True)),
    _twin("ExistentialDnf", "bound_vars", "disjuncts", _opt("l", 1)),
    _twin("PositiveExistential", "bound_vars", "literals", _opt("l", 1)),
    _twin("_Tok", "kind", "text", "pos"),
    _twin("PoolEntry", "algebra", "recipe", _opt("factors", None)),
    _twin("VarietyContext", "generator", "zero_terms", "one_terms",
          _opt("pool", ())),
    _twin("ZeroOneReport", "entries",
          _opt("note", "sampled verification over the pool, not a proof")),
    _twin("CentralElement", "algebra", "e", "pair"),
    _twin("DfcCounterexample", "left", "right", "a", "b", "c", "d", "direction",
          slots=True),
    _twin("DfcReport", "formula_text", "pairs_tested", "skipped", "counterexamples"),
    _twin("CentralCongruenceReport", "element", "expected", "ok"),
    _twin("CorrespondenceReport", "algebra_name", "element_reports",
          "bijection_ok", "idempotent_check"),
    _twin("FreeAlgebra", "base", "rank", "var_names",
          ("build_algebra", object, field(repr=False, compare=False)),
          "vectors", "witnesses", "generators"),
    _twin("FreePairContext", "f1", "f2", "x", "y", "z"),
    _twin("WitnessCertificate", "disjunct", "witness_indices"),
    _twin("PositivizeResult", "k", "phi_prime", "witnesses", "certificate",
          _opt("warnings", ())),
)}
