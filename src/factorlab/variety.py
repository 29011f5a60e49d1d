"""Variety contexts: a generating algebra, closed zero/one term tuples, and a
pool of members built by closing the generator under quotients, generated
subalgebras and binary products (so membership holds by construction).
"""
from __future__ import annotations

import itertools

from .congruences import (
    Congruence,
    _quotient_name,
    _quotient_tables,
    all_congruences,
    compose_lattice,
    median_term,
)
from .core import (
    FiniteAlgebra,
    Signature,
    _images,
    _subalgebra_name,
    _subalgebra_tables,
    direct_product,
    eval_term,
)
from .errors import ResourceBoundError, ValidationError
from .freealg import FreeAlgebra, free_algebra
from .terms import Term, Var, _Record, is_closed


class PoolEntry(_Record):
    """A pool member and how it was built.  `factors` is (i, j) when the
    member has the tables of `direct_product` of the pool's entries i and j,
    in that order, and None otherwise: a product, or, under a median term, a
    quotient of a recorded product, which keeps its quotient name and
    recipe.  Both factors come before the member in the pool:
    `generate_pool` records only products of members it already has, and
    `verify_dfc` builds the factors' histograms first."""

    __slots__ = ("algebra", "recipe", "factors")

    def __init__(self, algebra: FiniteAlgebra, recipe: str,
                 factors: tuple[int, int] | None = None):
        super().__init__(algebra, recipe, factors)


class VarietyContext(_Record):
    __slots__ = ("generator", "zero_terms", "one_terms", "pool")

    def __init__(self, generator: FiniteAlgebra, zero_terms: tuple[Term, ...],
                 one_terms: tuple[Term, ...], pool: tuple[PoolEntry, ...] = ()):
        l = generator.signature.l
        if len(zero_terms) != l or len(one_terms) != l:
            raise ValidationError(
                f"zero/one term tuples must have length l={l}, got "
                f"{len(zero_terms)}/{len(one_terms)}"
            )
        for t in zero_terms + one_terms:
            if not is_closed(t):
                raise ValidationError("zero/one terms must be closed (variable-free)")
            eval_term(generator, t, {})  # raises on unknown symbols
        for entry in pool:
            if entry.algebra.signature != generator.signature:
                raise ValidationError(
                    f"pool member '{entry.algebra.name}' has a different signature"
                )
        super().__init__(generator, zero_terms, one_terms, pool)

    @property
    def signature(self) -> Signature:
        return self.generator.signature

    @property
    def l(self) -> int:
        return self.signature.l

    @property
    def pool_algebras(self) -> tuple[FiniteAlgebra, ...]:
        return tuple(e.algebra for e in self.pool)

    def zero_values(self, algebra: FiniteAlgebra) -> tuple[int, ...]:
        return tuple(eval_term(algebra, t, {}) for t in self.zero_terms)

    def one_values(self, algebra: FiniteAlgebra) -> tuple[int, ...]:
        return tuple(eval_term(algebra, t, {}) for t in self.one_terms)

    def populated(self, max_size: int = 8, depth: int = 2) -> "VarietyContext":
        pool = tuple(generate_pool(self, max_size=max_size, depth=depth))
        return VarietyContext(self.generator, self.zero_terms, self.one_terms, pool)


# F(2) of the generator is read as a seed program only up to this many
# elements; past it `generate_pool` closes every seed in its member.
SEED_PROGRAM_CAP = 64


class _SeedPatterns:
    """The subalgebras generated by at most two elements, read off F(2).

    Sg(s, t) in a member M is the image of F(2) under x -> s, y -> t
    (Burris and Sankappanavar, "A Course in Universal Algebra", II 10-11),
    and (s, s) gives Sg(s).  F(2)'s witnesses are a straight-line program:
    each element is one operation applied to earlier ones, or a generator.
    Running it at (s, t) gives the values of F(2)'s elements in M, and their
    rank pattern (each value replaced by its rank among the distinct ones)
    fixes Sg(s, t)'s tables: F(2)'s tables read through the pattern.  Equal
    patterns share one id.  In a product A x B the values at
    ((a1, b1), (a2, b2)) are the pairs of A's at (a1, a2) and B's at
    (b1, b2), ranked as a*|B| + b ranks them, so a product's ids are
    composed from its factors', once per pair of ids."""

    __slots__ = ("steps", "free", "by_id", "_ids", "_pairs")

    def __init__(self, generator: FiniteAlgebra, free: FreeAlgebra):
        # a witness applies its symbol to earlier witnesses, the same objects
        index = {id(w): i for i, w in enumerate(free.witnesses)}
        # (symbol index, argument elements), or (generator slot, None)
        self.steps = [
            (free.var_names.index(w.name), None) if isinstance(w, Var) else
            (generator.signature.index(w.symbol), [index[id(a)] for a in w.args])
            for w in free.witnesses
        ]
        self.free = free.algebra
        self.by_id: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self._pairs: dict[tuple[int, int], int] = {}  # (id in A, id in B)

    @classmethod
    def of(cls, generator: FiniteAlgebra) -> "_SeedPatterns | None":
        """The patterns of `generator`'s variety, or None when its F(2) has
        more than SEED_PROGRAM_CAP elements."""
        try:
            free = free_algebra(generator, 2, SEED_PROGRAM_CAP)
        except ResourceBoundError:
            return None
        return cls(generator, free)

    def _intern(self, values) -> int:
        rank = {v: r for r, v in enumerate(sorted(set(values)))}
        pattern = tuple([rank[v] for v in values])
        pid = self._ids.get(pattern)
        if pid is None:
            pid = self._ids[pattern] = len(self.by_id)
            self.by_id.append(pattern)
        return pid

    def member_ids(self, algebra: FiniteAlgebra) -> list[int]:
        """The pattern id at every (s, t), at index s*|M| + t, by running
        the program at every pair at once."""
        n = algebra.size
        cols = []  # cols[i][s*n + t] = element i's value at (s, t)
        for k, args in self.steps:
            if args is None:
                cols.append(list(range(n)) * n if k else
                            [s for s in range(n) for _ in range(n)])
                continue
            cells = [0] * (n * n)
            for a in args:
                cells = [c * n + v for c, v in zip(cells, cols[a])]
            table = algebra.tables[k]
            cols.append([table[c] for c in cells])
        return [self._intern(values) for values in zip(*cols)]

    def product_ids(self, ids_a: list[int], na: int, ids_b: list[int],
                    nb: int) -> list[int]:
        """`member_ids` of A x B, from A's and B's."""
        pairs, by_id = self._pairs, self.by_id
        # every pair of an id of A and one of B occurs in A x B
        for x, y in {(x, y) for x in set(ids_a) for y in set(ids_b)} - pairs.keys():
            pairs[x, y] = self._intern(list(zip(by_id[x], by_id[y])))
        rows_b = [ids_b[b : b + nb] for b in range(0, nb * nb, nb)]
        return [
            pairs[x, y]
            for a in range(0, na * na, na)
            for row_b in rows_b
            for x in ids_a[a : a + na]
            for y in row_b
        ]

    def tables(self, pid: int) -> tuple[tuple[int, ...], ...]:
        """The tables of the subalgebra whose pattern has id `pid`."""
        pattern = self.by_id[pid]
        reps = [pattern.index(r) for r in range(max(pattern) + 1)]
        free = self.free
        return tuple(
            tuple([pattern[v] for v in _images(table, arity, reps, free.size)])
            for (_, arity), table in zip(free.signature.symbols, free.tables)
        )


def generate_pool(
    ctx: VarietyContext, max_size: int = 8, depth: int = 2
) -> list[PoolEntry]:
    """Close {generator} under quotients, small generated subalgebras and
    binary products for `depth` rounds, discarding constructions larger than
    max_size.  The generator itself always stays in the pool.  Exact duplicate
    tables are pruned; no isomorphism testing is attempted.  A round expands
    only the members the previous one added, and multiplies only pairs with
    one of them: what older members alone build is already seen.  Nor does
    it build the quotient by the identity or a product with a one-element
    factor, whose tables are those of a member, nor a product of a pair it
    multiplied before.  Constructions are built as bare tables; a name and a
    recipe are formatted only for one that enters the pool.

    A product records the indices of its two factors.  When the generator
    has a median term (`median_term`), every product that enters is recorded
    with its factors through `compose_lattice`, and its lattice is composed
    from theirs.  So is every quotient of a recorded product P = A x B: each
    congruence of P is theta x phi, and P/(theta x phi) has the tables of
    `direct_product(A/theta, B/phi)` (Fraser and Horn, Proc. AMS 26, 1970),
    whose factors are members already.  Such a quotient keeps its
    `quotient(...)` name and recipe, is built as that product and records
    its factors.  Without a median term every quotient is built from its
    classes and each member's lattice is built directly.

    Subalgebras are read off F(2) of the generator (see `_SeedPatterns`):
    a seed whose pattern was offered before is skipped, since it has the
    same tables, and a recorded product's patterns are composed from its
    factors'.  The empty seed is closed in each member.  When F(2) has more
    than SEED_PROGRAM_CAP elements, every seed is closed instead, and the
    pair seed (x, y) is skipped when y is in Sg(x) or x in Sg(y): Sg(x, y)
    is then a singleton's subalgebra, offered already.
    """
    gen = ctx.generator
    composes = median_term(gen) is not None
    patterns = _SeedPatterns.of(gen) if depth else None
    entries = [PoolEntry(gen, "generator")]
    fresh: list[PoolEntry] = []
    seen = {(gen.size, gen.tables): 0}  # (size, tables) -> pool index
    ids: dict[int, list[int]] = {}  # pool index -> `member_ids`
    quotients: dict[int, dict] = {}  # pool index -> {theta rep: pool index}
    multiplied: dict[tuple[int, int], int] = {}  # factors -> pool index
    offered: set[int] = set()  # pattern ids

    def place(size: int, tables: tuple[tuple[int, ...], ...]) -> int | None:
        """The pool index of a construction's tables, or None past max_size.
        New tables take the next index: the caller appends their entry."""
        if size > max_size:
            return None
        return seen.setdefault((size, tables), len(entries) + len(fresh))

    def is_new(index: int | None) -> bool:
        return index == len(entries) + len(fresh)

    def multiply(i: int, j: int, of: FiniteAlgebra | None = None,
                 theta: Congruence | None = None) -> int | None:
        """The pool index of the tables of the product of members i and j,
        offered under the name of `of`/theta when given, else as a product;
        None when it is over max_size."""
        if (i, j) in multiplied:
            return multiplied[i, j]
        a, b = entries[i].algebra, entries[j].algebra
        if a.size * b.size > max_size:
            return None
        if a.size == 1 or b.size == 1:  # the other factor's tables
            multiplied[i, j] = j if a.size == 1 else i
            return multiplied[i, j]
        p = direct_product(a, b)
        index = multiplied[i, j] = place(p.size, p.tables)
        if is_new(index):
            if theta is None:
                recipe = f"product({a.name}, {b.name})"
            else:
                p = FiniteAlgebra._trusted(
                    p.signature, p.size, p.tables, _quotient_name(of, theta))
                recipe = f"quotient({of.name}, {theta})"
            fresh.append(PoolEntry(p, recipe, (i, j)))
            if composes:
                compose_lattice(p, a, b)
        return index

    def offer_quotients(k: int) -> None:
        entry = entries[k]
        a = entry.algebra
        cons = all_congruences(a, a.size)
        found = {cons[-1].rep: k}  # the identity is last
        for theta in cons[:-1]:
            if composes and entry.factors is not None:
                i, j = entry.factors
                m = entries[j].algebra.size
                rep = theta.rep  # theta x phi at a*m + b is theta[a]*m + phi[b]
                index = multiply(quotients[i][tuple([r // m for r in rep[::m]])],
                                 quotients[j][rep[:m]], a, theta)
            else:
                size, tables, _ = _quotient_tables(a, theta)
                index = place(size, tables)
                if is_new(index):
                    q = FiniteAlgebra._trusted(
                        a.signature, size, tables, _quotient_name(a, theta))
                    fresh.append(PoolEntry(q, f"quotient({a.name}, {theta})"))
            found[theta.rep] = index
        if composes:
            quotients[k] = found

    def offer_subalgebra(a: FiniteAlgebra, seed: tuple[int, ...], size: int,
                         tables: tuple[tuple[int, ...], ...]) -> None:
        if is_new(place(size, tables)):
            sub = FiniteAlgebra._trusted(
                a.signature, size, tables, _subalgebra_name(a, seed))
            fresh.append(PoolEntry(sub, f"subalgebra({a.name}, {list(seed)})"))

    def offer_seeds(k: int) -> None:
        a = entries[k].algebra
        n = a.size
        if a.signature.constants:
            offer_subalgebra(a, (), *_subalgebra_tables(a, ())[:2])
        if patterns is None:
            closures: list[set[int]] = []  # closures[x] = Sg(x)
            for s in range(n):
                size, tables, embedding = _subalgebra_tables(a, (s,))
                closures.append(set(embedding))
                offer_subalgebra(a, (s,), size, tables)
            for x, y in itertools.combinations(range(n), 2):
                if y not in closures[x] and x not in closures[y]:
                    offer_subalgebra(a, (x, y), *_subalgebra_tables(a, (x, y))[:2])
            return
        factors = entries[k].factors
        if factors is None:
            member = patterns.member_ids(a)
        else:
            i, j = factors
            member = patterns.product_ids(
                ids[i], entries[i].algebra.size, ids[j], entries[j].algebra.size)
        if 2 * n <= max_size:  # a factor of a later product
            ids[k] = member
        order = member[:: n + 1]  # the singletons, then the pairs in order
        for s in range(n):
            order += member[s * n + s + 1 : s * n + n]
        for pid in dict.fromkeys(order):
            if pid in offered:
                continue
            offered.add(pid)
            size = max(patterns.by_id[pid]) + 1
            if size > max_size:
                continue
            at = order.index(pid)
            seed = (at,) if at < n else next(itertools.islice(
                itertools.combinations(range(n), 2), at - n, None))
            offer_subalgebra(a, seed, size, patterns.tables(pid))

    old = 0  # the members before `old` were expanded
    for _ in range(depth):
        fresh = []
        for k in range(old, len(entries)):
            offer_quotients(k)
            offer_seeds(k)
        for i in range(len(entries)):
            for j in range(old if i < old else 0, len(entries)):
                multiply(i, j)
        if not fresh:
            break
        old = len(entries)
        entries.extend(fresh)
    return entries


class ZeroOneReport(_Record):
    """Sampled check that equal zero/one tuples only happen in trivial algebras.

    A pass is evidence over the pool, not a proof for the whole variety.
    """

    __slots__ = ("entries", "note")

    def __init__(self, entries: tuple[tuple[str, tuple, tuple, bool], ...],
                 note: str = "sampled verification over the pool, not a proof"):
        super().__init__(entries, note)

    @property
    def ok(self) -> bool:
        return all(ok for _, _, _, ok in self.entries)

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(name for name, _, _, ok in self.entries if not ok)


def verify_zero_one_condition(ctx: VarietyContext) -> ZeroOneReport:
    if not ctx.pool:
        raise ValidationError("pool is empty; populate the context first")
    rows = []
    for entry in ctx.pool:
        a = entry.algebra
        zv = ctx.zero_values(a)
        ov = ctx.one_values(a)
        ok = zv != ov or a.size == 1
        rows.append((a.name, zv, ov, ok))
    return ZeroOneReport(tuple(rows))
