"""Variety contexts: a generating algebra, closed zero/one term tuples, and a
pool of members built by closing the generator under quotients, generated
subalgebras and binary products (so membership holds by construction).
"""
from __future__ import annotations

import itertools

from .congruences import (
    _quotient_name,
    _quotient_tables,
    all_congruences,
    median_term,
)
from .core import (
    FiniteAlgebra,
    Signature,
    _PairCells,
    _product_tables,
    _renamed_tables,
    _subalgebra_name,
    _subalgebra_tables,
    direct_product,
    eval_term,
)
from .errors import ResourceBoundError, ValidationError
from .freealg import FreeAlgebra, free_algebra
from .terms import Term, Var, _Record, is_closed

# The pool's default rounds and largest member (--pool-depth, --max-size).
DEFAULT_POOL_DEPTH = 2
DEFAULT_MAX_SIZE = 8


class PoolEntry(_Record):
    """A pool member and how it was built.  A recorded product, one from
    `direct_product`, names its factors in its algebra's `_factors`: two
    earlier members, for a product or, under a median term, a quotient of a
    recorded product, which keeps its quotient name and recipe."""

    __slots__ = ("algebra", "recipe")


class VarietyContext(_Record):
    """A generator, a pool, and closed zero/one term tuples of one length l > 0."""

    __slots__ = ("generator", "zero_terms", "one_terms", "pool")

    def __init__(self, generator: FiniteAlgebra, zero_terms: tuple[Term, ...],
                 one_terms: tuple[Term, ...], pool: tuple[PoolEntry, ...] = ()):
        if not zero_terms or len(one_terms) != len(zero_terms):
            raise ValidationError(
                f"zero/one term tuples must have one positive length, got "
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
        return len(self.zero_terms)

    @property
    def pool_algebras(self) -> tuple[FiniteAlgebra, ...]:
        return tuple(e.algebra for e in self.pool)

    def zero_values(self, algebra: FiniteAlgebra) -> tuple[int, ...]:
        return _closed_values(algebra, self.zero_terms)

    def one_values(self, algebra: FiniteAlgebra) -> tuple[int, ...]:
        return _closed_values(algebra, self.one_terms)

    def populated(self, max_size: int = DEFAULT_MAX_SIZE,
                  depth: int = DEFAULT_POOL_DEPTH) -> "VarietyContext":
        pool = tuple(generate_pool(self, max_size=max_size, depth=depth))
        return VarietyContext._trusted(
            self.generator, self.zero_terms, self.one_terms, pool)


def _closed_values(algebra: FiniteAlgebra, terms: tuple[Term, ...]) -> tuple[int, ...]:
    """The values of closed terms in `algebra`; a product's are composed
    from its factors', x*|B| + y, and it builds no tables."""
    factors = getattr(algebra, "_factors", None)
    if factors is None:
        return tuple(eval_term(algebra, t, {}) for t in terms)
    a, b = factors
    return tuple(x * b.size + y for x, y in zip(_closed_values(a, terms),
                                                 _closed_values(b, terms)))


# F(2) of the generator is read as a seed program only up to this many
# elements; past it `generate_pool` closes every seed in its member.
SEED_PROGRAM_CAP = 64


class _SeedPatterns(_PairCells):
    """The subalgebras generated by at most two elements, read off F(2).

    Sg(s, t) in a member M is the image of F(2) under x -> s, y -> t
    (Burris and Sankappanavar, "A Course in Universal Algebra", II 10-11),
    and (s, s) gives Sg(s).  F(2)'s witnesses are a straight-line program:
    each element is one operation applied to earlier ones, or a generator.
    Running it at (s, t) gives the values of F(2)'s elements in M, and their
    rank pattern (each value replaced by its rank among the distinct ones)
    fixes Sg(s, t)'s tables: F(2)'s tables read through the pattern.  The
    patterns are the interned cells (see `_PairCells`).  A searched member
    runs the program at every pair at once.  In a product A x B the values
    at ((a1, b1), (a2, b2)) are the pairs of A's at (a1, a2) and B's at
    (b1, b2), so `combine` ranks the paired patterns as a*|B| + b ranks
    them.

    The empty seed needs no cell of its own.  Sg(∅) in M is the image of
    F(2)'s closed-term part, Sg_F(2)(∅), whose values do not depend on
    (s, t); so any cell's pattern, read at those elements only, gives its
    tables (`empty_seed`)."""

    __slots__ = ("steps", "free", "closed")

    def __init__(self, generator: FiniteAlgebra, free: FreeAlgebra):
        super().__init__()
        # a witness applies its symbol to earlier witnesses, the same objects
        index = {id(w): i for i, w in enumerate(free.witnesses)}
        # (symbol index, argument elements), or (generator slot, None)
        self.steps = [
            (free.var_names.index(w.name), None) if isinstance(w, Var) else
            (generator.signature.index(w.symbol), [index[id(a)] for a in w.args])
            for w in free.witnesses
        ]
        self.free = free.algebra
        # the elements of Sg_F(2)(∅), those of the closed terms
        self.closed = (_subalgebra_tables(self.free, ())[2]
                       if generator.signature.constants else ())

    @classmethod
    def of(cls, generator: FiniteAlgebra) -> "_SeedPatterns | None":
        """The patterns of `generator`'s variety, or None when its F(2) has
        more than SEED_PROGRAM_CAP elements."""
        try:
            free = free_algebra(generator, 2, SEED_PROGRAM_CAP)
        except ResourceBoundError:
            return None
        return cls(generator, free)

    @staticmethod
    def combine(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return _rank_pattern(list(zip(x, y)))

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
        return [self.intern(_rank_pattern(values)) for values in zip(*cols)]

    def tables(self, pid: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Size and tables of the subalgebra whose pattern has id `pid`."""
        return self._image(pid, range(self.free.size))

    def empty_seed(self, pid: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Size and tables of Sg(∅) in a member with a cell of pattern `pid`."""
        return self._image(pid, self.closed)

    def _image(self, pid: int, elements) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Size and tables of the image, at a cell of pattern `pid`, of the
        subalgebra of F(2) on `elements`."""
        pattern = self.by_id[pid]
        first: dict[int, int] = {}  # value -> an element with it
        for e in elements:
            first.setdefault(pattern[e], e)
        values = sorted(first)
        rank = {v: r for r, v in enumerate(values)}
        # the subalgebra is closed, so a value off `elements` is never read
        return len(values), _renamed_tables(
            self.free, [first[v] for v in values], [rank.get(v) for v in pattern])


def _rank_pattern(values) -> tuple[int, ...]:
    """Each value replaced by its rank among the distinct ones."""
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    return tuple([rank[v] for v in values])


def _atoms(signature: Signature, n: int, tables) -> list[tuple[int, tuple]]:
    """Size and tables of the finest algebras of more than one element whose
    product, taken left to right, has the tables of an algebra of n
    elements; none for a one-element algebra, the empty product.  A split
    into X x Y with |X| = d is read off the tables: X at the elements
    x*|Y| divided by |Y|, Y at the elements below |Y| modulo |Y|; it holds
    when their product has the tables.  An algebra with no such split is
    its own atom."""
    if n == 1:
        return []
    whole = FiniteAlgebra._trusted(signature, n, tables, "")
    for d in range(2, n):
        if n % d:
            continue
        m = n // d
        x, y = [
            FiniteAlgebra._trusted(signature, size,
                                   _renamed_tables(whole, reps, renaming), "")
            for size, reps, renaming in (
                (d, range(0, n, m), [v // m for v in range(n)]),
                (m, range(m), [v % m for v in range(n)]))
        ]
        if _product_tables(x, y) == tables:
            return _atoms(signature, d, x.tables) + _atoms(signature, m, y.tables)
    return [(n, tables)]


def generate_pool(
    ctx: VarietyContext, max_size: int = DEFAULT_MAX_SIZE,
    depth: int = DEFAULT_POOL_DEPTH
) -> list[PoolEntry]:
    """Close {generator} under quotients, small generated subalgebras and
    binary products for `depth` rounds.  The generator itself always stays
    in the pool.  A round expands only the members the previous one added,
    and multiplies only pairs with one of them: what older members alone
    build is already seen.  Nor does it build the quotient by the identity,
    whose tables are the member's, nor the lattice of a product too large to
    keep its quotients when they are all members already.

    Every construction is admitted by `offer` under a key: past max_size it
    is discarded, and with the key of a member it is that member (no
    isomorphism testing is attempted).  Otherwise it enters the pool, and
    only then are its name and recipe formatted.

    Every product of two members is their `direct_product`, which records
    them as its `_factors`.  Under a median term (`median_term`) so is each
    quotient of a recorded product P = A x B other than the generator: the
    identities hold in every member, so each congruence of P is theta x phi,
    and P/(theta x phi) has the tables of `direct_product(A/theta, B/phi)`
    (Fraser and Horn, Proc. AMS 26, 1970), whose factors are members
    already.  Such a quotient is built as that product and keeps its
    `quotient(...)` name and recipe.  Every other quotient is built from
    its classes.

    The seeds are the empty seed, then the singletons, then the pairs in
    order.  They are read off F(2) of the generator (see `_SeedPatterns`): a
    seed whose pattern was offered before is skipped, since it has the same
    tables, and a recorded product's patterns are composed from its
    factors'.  When F(2) has more than SEED_PROGRAM_CAP elements, every seed
    is closed in its member instead, reading the member's tables, and the
    pair seed (x, y) is skipped when y is in Sg(x) or x in Sg(y): Sg(x, y)
    is then a singleton's subalgebra, offered already.

    Without a median term, as for rings_z6, the key is a construction's
    tables; a product's are built once, for its key.  Under one it is the
    ids of its atoms, the finest algebras of more than one element whose
    product, left to right, has its tables (`_atoms`; a one-element algebra
    has none, so C x 1 has C's key).  A product of members is keyed by
    their keys joined and builds no tables; any other construction's atoms
    are read off its tables.  The key is exact:
    - Equal atoms give equal tables.  Write E(s) for the tables of the
      product of the sequence s, left to right, and E(()) for those of the
      one-element algebra.  Then E(s) x E(t) has the tables of E(s + t), as
      (a*|B| + b)*|C| + c = a*|B||C| + b*|C| + c and a*1 + 0 = a, so a
      recorded product's key is the atoms of its tables too.
    - Different atoms give different tables.  Let E(a, R) = E(b, R') on N
      elements, where a and b are atoms with |a| < |b| and R, R' are
      sequences of atoms.  The kernel eta of the projection onto a (blocks
      of N/|a| consecutive elements) is a congruence of b x E(R'), so by
      Fraser and Horn eta = alpha x beta.  The row of b's element 0, the
      first N/|b| elements, lies in one eta-block, so beta is total and
      eta's blocks are whole rows: |a| divides |b|.  The kernel of the
      projection onto E(R) likewise gives b the congruence x = x' modulo
      |b|/|a|.  The two congruences of b meet in the identity and have
      |a| * (|b|/|a|) = |b| classes, so b splits as a x Y with
      |Y| = |b|/|a| > 1, against b being an atom.  So |a| = |b|; then
      a = b (the quotient by eta) and E(R) = E(R') (read off the first
      block), and by induction the two sequences are equal, since an atom
      has more than one element and only the empty sequence has one.
    """
    gen = ctx.generator
    composes = median_term(gen) is not None
    patterns = _SeedPatterns.of(gen) if depth else None
    entries = [PoolEntry(gen, "generator")]
    fresh: list[PoolEntry] = []
    # under a median term, (size, tables) -> its atoms' ids, and atom -> id
    table_keys, atom_ids = {}, {}

    def table_key(size: int, tables) -> tuple:
        if not composes:
            return size, tables
        found = table_keys.get((size, tables))
        if found is None:
            found = table_keys[size, tables] = tuple([
                atom_ids.setdefault(atom, len(atom_ids))
                for atom in _atoms(gen.signature, size, tables)])
        return found

    keys = [table_key(gen.size, gen.tables)]  # pool index -> key
    seen = {keys[0]: 0}  # key -> pool index
    # id(member) -> `member_ids`, and {theta rep: pool index of the quotient},
    # of each member small enough to be a factor of a later product
    ids: dict[int, list[int]] = {}
    quotients: dict[int, dict] = {}
    offered: set[int] = set()  # pattern ids

    def offer(size: int, tables, name, recipe,
              factors: tuple[int, int] | None = None) -> int | None:
        """The pool index of a construction's key; None past max_size.  A
        new key enters as a member named name(), built by recipe(): from the
        tables, or as the `direct_product` of the members `factors`, keyed by
        their keys under a median term, else by its tables, built here once."""
        if size > max_size:
            return None
        product = lambda: direct_product(*(entries[f].algebra for f in factors), name())
        member = None
        if factors is None:
            key = table_key(size, tables)
        elif composes:
            key = keys[factors[0]] + keys[factors[1]]
        else:
            member = product()
            key = size, member.tables
        index = seen.setdefault(key, len(keys))
        if index == len(keys):
            keys.append(key)
            if member is None:
                member = (product() if factors else FiniteAlgebra._trusted(
                    gen.signature, size, tables, name()))
            fresh.append(PoolEntry(member, recipe()))
        return index

    def multiply(i: int, j: int, name=None, recipe=None) -> int | None:
        """The pool index of the product of members i and j, offered as a
        product unless a name and a recipe are given; None past max_size."""
        a, b = entries[i].algebra, entries[j].algebra
        return offer(a.size * b.size, None, name or (lambda: f"{a.name}x{b.name}"),
                     recipe or (lambda: f"product({a.name}, {b.name})"), (i, j))

    def offer_quotients(k: int) -> None:
        a = entries[k].algebra
        # the generator's factors, if any, are not members
        factors = getattr(a, "_factors", None) if composes and k else None
        if factors is not None:
            left, right = (quotients[id(f)] for f in factors)
            m = factors[1].size
            # with no map to keep and the product of every factor quotient
            # pair a member (the factors' maps hold committed indices), k
            # offers nothing
            if 2 * a.size > max_size and all(
                    keys[x] + keys[y] in seen
                    for x in left.values() for y in right.values()):
                return
        cons = all_congruences(a)
        found = {cons[-1].rep: k}  # the identity is last
        for theta in cons[:-1]:
            rep = theta.rep
            name = lambda: _quotient_name(a, theta)
            recipe = lambda: f"quotient({a.name}, {theta})"
            if factors is not None:
                # theta x phi at a*m + b is theta[a]*m + phi[b]
                found[rep] = multiply(left[tuple([r // m for r in rep[::m]])],
                                      right[rep[:m]], name, recipe)
            else:
                found[rep] = offer(*_quotient_tables(a, theta)[:2], name, recipe)
        if 2 * a.size <= max_size:
            quotients[id(a)] = found

    def offer_seeds(k: int) -> None:
        a = entries[k].algebra
        n = a.size

        def subalgebra(seed: tuple[int, ...], size: int, tables) -> None:
            offer(size, tables, lambda: _subalgebra_name(a, seed),
                  lambda: f"subalgebra({a.name}, {list(seed)})")

        # the singletons, then the pairs in order
        seeds = itertools.chain(itertools.combinations(range(n), 1),
                                itertools.combinations(range(n), 2))
        if patterns is None:
            if a.signature.constants:
                subalgebra((), *_subalgebra_tables(a, ())[:2])
            closures: list[set[int]] = []  # closures[x] = Sg(x)
            for seed in seeds:
                if len(seed) == 2:
                    x, y = seed
                    if y in closures[x] or x in closures[y]:
                        continue
                size, tables, embedding = _subalgebra_tables(a, seed)
                if len(seed) == 1:
                    closures.append(set(embedding))
                subalgebra(seed, size, tables)
            return
        factors = getattr(a, "_factors", None) if k else None  # as for quotients
        if factors is None:
            member = patterns.member_ids(a)
        else:
            left, right = factors
            member = patterns.product(ids[id(left)], left.size,
                                      ids[id(right)], right.size)
        if 2 * n <= max_size:
            ids[id(a)] = member
        if a.signature.constants:
            subalgebra((), *patterns.empty_seed(member[0]))
        # most members have no new pattern at a seed (s, t), t >= s: row s
        # of `member` from (s, s) on
        if offered.issuperset(itertools.chain.from_iterable(
                member[s * n + s : s * n + n] for s in range(n))):
            return
        for seed in seeds:
            pid = member[seed[0] * n + seed[-1]]  # a singleton's at (s, s)
            if pid not in offered:
                offered.add(pid)
                subalgebra(seed, *patterns.tables(pid))

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

    __slots__ = ("entries",)
    note = "sampled verification over the pool, not a proof"

    @property
    def ok(self) -> bool:
        return all(ok for _, _, _, ok in self.entries)


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
