"""Finite algebras over a shared signature: dense operation tables, term
evaluation, direct products and generated subalgebras.

Universe elements are plain ints 0..n-1.  Operation tables are flat row-major
tuples: for arity k the entry for arguments (a1, .., ak) sits at index
a1*n^(k-1) + a2*n^(k-2) + .. + ak.  All values are immutable after
construction and every operation here is a pure function, so callers may
evaluate across algebras and assignments concurrently.  A product's tables,
like an algebra's congruence lattice, are filled in once, on first read; two
readers at once build equal values.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .errors import EvalError, ValidationError
from .terms import Term, Var, _Record


class Signature(_Record):
    """Ordered operation symbols (name, arity); the tuple length l is the context's."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: tuple[tuple[str, int], ...]):
        names = [name for name, _ in symbols]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate symbol names in signature: {names}")
        for name, arity in symbols:
            if not name:
                raise ValidationError("empty symbol name")
            if arity < 0:
                raise ValidationError(f"negative arity for symbol '{name}'")
        super().__init__(symbols)
        object.__setattr__(self, "_index", {s: i for i, (s, _) in enumerate(symbols)})

    def arity(self, symbol: str) -> int:
        return self.symbols[self.index(symbol)][1]

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise EvalError(f"unknown symbol '{symbol}'") from None

    def has(self, symbol: str) -> bool:
        return symbol in self._index

    @property
    def constants(self) -> tuple[str, ...]:
        return tuple(name for name, k in self.symbols if k == 0)


def _capped_power(n: int, k: int, cap: int) -> int:
    """n**k, or the first partial power of n past `cap` when n**k is over
    it.  The power is multiplied up only that far, so a huge exponent costs a
    few steps and no huge integer."""
    power = 1
    for _ in range(k if n > 1 else 0):
        power *= n
        if power > cap:
            break
    return power


class FiniteAlgebra(_Record):
    """Universe {0..size-1} with one flat row-major table per symbol.

    The constructor validates; algebras built from valid ones (products,
    subalgebras, quotients, free algebras) are valid by construction and
    skip it through `_trusted`.  A product from `direct_product` holds its
    name and, in `_factors`, its two factors, and builds its tables on the
    first read of `tables` (see `__getattr__`).  The slots `_lattice`,
    `_translations` and `_majority` keep what `congruences` computes of it.

    Equality is value equality, and reads the tables unless both sides are
    one object.  The hash reads only (signature, size, name), so hashing a
    record that holds a product (a `Congruence`, a `FactorPair`, a
    `CentralElement`) builds none of its tables."""

    __slots__ = ("signature", "size", "tables", "name", "_factors", "_lattice",
                 "_translations", "_majority")

    def __init__(self, signature: Signature, size: int,
                 tables: tuple[tuple[int, ...], ...], name: str = "A"):
        n = size
        if n < 1:
            raise ValidationError(f"algebra '{name}': size must be positive")
        if len(tables) != len(signature.symbols):
            raise ValidationError(
                f"algebra '{name}': {len(tables)} tables for "
                f"{len(signature.symbols)} symbols"
            )
        for (sym, arity), table in zip(signature.symbols, tables):
            # n**arity is formed only up to the table's length, so a huge
            # arity or size is refused without building the power
            if _capped_power(n, arity, len(table)) != len(table):
                raise ValidationError(
                    f"algebra '{name}': table for '{sym}' has length "
                    f"{len(table)}, expected {n}**{arity}"
                )
            for idx, v in enumerate(table):
                if not 0 <= v < n:
                    raise ValidationError(
                        f"algebra '{name}': entry {v} out of range at index "
                        f"{idx} in table for '{sym}'"
                    )
        super().__init__(signature, size, tables, name)

    def __getattr__(self, attr: str):
        # called only for an unset slot: the tables of a product from
        # `direct_product`, built here once; any other unset slot is absent
        if attr != "tables":
            raise AttributeError(attr)
        tables = _product_tables(*self._factors)
        object.__setattr__(self, "tables", tables)
        return tables

    def __hash__(self) -> int:
        return hash((self.signature, self.size, self.name))

    def table(self, symbol: str) -> tuple[int, ...]:
        return self.tables[self.signature.index(symbol)]

    def apply(self, symbol: str, args: Sequence[int] = ()) -> int:
        arity = self.signature.arity(symbol)
        if len(args) != arity:
            raise EvalError(
                f"arity mismatch: '{symbol}' takes {arity} arguments, got {len(args)}"
            )
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.tables[self.signature.index(symbol)][idx]

    def elements(self) -> range:
        return range(self.size)


def eval_term(algebra: FiniteAlgebra, t: Term, env: Mapping[str, int]) -> int:
    """Evaluate a term by structural recursion through the tables."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable '{t.name}'") from None
    args = [eval_term(algebra, a, env) for a in t.args]
    return algebra.apply(t.symbol, args)


# -- direct products ---------------------------------------------------------
#
# Pair encoding is fixed as index = a*|B| + b; every decomposition and report
# in the package is stated against this encoding.


def pair_index(a: int, b: int, b_size: int) -> int:
    return a * b_size + b


def pair_split(p: int, b_size: int) -> tuple[int, int]:
    return p // b_size, p % b_size


class _PairCells:
    """Values at the cells (s, t) of members, interned and laid out at
    s*|M| + t.  A subclass finds a searched member's values and defines
    `combine(x, y)`: the value at a cell of A x B from A's value x and B's
    value y at its coordinates.  A product's cells are composed from its
    factors', once per pair of ids."""

    __slots__ = ("by_id", "_ids", "_pairs")

    def __init__(self):
        self.by_id: list = []  # id -> value
        self._ids: dict = {}  # value -> id
        self._pairs: dict = {}  # (id in A, id in B) -> id in A x B

    def intern(self, value) -> int:
        found = self._ids.get(value)
        if found is None:
            found = self._ids[value] = len(self.by_id)
            self.by_id.append(value)
        return found

    def pair(self, x: int, y: int) -> int:
        found = self._pairs.get((x, y))
        if found is None:
            found = self._pairs[x, y] = self.intern(
                self.combine(self.by_id[x], self.by_id[y]))
        return found

    def product(self, cells_a: list, na: int, cells_b: list, nb: int) -> list[int]:
        """The cells of A x B: (s1, s2) is s1*|B| + s2, so row (s1, s2)
        runs over t1, then t2."""
        pairs = self._pairs
        for x, y in {(x, y) for x in set(cells_a) for y in set(cells_b)} - pairs.keys():
            self.pair(x, y)
        rows_b = [cells_b[s : s + nb] for s in range(0, nb * nb, nb)]
        return [pairs[x, y] for s in range(0, na * na, na) for row_b in rows_b
                for x in cells_a[s : s + na] for y in row_b]


def direct_product(
    a: FiniteAlgebra, b: FiniteAlgebra, name: str | None = None
) -> FiniteAlgebra:
    """Coordinatewise product on universe {0..|A|*|B|-1}, index = a*|B| + b.

    The product holds its name and its factors; its tables are built by
    `_product_tables` on the first read of `tables`, so a caller that reads
    only its size, name or factors builds none.
    """
    if a.signature != b.signature:
        raise ValidationError(
            f"signature mismatch between '{a.name}' and '{b.name}'"
        )
    product = object.__new__(FiniteAlgebra)
    for field, value in (("signature", a.signature), ("size", a.size * b.size),
                         ("name", name or f"{a.name}x{b.name}"),
                         ("_factors", (a, b))):
        object.__setattr__(product, field, value)
    return product


def _product_tables(
    a: FiniteAlgebra, b: FiniteAlgebra
) -> tuple[tuple[int, ...], ...]:
    """The tables of A x B.  A binary table is built in one pass: the row of
    (a1, b1) is A's row of a1, scaled by |B|, plus B's row of b1, in
    argument order.  Other arities read each coordinate's table through
    `_images`."""
    na, nb = a.size, b.size
    n = na * nb
    # argument tuples over the product, read through each coordinate
    left = [p // nb for p in range(n)]
    right = [p % nb for p in range(n)]
    tables = []
    for (_, arity), ta, tb in zip(a.signature.symbols, a.tables, b.tables):
        if arity == 2:
            scaled = [[x * nb for x in ta[i : i + na]] for i in range(0, na * na, na)]
            rows = [tb[i : i + nb] for i in range(0, nb * nb, nb)]
            tables.append(tuple([
                x + y for row_a in scaled for row_b in rows
                for x in row_a for y in row_b
            ]))
            continue
        xs = _images(ta, arity, left, na)
        ys = _images(tb, arity, right, nb)
        tables.append(tuple([x * nb + y for x, y in zip(xs, ys)]))
    return tuple(tables)


# -- subalgebras -------------------------------------------------------------


def _images(
    table: tuple[int, ...], arity: int, elements: Sequence[int], n: int
) -> list[int]:
    """Entries of a flat table at every argument tuple over `elements`, in
    lexicographic order of the tuples."""
    if arity == 1:
        return [table[a] for a in elements]
    if arity == 2:  # the common case, unrolled
        return [table[a * n + b] for a in elements for b in elements]
    out = []
    for args in itertools.product(elements, repeat=arity):
        i = 0
        for a in args:
            i = i * n + a
        out.append(table[i])
    return out


def _renamed_tables(algebra: FiniteAlgebra, elements: Sequence[int],
                    renaming: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """`algebra`'s tables at every argument tuple over `elements`, each value
    v read as renaming[v]: those of the quotient or subalgebra whose
    elements `elements` stand for, in order."""
    n, symbols = algebra.size, algebra.signature.symbols
    return tuple(tuple([renaming[v] for v in _images(table, arity, elements, n)])
                 for (_, arity), table in zip(symbols, algebra.tables))


def subalgebra_generated(
    algebra: FiniteAlgebra, seed: Iterable[int]
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Least subuniverse containing `seed` and all constants, re-indexed.

    Returns (sub, embedding) where embedding[i] is the element of `algebra`
    that sub-element i stands for.
    """
    elements = set(seed)
    for e in elements:
        if not 0 <= e < algebra.size:
            raise ValidationError(f"seed element {e} outside universe")
    size, tables, embedding = _subalgebra_tables(algebra, elements)
    sub = FiniteAlgebra._trusted(
        algebra.signature, size, tables, _subalgebra_name(algebra, seed)
    )
    return sub, embedding


def _subalgebra_tables(
    algebra: FiniteAlgebra, seed: Iterable[int]
) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Size, operation tables and embedding of the subalgebra generated by a
    seed inside the universe: `subalgebra_generated` without the name."""
    current: set[int] = set(seed)
    n = algebra.size
    ops = []  # the other operations; a constant is in every subuniverse
    for (_, arity), table in zip(algebra.signature.symbols, algebra.tables):
        if arity:
            ops.append((table, arity))
        else:
            current.add(table[0])
    if not current:
        raise ValidationError(
            "empty subuniverse: no constants in signature and empty seed"
        )
    while True:  # the pass that adds nothing reads the subalgebra's tables
        embedding = sorted(current)
        images = [_images(table, arity, embedding, n) for table, arity in ops]
        size = len(current)
        for values in images:
            current.update(values)
        if len(current) == size:
            break
    back = {old: new for new, old in enumerate(embedding)}
    values = iter(images)  # the images of `ops`, in symbol order
    tables = tuple(
        tuple([back[v] for v in next(values)]) if arity else (back[table[0]],)
        for (_, arity), table in zip(algebra.signature.symbols, algebra.tables)
    )
    return len(embedding), tables, tuple(embedding)


def _subalgebra_name(algebra: FiniteAlgebra, seed: Iterable[int]) -> str:
    return f"{algebra.name}|{sorted(seed)}"
