"""Finite algebras over a shared signature: dense operation tables, term
evaluation, direct products and generated subalgebras.

Universe elements are plain ints 0..n-1.  Operation tables are flat row-major
tuples: for arity k the entry for arguments (a1, .., ak) sits at index
a1*n^(k-1) + a2*n^(k-2) + .. + ak.  All values are immutable after
construction and every operation here is a pure function, so callers may
evaluate across algebras and assignments concurrently.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .errors import EvalError, ValidationError
from .terms import Term, Var, _Record


class Signature(_Record):
    """Ordered operation symbols (name, arity) plus the 0/1 tuple length l."""

    __slots__ = ("symbols", "l", "_index")

    def __init__(self, symbols: tuple[tuple[str, int], ...], l: int = 1):
        names = [name for name, _ in symbols]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate symbol names in signature: {names}")
        for name, arity in symbols:
            if not name:
                raise ValidationError("empty symbol name")
            if arity < 0:
                raise ValidationError(f"negative arity for symbol '{name}'")
        if l < 1:
            raise ValidationError("tuple length l must be positive")
        super().__init__(symbols, l)
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


class FiniteAlgebra(_Record):
    """Universe {0..size-1} with one flat row-major table per symbol.

    The constructor validates; algebras built from valid ones (products,
    subalgebras, quotients, free algebras) are valid by construction and
    skip it through `_trusted`."""

    __slots__ = ("signature", "size", "tables", "name", "__weakref__")

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
            expected = n**arity
            if len(table) != expected:
                raise ValidationError(
                    f"algebra '{name}': table for '{sym}' has length "
                    f"{len(table)}, expected {expected}"
                )
            for idx, v in enumerate(table):
                if not 0 <= v < n:
                    raise ValidationError(
                        f"algebra '{name}': entry {v} out of range at index "
                        f"{idx} in table for '{sym}'"
                    )
        super().__init__(signature, size, tables, name)

    @classmethod
    def from_ops(
        cls,
        signature: Signature,
        size: int,
        ops: Mapping[str, Iterable[int]],
        name: str = "A",
    ) -> "FiniteAlgebra":
        missing = [s for s, _ in signature.symbols if s not in ops]
        if missing:
            raise ValidationError(f"algebra '{name}': missing tables for {missing}")
        tables = tuple(tuple(ops[s]) for s, _ in signature.symbols)
        return cls(signature, size, tables, name)

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


def direct_product(
    a: FiniteAlgebra, b: FiniteAlgebra, name: str | None = None
) -> FiniteAlgebra:
    """Coordinatewise product on universe {0..|A|*|B|-1}, index = a*|B| + b."""
    if a.signature != b.signature:
        raise ValidationError(
            f"signature mismatch between '{a.name}' and '{b.name}'"
        )
    nb = b.size
    n = a.size * nb
    # argument tuples over the product, read through each coordinate
    left = [p // nb for p in range(n)]
    right = [p % nb for p in range(n)]
    tables = []
    for (_, arity), ta, tb in zip(a.signature.symbols, a.tables, b.tables):
        xs = _images(ta, arity, left, a.size)
        ys = _images(tb, arity, right, nb)
        tables.append(tuple([x * nb + y for x, y in zip(xs, ys)]))
    name = name or f"{a.name}x{b.name}"
    return FiniteAlgebra._trusted(a.signature, n, tuple(tables), name)


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


def subalgebra_generated(
    algebra: FiniteAlgebra, seed: Iterable[int]
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Least subuniverse containing `seed` and all constants, re-indexed.

    Returns (sub, embedding) where embedding[i] is the element of `algebra`
    that sub-element i stands for.
    """
    current: set[int] = set(seed)
    for e in current:
        if not 0 <= e < algebra.size:
            raise ValidationError(f"seed element {e} outside universe")
    n = algebra.size
    ops = [
        (table, arity)
        for (_, arity), table in zip(algebra.signature.symbols, algebra.tables)
    ]
    for table, arity in ops:
        if arity == 0:
            current.add(table[0])
    if not current:
        raise ValidationError(
            "empty subuniverse: no constants in signature and empty seed"
        )
    while True:  # the pass that adds nothing reads the subalgebra's tables
        embedding = tuple(sorted(current))
        images = [_images(table, arity, embedding, n) for table, arity in ops]
        size = len(current)
        for values in images:
            current.update(values)
        if len(current) == size:
            break
    back = {old: new for new, old in enumerate(embedding)}
    tables = tuple(tuple([back[v] for v in values]) for values in images)
    sub = FiniteAlgebra._trusted(
        algebra.signature, len(embedding), tables, f"{algebra.name}|{sorted(seed)}"
    )
    return sub, embedding
