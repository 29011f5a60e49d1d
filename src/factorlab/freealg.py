"""Finitely generated free algebras of the variety generated by one finite
algebra, realized inside the direct power base^(base^rank).

Each carrier element is the pointwise-evaluation vector of some term in the
generators, indexed by all rank-tuples of base elements in lexicographic
order.  Elements separated by no evaluation are equal, which is exactly
freeness relative to the variety the base generates.  The closure keeps one
witness term per element: the first one discovered breadth-first by term
depth, with ties broken by signature order, so witnesses are minimal and
deterministic.

The carrier lies inside the whole power base^(n^rank), so once it has
n**(n**rank) elements nothing new can appear and the closure stops, even in
the middle of a row.  For a primal base, such as the two-element Boolean
algebra or the ring Z2, every rank reaches the whole power; then the stop
skips most of the last round.

Operations are applied one row at a time.  A row fixes an operation f and
its first arity-1 arguments, the prefix, and yields f(prefix, v) for a range
of last arguments v.  While the base has at most 256 elements each carrier
vector is held as bytes, one byte per point, and also as the little-endian
int of those bytes.  For an operation with n**arity <= 256 the row kernel
folds the prefix into one int once per row; its byte at each point is the
table index up to the last argument.  Each v then costs one add, one
`to_bytes` and one `bytes.translate` through the operation's table padded to
256 bytes.  An operation with n**arity > 256 takes a per-point loop instead.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable
from typing import TYPE_CHECKING

from .core import FiniteAlgebra, _capped_power, pair_index, pair_split
from .errors import InternalCheckError, ResourceBoundError, ValidationError
from .terms import App, Term, Var, _Record

if TYPE_CHECKING:  # `variety` builds its pools' seeds from `free_algebra`
    from .variety import VarietyContext

DEFAULT_BUDGET = 100_000
# Cap on carrier size x n**rank: the cells of all carrier vectors together.
MAX_VECTOR_CELLS = 10_000_000


class FreeAlgebra(_Record):
    """The carrier as vectors and witness terms.  The carrier algebra's
    operation tables are built by `build_algebra` on the first read of
    `algebra`; neither takes part in equality or the repr."""

    __slots__ = ("base", "rank", "var_names", "vectors", "witnesses", "generators",
                 "_build_algebra", "_algebra")

    def __init__(self, base: FiniteAlgebra, rank: int, var_names: tuple[str, ...],
                 build_algebra: Callable[[], FiniteAlgebra],
                 vectors: tuple[tuple[int, ...], ...], witnesses: tuple[Term, ...],
                 generators: tuple[int, ...]):
        super().__init__(base, rank, var_names, vectors, witnesses, generators)
        object.__setattr__(self, "_build_algebra", build_algebra)

    @property
    def algebra(self) -> FiniteAlgebra:
        if not hasattr(self, "_algebra"):
            object.__setattr__(self, "_algebra", self._build_algebra())
        return self._algebra

    @property
    def size(self) -> int:
        return len(self.vectors)


def _default_var_names(rank: int) -> tuple[str, ...]:
    if rank == 1:
        return ("x",)
    if rank == 2:
        return ("x", "y")
    return tuple(f"x{i + 1}" for i in range(rank))


def _grid_points(base: FiniteAlgebra, rank: int) -> int:
    """n**rank, once the rank generator vectors are known to fit under
    MAX_VECTOR_CELLS."""
    # rank * points > MAX_VECTOR_CELLS exactly when points > the cap below
    points = _capped_power(base.size, rank, MAX_VECTOR_CELLS // max(rank, 1))
    if rank * points > MAX_VECTOR_CELLS:
        raise ResourceBoundError(
            f"free_algebra: the {rank} generator vectors over '{base.name}' "
            f"need at least {rank * points} vector cells, over the cap "
            f"{MAX_VECTOR_CELLS}; lower the rank"
        )
    return points


def _row_kernel(
    table: tuple[int, ...], arity: int, n: int, n_points: int,
    keys: list, codes: list[int],
) -> Callable[[tuple[int, ...], int, int], list]:
    """row(prefix, lo, hi): the carrier keys of f(prefix, v) for lo <= v < hi,
    where f has flat table `table`.  `keys` and `codes` are the growing
    carrier, read at call time."""
    if n**arity <= 256:
        padded = bytes(table).ljust(256, b"\0")

        def row(prefix, lo, hi):
            c = 0
            for a in prefix:  # no carry: every byte stays below n**arity
                c = (c + codes[a]) * n
            return [
                (c + v).to_bytes(n_points, "little").translate(padded)
                for v in codes[lo:hi]
            ]

        return row
    pack = bytes if n <= 256 else tuple

    def row(prefix, lo, hi):
        cols = [keys[a] for a in prefix]
        out = []
        for v in range(lo, hi):
            vec = []
            for col in zip(*cols, keys[v]):
                i = 0
                for a in col:
                    i = i * n + a
                vec.append(table[i])
            out.append(pack(vec))
        return out

    return row


def free_algebra(
    base: FiniteAlgebra, rank: int, budget: int = DEFAULT_BUDGET
) -> FreeAlgebra:
    """Closure of the rank projection vectors (plus constants) under all
    operations, computed pointwise over the index space base^rank.

    Each round applies every operation to the argument tuples that use at
    least one element new in the previous round, in lexicographic order, one
    row kernel call per prefix (see the module docstring: one
    `bytes.translate` per result when n**arity <= 256, else a per-point
    loop).  The closure stops as soon as the carrier is the whole power
    base^(n^rank), checked before the first round and after each new vector:
    nothing later could add an element or change a witness.  The carrier
    tables are built by the same kernel, a row at a time, on the first read
    of `FreeAlgebra.algebra`.

    Raises ResourceBoundError, reporting the partial carrier size, as soon as
    the closure exceeds the budget or carrier size x n**rank exceeds
    MAX_VECTOR_CELLS; the rank generators are checked against that cap
    before the point grid is built.
    """
    if rank < 0:
        raise ValidationError("rank must be nonnegative")
    n_points = _grid_points(base, rank)
    names = _default_var_names(rank)
    n = base.size
    points = list(itertools.product(range(n), repeat=rank))
    if rank == 0 and not base.signature.constants:
        raise ValidationError("rank 0 needs at least one constant symbol")

    # a carrier vector is keyed as bytes, or as a tuple when n > 256; codes
    # holds the same vectors as ints for the byte kernel
    pack = bytes if n <= 256 else tuple
    index: dict = {}
    keys: list = []
    codes: list[int] = []
    witnesses: list[Term] = []

    def add(key, term: Term) -> int:
        found = index.get(key)
        if found is not None:
            return found
        if len(keys) >= budget:
            raise ResourceBoundError(
                f"free algebra closure over '{base.name}' exceeded budget "
                f"{budget} (partial carrier size {len(keys)}); "
                f"shrink the base algebra or raise the budget"
            )
        if (len(keys) + 1) * n_points > MAX_VECTOR_CELLS:
            raise ResourceBoundError(
                f"free_algebra: {len(keys) + 1} carrier vectors over "
                f"'{base.name}' need {(len(keys) + 1) * n_points} vector "
                f"cells, over the cap {MAX_VECTOR_CELLS} (partial carrier "
                f"size {len(keys)}); lower the rank or shrink the base algebra"
            )
        i = len(keys)
        index[key] = i
        keys.append(key)
        if n <= 256:
            codes.append(int.from_bytes(key, "little"))
        witnesses.append(term)
        return i

    generators = tuple(
        add(pack([pt[j] for pt in points]), Var(names[j])) for j in range(rank)
    )
    constants = {
        sym: add(pack([base.apply(sym)] * n_points), App(sym, ()))
        for sym, arity in base.signature.symbols
        if arity == 0
    }
    ops = [(sym, arity) for sym, arity in base.signature.symbols if arity > 0]
    rows = {
        sym: _row_kernel(base.table(sym), arity, n, n_points, keys, codes)
        for sym, arity in ops
    }

    # the size of the whole power; past MAX_VECTOR_CELLS the cell cap stops
    # the carrier before it could reach that size
    full = _capped_power(n, n_points, MAX_VECTOR_CELLS)

    def close() -> None:
        prev = 0
        while len(keys) > prev:
            snapshot = len(keys)
            for sym, arity in ops:
                row = rows[sym]
                for prefix in itertools.product(range(snapshot), repeat=arity - 1):
                    # tuples whose arguments all predate the last round were
                    # applied in an earlier round
                    lo = prev if max(prefix, default=-1) < prev else 0
                    for v, key in enumerate(row(prefix, lo, snapshot), lo):
                        if key not in index:
                            args = (*prefix, v)
                            add(key, App(sym, tuple(witnesses[a] for a in args)))
                            if len(keys) == full:  # the whole power
                                return
            prev = snapshot

    if len(keys) != full:
        close()

    def carrier() -> FiniteAlgebra:
        size = len(keys)
        tables = []
        for sym, arity in base.signature.symbols:
            if arity == 0:
                tables.append((constants[sym],))
                continue
            row = rows[sym]
            table: list[int] = []
            try:
                for prefix in itertools.product(range(size), repeat=arity - 1):
                    table += [index[key] for key in row(prefix, 0, size)]
            except KeyError:
                raise InternalCheckError(
                    "carrier is not closed under operations"
                ) from None
            tables.append(tuple(table))
        name = f"F{rank}({base.name})"
        return FiniteAlgebra._trusted(base.signature, size, tuple(tables), name)

    vectors = tuple(tuple(key) for key in keys)
    return FreeAlgebra(
        base, rank, names, carrier, vectors, tuple(witnesses), generators
    )


class FreePairContext(_Record):
    """The rank-1 and rank-2 free algebras with the distinguished elements
    x -> (x, x), y -> (x, y), z_i -> (zero_i, one_i) of their direct product,
    as product indices u * |F2| + v.  The product itself is never built."""

    __slots__ = ("f1", "f2", "x", "y", "z")

    def split(self, p: int) -> tuple[int, int]:
        return pair_split(p, self.f2.size)


def free_pair_context(
    ctx: VarietyContext, budget: int = DEFAULT_BUDGET
) -> FreePairContext:
    f1 = free_algebra(ctx.generator, 1, budget)
    f2 = free_algebra(ctx.generator, 2, budget)
    x = pair_index(f1.generators[0], f2.generators[0], f2.size)
    y = pair_index(f1.generators[0], f2.generators[1], f2.size)
    z = tuple(
        pair_index(zero, one, f2.size)
        for zero, one in zip(ctx.zero_values(f1.algebra), ctx.one_values(f2.algebra))
    )
    return FreePairContext(f1, f2, x, y, z)
