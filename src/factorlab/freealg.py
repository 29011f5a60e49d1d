"""Finitely generated free algebras of the variety generated by one finite
algebra, realized inside the direct power base^(base^rank).

Each carrier element is the pointwise-evaluation vector of some term in the
generators, indexed by all rank-tuples of base elements in lexicographic
order.  Elements separated by no evaluation are equal, which is exactly
freeness relative to the variety the base generates.  The closure keeps one
witness term per element: the first one discovered breadth-first by term
depth, with ties broken by signature order, so witnesses are minimal and
deterministic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import FiniteAlgebra, direct_product, pair_index, pair_split
from .errors import InternalCheckError, ResourceBoundError, ValidationError
from .terms import App, Term, Var
from .variety import VarietyContext

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class FreeAlgebra:
    base: FiniteAlgebra
    rank: int
    var_names: tuple[str, ...]
    algebra: FiniteAlgebra
    vectors: tuple[tuple[int, ...], ...]
    witnesses: tuple[Term, ...]
    generators: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.algebra.size

    def element_term(self, e: int) -> Term:
        """Minimal-depth witness term for carrier element e."""
        if not 0 <= e < self.size:
            raise ValidationError(f"element {e} outside carrier of size {self.size}")
        return self.witnesses[e]


def _default_var_names(rank: int) -> tuple[str, ...]:
    if rank == 1:
        return ("x",)
    if rank == 2:
        return ("x", "y")
    return tuple(f"x{i + 1}" for i in range(rank))


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


def free_algebra(
    base: FiniteAlgebra,
    rank: int,
    var_names: tuple[str, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> FreeAlgebra:
    """Closure of the rank projection vectors (plus constants) under all
    operations, computed pointwise over the index space base^rank.

    Raises ResourceBoundError, reporting the partial carrier size, as soon as
    the closure exceeds the budget.
    """
    if rank < 0:
        raise ValidationError("rank must be nonnegative")
    names = var_names if var_names is not None else _default_var_names(rank)
    if len(names) != rank:
        raise ValidationError(f"{len(names)} variable names for rank {rank}")
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
        base, rank, names, carrier, tuple(vectors), tuple(witnesses), generators
    )


@dataclass(frozen=True)
class FreePairContext:
    """The rank-1 and rank-2 free algebras with their direct product and the
    distinguished elements x -> (x, x), y -> (x, y), z_i -> (zero_i, one_i)."""

    f1: FreeAlgebra
    f2: FreeAlgebra
    product: FiniteAlgebra
    x: int
    y: int
    z: tuple[int, ...]

    @property
    def b_size(self) -> int:
        return self.f2.size

    def split(self, p: int) -> tuple[int, int]:
        return pair_split(p, self.b_size)


def free_pair_context(
    ctx: VarietyContext, budget: int = DEFAULT_BUDGET
) -> FreePairContext:
    f1 = free_algebra(ctx.generator, 1, ("x",), budget)
    f2 = free_algebra(ctx.generator, 2, ("x", "y"), budget)
    product = direct_product(f1.algebra, f2.algebra)
    x = pair_index(f1.generators[0], f2.generators[0], f2.size)
    y = pair_index(f1.generators[0], f2.generators[1], f2.size)
    z = tuple(
        pair_index(zero, one, f2.size)
        for zero, one in zip(ctx.zero_values(f1.algebra), ctx.one_values(f2.algebra))
    )
    return FreePairContext(f1, f2, product, x, y, z)
