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
    compose_lattice,
    median_term,
)
from .core import (
    FiniteAlgebra,
    Signature,
    _subalgebra_name,
    _subalgebra_tables,
    direct_product,
    eval_term,
)
from .errors import ValidationError
from .terms import Term, _Record, is_closed


class PoolEntry(_Record):
    """A pool member and how it was built.  `factors` is (i, j) when the
    member is `direct_product` of the pool's entries i and j, in that order,
    and None otherwise.  Both factors come before the product in the pool:
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
    factor, whose tables are those of a member.  Quotients and subalgebras
    are built as bare tables; a name and a recipe are formatted only for a
    construction that enters the pool.  A product records the indices of its
    two factors.  When the generator has a median term (`median_term`),
    every product that enters is recorded with its two factors through
    `compose_lattice`, and its lattice is composed from theirs; otherwise
    each member's lattice is built directly.  The pair seed (x, y) is
    skipped when y is in Sg(x) or x in Sg(y): Sg(x, y) is then a
    singleton's subalgebra, offered already.
    """
    gen = ctx.generator
    composes = median_term(gen) is not None
    entries = [PoolEntry(gen, "generator")]
    seen = {(gen.size, gen.tables)}

    def enters(size: int, tables: tuple[tuple[int, ...], ...]) -> bool:
        """Whether a construction is small enough and new; if so, it is now
        seen."""
        if size > max_size:
            return False
        fp = (size, tables)
        if fp in seen:
            return False
        seen.add(fp)
        return True

    new = list(entries)
    for _ in range(depth):
        fresh: list[PoolEntry] = []
        for entry in new:
            a = entry.algebra
            for theta in all_congruences(a, a.size)[:-1]:  # the identity is last
                size, tables, _ = _quotient_tables(a, theta)
                if enters(size, tables):
                    q = FiniteAlgebra._trusted(
                        a.signature, size, tables, _quotient_name(a, theta))
                    fresh.append(PoolEntry(q, f"quotient({a.name}, {theta})"))
            seeds = [()] + [(s,) for s in range(a.size)] + [
                pair for pair in itertools.combinations(range(a.size), 2)
            ]
            closures: list[set[int]] = []  # closures[x] = Sg(x)
            for seed in seeds:
                if not seed and not a.signature.constants:
                    continue
                if len(seed) == 2:
                    x, y = seed
                    if y in closures[x] or x in closures[y]:
                        continue
                size, tables, embedding = _subalgebra_tables(a, seed)
                if len(seed) == 1:
                    closures.append(set(embedding))
                if enters(size, tables):
                    sub = FiniteAlgebra._trusted(
                        a.signature, size, tables, _subalgebra_name(a, seed))
                    fresh.append(PoolEntry(sub, f"subalgebra({a.name}, {list(seed)})"))
        old = len(entries) - len(new)  # the new members are the tail
        for i, e1 in enumerate(entries):
            for j in range(old if i < old else 0, len(entries)):
                e2 = entries[j]
                sizes = (e1.algebra.size, e2.algebra.size)
                if sizes[0] * sizes[1] > max_size or 1 in sizes:
                    continue
                p = direct_product(e1.algebra, e2.algebra)
                if not enters(p.size, p.tables):
                    continue
                fresh.append(PoolEntry(
                    p, f"product({e1.algebra.name}, {e2.algebra.name})", (i, j)))
                if composes:
                    compose_lattice(p, e1.algebra, e2.algebra)
        if not fresh:
            break
        entries.extend(fresh)
        new = fresh
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
