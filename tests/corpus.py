"""The fixture corpus: cyclic rings, bounded lattices and the two-element
Boolean algebra, variety-context builders for each class, and the writers
that `scripts/make_fixtures.py` uses to store them in the formats
`factorlab.fileio` reads.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

from factorlab import FiniteAlgebra, Signature, VarietyContext, direct_product
from factorlab.errors import ValidationError
from factorlab.fileio import algebra_to_dict
from factorlab.terms import App, term_text


def ring_signature() -> Signature:
    return Signature((("+", 2), ("*", 2), ("0", 0), ("1", 0)))


def cyclic_ring(n: int, name: str | None = None) -> FiniteAlgebra:
    add = [(i + j) % n for i in range(n) for j in range(n)]
    mul = [(i * j) % n for i in range(n) for j in range(n)]
    return FiniteAlgebra.from_ops(
        ring_signature(), n,
        {"+": add, "*": mul, "0": [0], "1": [1 % n]},
        name or f"Z{n}",
    )


def ring_context(generator: FiniteAlgebra) -> VarietyContext:
    # The zero/one roles deliberately put the multiplicative identity on the
    # zero side: the parameter pair then evaluates to (1, 0) in a product,
    # which makes z*x = z*y pin the first coordinate.
    return VarietyContext(generator, (App("1"),), (App("0"),))


def lattice_signature() -> Signature:
    return Signature((("/\\", 2), ("\\/", 2), ("0", 0), ("1", 0)))


def chain_lattice(k: int, name: str | None = None) -> FiniteAlgebra:
    meet = [min(i, j) for i in range(k) for j in range(k)]
    join = [max(i, j) for i in range(k) for j in range(k)]
    return FiniteAlgebra.from_ops(
        lattice_signature(), k,
        {"/\\": meet, "\\/": join, "0": [0], "1": [k - 1]},
        name or f"C{k}",
    )


def lattice_from_order(
    name: str, n: int, below: set[tuple[int, int]]
) -> FiniteAlgebra:
    """Bounded lattice from a strict-order relation given as covering-or-more
    pairs (a, b) meaning a < b.  Meets and joins must exist and be unique."""
    le = {(i, i) for i in range(n)} | set(below)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(le), list(le)):
            if b == c and (a, d) not in le:
                le.add((a, d))
                changed = True

    def bound(a: int, b: int, lower: bool) -> int:
        if lower:
            cands = [c for c in range(n) if (c, a) in le and (c, b) in le]
            best = [c for c in cands if all((d, c) in le for d in cands)]
        else:
            cands = [c for c in range(n) if (a, c) in le and (b, c) in le]
            best = [c for c in cands if all((c, d) in le for d in cands)]
        if len(best) != 1:
            raise ValidationError(
                f"lattice '{name}': no unique {'meet' if lower else 'join'} "
                f"for ({a},{b})"
            )
        return best[0]

    meet = [bound(i, j, True) for i in range(n) for j in range(n)]
    join = [bound(i, j, False) for i in range(n) for j in range(n)]
    bottom = [i for i in range(n) if all((i, j) in le for j in range(n))]
    top = [i for i in range(n) if all((j, i) in le for j in range(n))]
    if len(bottom) != 1 or len(top) != 1:
        raise ValidationError(f"lattice '{name}' is not bounded")
    return FiniteAlgebra.from_ops(
        lattice_signature(), n,
        {"/\\": meet, "\\/": join, "0": bottom, "1": top},
        name,
    )


def diamond_lattice() -> FiniteAlgebra:
    """The four-element lattice 0 < a, b < 1 with a and b incomparable."""
    return lattice_from_order("L2x2", 4, {(0, 1), (0, 2), (1, 3), (2, 3)})


def pentagon_lattice() -> FiniteAlgebra:
    """0 < a < 1 and 0 < b < c < 1 with a incomparable to b and c."""
    return lattice_from_order(
        "N5", 5, {(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)}
    )


def m3_lattice() -> FiniteAlgebra:
    """0 < a, b, c < 1 with a, b, c pairwise incomparable."""
    return lattice_from_order(
        "M3", 5, {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}
    )


def lattice_context(generator: FiniteAlgebra) -> VarietyContext:
    return VarietyContext(generator, (App("0"),), (App("1"),))


def boolean_signature() -> Signature:
    return Signature(
        (("/\\", 2), ("\\/", 2), ("not", 1), ("0", 0), ("1", 0))
    )


def boolean_algebra2() -> FiniteAlgebra:
    return FiniteAlgebra.from_ops(
        boolean_signature(), 2,
        {"/\\": [0, 0, 0, 1], "\\/": [0, 1, 1, 1], "not": [1, 0],
         "0": [0], "1": [1]},
        "B2",
    )


def boolean_context(generator: FiniteAlgebra) -> VarietyContext:
    return VarietyContext(generator, (App("0"),), (App("1"),))


def corpus() -> dict[str, FiniteAlgebra]:
    """Every shipped fixture algebra, keyed by its file stem."""
    z2 = cyclic_ring(2)
    return {
        "z2": z2,
        "z3": cyclic_ring(3),
        "z4": cyclic_ring(4),
        "z5": cyclic_ring(5),
        "z6": cyclic_ring(6),
        "z12": cyclic_ring(12),
        "z2xz2": direct_product(z2, z2, name="Z2xZ2"),
        "c2": chain_lattice(2),
        "c3": chain_lattice(3),
        "l2x2": diamond_lattice(),
        "n5": pentagon_lattice(),
        "m3": m3_lattice(),
        "b2": boolean_algebra2(),
    }


def dump_algebra(algebra: FiniteAlgebra, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(algebra_to_dict(algebra), indent=2) + "\n", encoding="utf-8"
    )


def context_to_dict(ctx: VarietyContext, generator_path: str | None = None) -> dict:
    return {
        "generator": generator_path or algebra_to_dict(ctx.generator),
        "l": ctx.l,
        "zero": [term_text(t) for t in ctx.zero_terms],
        "one": [term_text(t) for t in ctx.one_terms],
    }


def dump_context(
    ctx: VarietyContext, path: str | Path, generator_path: str | None = None
) -> None:
    Path(path).write_text(
        json.dumps(context_to_dict(ctx, generator_path), indent=2) + "\n",
        encoding="utf-8",
    )
