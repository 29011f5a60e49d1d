#!/usr/bin/env python3
"""Tabulate congruence lattices, factor pairs and central elements across the
whole fixture corpus."""
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from factorlab import all_congruences, central_elements, factor_pairs
from corpus import (
    boolean_context,
    corpus,
    lattice_context,
    ring_context,
)

CONTEXT_FOR = {
    "z2": ring_context, "z3": ring_context, "z4": ring_context,
    "z5": ring_context, "z6": ring_context, "z2xz2": ring_context,
    "c2": lattice_context, "c3": lattice_context, "l2x2": lattice_context,
    "n5": lattice_context, "m3": lattice_context, "b2": boolean_context,
}

if __name__ == "__main__":
    print(f"{'algebra':>8} {'size':>4} {'congruences':>11} "
          f"{'factor pairs':>12} {'central':>20}")
    for stem, algebra in corpus().items():
        if stem not in CONTEXT_FOR:
            continue
        ctx = CONTEXT_FOR[stem](algebra)
        cons = all_congruences(algebra)
        pairs = factor_pairs(algebra)
        central = sorted(ce.e[0] for ce in central_elements(algebra, ctx))
        print(f"{algebra.name:>8} {algebra.size:>4} {len(cons):>11} "
              f"{len(pairs):>12} {str(central):>20}")
