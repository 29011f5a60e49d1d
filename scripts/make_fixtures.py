#!/usr/bin/env python3
"""Regenerate the fixtures/ corpus from the builders in tests/corpus.py.

    python3 scripts/make_fixtures.py [OUTPUT_DIR]

OUTPUT_DIR defaults to the repository's fixtures/ directory."""
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from corpus import (
    boolean_context,
    corpus,
    dump_algebra,
    dump_context,
    lattice_context,
    ring_context,
)

FORMULAS = {
    "ring_dfc.fm": (
        "# central-idempotent equation for rings with identity\n"
        "z1 * x = z1 * y\n"
    ),
    "ring_mixed.fm": (
        "# mixed-literal version with a decoy disjunct; the decoy covers\n"
        "# trivial products where the disequation cannot be satisfied\n"
        "exists w . (z1 * x = z1 * y and w != z1) or (z1 = w and x = y)\n"
    ),
    "lattice_dfc.fm": (
        "# neutral-complemented-element equation for bounded lattices\n"
        "x \\/ z1 = y \\/ z1\n"
    ),
    "lattice_mixed.fm": (
        "exists w . (x \\/ z1 = y \\/ z1 and w != z1) or (z1 = w and x = y)\n"
    ),
    "not_dfc.fm": (
        "# fails: plain equality also pins the second coordinate\n"
        "x = y\n"
    ),
    "ring_no_witness3.fm": (
        "# no witness: the disequation compares a term with itself, so it fails at\n"
        "# every assignment of the 3 bound variables and the search tries them all\n"
        "exists u v w . (z1 * x = z1 * y and (u * v) * w != (u * v) * w)\n"
    ),
}

CONTEXTS = {
    "rings.ctx": (ring_context, "z2", "z2.alg"),
    "rings_z6.ctx": (ring_context, "z6", "z6.alg"),
    "lattices.ctx": (lattice_context, "c3", "c3.alg"),
    "boolean.ctx": (boolean_context, "b2", "b2.alg"),
}


def main(root: Path) -> None:
    root.mkdir(exist_ok=True)
    algebras = corpus()
    for stem, algebra in algebras.items():
        dump_algebra(algebra, root / f"{stem}.alg")
    for name, (builder, stem, gen_path) in CONTEXTS.items():
        ctx = builder(algebras[stem])
        dump_context(ctx, root / name, generator_path=gen_path)
    formulas = root / "formulas"
    formulas.mkdir(exist_ok=True)
    for name, text in FORMULAS.items():
        (formulas / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(algebras)} algebras, {len(CONTEXTS)} contexts, "
          f"{len(FORMULAS)} formulas under {root}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "fixtures")
