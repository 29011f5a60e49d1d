#!/usr/bin/env python3
"""Record the exact stdout, stderr and exit code of a fixed list of fast CLI
invocations into tests/golden_cli.json.

    python3 scripts/record_golden.py

The list covers every subcommand over the fixture corpus at default caps.
tests/test_golden.py replays it in process and compares byte for byte, so
regenerate the file only when an output change is intended.
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from factorlab.cli import main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden_cli.json"

ALGEBRAS = ("b2", "c2", "c3", "l2x2", "m3", "n5", "z12", "z2", "z2xz2",
            "z3", "z4", "z5", "z6")
# (context, formula) pairs over which formula-taking subcommands run
FORMULA_RUNS = (
    ("rings", "ring_dfc"), ("rings", "ring_mixed"),
    ("lattices", "lattice_dfc"), ("lattices", "lattice_mixed"),
    ("boolean", "lattice_dfc"), ("boolean", "lattice_mixed"),
)
# the rank-2 free algebra over Z6 exceeds the default budget, so rings_z6
# runs only the subcommands that build no free algebra
Z6_RUNS = (("rings_z6", "ring_dfc"), ("rings_z6", "ring_mixed"))


def _ctx(name: str) -> str:
    return f"fixtures/{name}.ctx"


def _fm(name: str) -> str:
    return f"fixtures/formulas/{name}.fm"


def invocations() -> list[list[str]]:
    out = []
    for a in ALGEBRAS:
        path = f"fixtures/{a}.alg"
        out.append(["algebra", "show", path])
        out.append(["cong", path])
        out.append(["cong", path, "--factor-pairs"])
    out += [
        ["cong", "fixtures/z6.alg", "--compactness", "0,3"],
        ["cong", "fixtures/z6.alg", "--compactness", "0,3|1,4|2,5"],
        ["cong", "fixtures/n5.alg", "--compactness", "0,1"],
        ["cong", "fixtures/z6.alg", "--compactness", "0,9|1,2,3,4,5"],  # exit 2
    ]
    for ctx in ("rings", "lattices", "boolean", "rings_z6"):
        out.append(["freealg", "dump", _ctx(ctx)])
        out.append(["central", "list", _ctx(ctx)])
    out += [
        ["freealg", "dump", _ctx("rings"), "--rank", "2"],
        ["freealg", "dump", _ctx("lattices"), "--rank", "2"],
        ["freealg", "dump", _ctx("boolean"), "--rank", "2"],
        # the free algebra the benchmark's free-witness workload builds
        ["freealg", "dump", _ctx("boolean"), "--rank", "3"],
        ["freealg", "dump", _ctx("lattices"), "--rank", "3"],
        ["central", "list", _ctx("rings"), "--algebra", "fixtures/z2xz2.alg"],
        ["central", "list", _ctx("rings"), "--algebra", "fixtures/z12.alg"],
        ["central", "list", _ctx("lattices"), "--algebra", "fixtures/l2x2.alg"],
    ]
    for ctx, fm in FORMULA_RUNS:
        out.append(["positivize", _ctx(ctx), _fm(fm)])
        out.append(["positivize", _ctx(ctx), _fm(fm), "--all-witnesses"])
        out.append(["dfc", "verify", _ctx(ctx), _fm(fm)])
        out.append(["correspondence", _ctx(ctx), _fm(fm)])
        out.append(["pipeline", _ctx(ctx), _fm(fm)])
    for ctx, fm in Z6_RUNS:
        out.append(["dfc", "verify", _ctx(ctx), _fm(fm)])
        out.append(["correspondence", _ctx(ctx), _fm(fm)])
    out += [
        ["positivize", _ctx("rings"), _fm("not_dfc")],  # no witness: exit 4
        # every one of the 3 bound variables is tried: exit 4
        ["positivize", _ctx("rings"), _fm("ring_no_witness3")],
        # the benchmark's free-witness formula, a single deep witness
        ["positivize", _ctx("rings"), "perfbench/w4.fm", "--all-witnesses"],
        ["dfc", "verify", _ctx("lattices"), _fm("not_dfc")],  # exit 5
        ["dfc", "verify", _ctx("rings"), _fm("not_dfc")],  # exit 5
        ["pipeline", _ctx("rings"), _fm("not_dfc")],  # exit 5
        ["correspondence", _ctx("rings"), _fm("not_dfc")],  # MISMATCH: exit 5
        ["correspondence", _ctx("lattices"), _fm("not_dfc"),
         "--algebra", "fixtures/l2x2.alg"],  # MISMATCH: exit 5
        ["correspondence", _ctx("rings"), _fm("ring_dfc"),
         "--algebra", "fixtures/z2xz2.alg"],
        ["correspondence", _ctx("lattices"), _fm("lattice_dfc"),
         "--algebra", "fixtures/l2x2.alg"],
        # Z12 is larger than the default --max-size 8, which bounds only the
        # pool, not the checked algebra
        ["correspondence", _ctx("rings"), _fm("ring_dfc"),
         "--algebra", "fixtures/z12.alg"],
        # the depth-3/max-27 lattice pool, which reaches C3xC3xC3
        ["correspondence", _ctx("lattices"), _fm("lattice_dfc"),
         "--pool-depth", "3", "--max-size", "27"],
        ["dfc", "verify", _ctx("lattices"), _fm("lattice_mixed"),
         "--pool-depth", "3", "--max-size", "27"],
        # the correspondence stage over every member of that pool
        ["pipeline", _ctx("lattices"), _fm("lattice_mixed"),
         "--pool-depth", "3", "--max-size", "27"],
        # a constant named x, which the dump would print like the generator:
        # exit 2
        ["freealg", "dump", _ctx("shadow_x")],
    ]
    machine = [argv + ["--format", "machine"] for argv in out]
    # a few in text mode as well
    text = [
        ["positivize", _ctx("rings"), _fm("ring_mixed"), "--all-witnesses"],
        ["pipeline", _ctx("lattices"), _fm("lattice_mixed")],
        ["dfc", "verify", _ctx("lattices"), _fm("not_dfc")],
        # failing runs with many (left, right) name groups
        ["dfc", "verify", _ctx("lattices"), _fm("not_dfc"),
         "--pool-depth", "3", "--max-size", "16"],
        ["pipeline", _ctx("rings"), _fm("not_dfc")],
        ["correspondence", _ctx("rings"), _fm("not_dfc")],  # exit 5
    ]
    return machine + text


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def record() -> list[dict]:
    os.chdir(ROOT)
    return [run(argv) for argv in invocations()]


if __name__ == "__main__":
    cases = record()
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} invocations to {GOLDEN.relative_to(ROOT)}")
