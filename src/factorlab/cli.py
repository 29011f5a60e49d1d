"""Command-line surface.

Subcommands, each with `--format text|machine` and only the caps its
handler reads:
    algebra show PATH
    cong PATH [--lattice | --factor-pairs | --compactness SPEC] [--max-size N]
    freealg dump CTX [--rank N] [--budget N]
    positivize CTX FORMULA [--all-witnesses] [--budget N]
    dfc verify CTX FORMULA [--pool-depth N] [--max-size N]
    central list CTX [--algebra PATH]
    correspondence CTX FORMULA [--algebra PATH] [--pool-depth N] [--max-size N]
    pipeline CTX FORMULA [--pool-depth N] [--max-size N] [--budget N]
A flag the subcommand does not take exits 2 as an unrecognized argument.

Exit codes: 0 ok, 2 validation error, 3 resource bound exceeded,
4 no witness, 5 first-coordinate verification failed, 6 internal check
failed (a bug).  Machine output (--format machine) is a single JSON line
with sorted keys and no timestamps, so identical invocations are
byte-identical.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import fileio
from .congruences import (
    all_congruences,
    compactness_report,
    congruence_from_partition,
    factor_pairs,
    partition_text,
    principal_congruence,
)
from .core import FiniteAlgebra
from .dfc import (CorrespondenceStage, central_elements, correspondence_check,
                  verify_dfc)
from .errors import (
    FactorLabError,
    NoWitnessError,
    ResourceBoundError,
    ValidationError,
)
from .freealg import (
    DEFAULT_BUDGET,
    _default_var_names,
    free_algebra,
    free_pair_context,
)
from .terms import term_text
from .positivize import enumerate_witnesses, positivize
from .variety import (DEFAULT_MAX_SIZE, DEFAULT_POOL_DEPTH, VarietyContext,
                      verify_zero_one_condition)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_NO_WITNESS = 4
EXIT_DFC_FAIL = 5
EXIT_INTERNAL = 6


def _emit(args, machine: dict, text_lines: list[str]) -> None:
    try:
        if args.format == "machine":
            print(json.dumps(machine, sort_keys=True, separators=(",", ":")))
        else:
            for line in text_lines:
                print(line)
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: the verdict is still the exit code, and fd 1
        # points at devnull so that the interpreter's final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load_populated_context(path: str, args) -> VarietyContext:
    ctx = fileio.load_context(path)
    return ctx.populated(max_size=args.max_size, depth=args.pool_depth)


# -- subcommands -----------------------------------------------------------------


def cmd_algebra_show(args) -> int:
    algebra = fileio.load_algebra(args.path)
    lines = [
        f"{algebra.name}: size {algebra.size}, "
        f"ops {','.join(s for s, _ in algebra.signature.symbols)}"
    ]
    for (sym, arity), table in zip(algebra.signature.symbols, algebra.tables):
        if arity == 0:
            lines.append(f"  {sym} = {table[0]}")
        elif arity == 1:
            lines.append(f"  {sym}: {list(table)}")
        else:
            n = algebra.size
            shown = min(n, 8)
            lines.append(f"  {sym} (first {shown} rows):")
            for r in range(shown):
                row = table[r * n ** (arity - 1): (r + 1) * n ** (arity - 1)]
                lines.append(f"    {r}: {list(row)}")
    _emit(args, {"command": "algebra-show", "status": "ok",
                 "algebra": fileio.algebra_to_dict(algebra)}, lines)
    return EXIT_OK


def _parse_element(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(
            f"congruence spec element {token!r} is not an integer"
        ) from None


def _parse_theta_spec(algebra: FiniteAlgebra, spec: str):
    if "|" in spec or spec.startswith("{"):
        classes = [
            [_parse_element(x) for x in part.split(",") if x != ""]
            for part in spec.strip("{}").split("|")
        ]
        return congruence_from_partition(algebra, classes)
    parts = [p for p in spec.split(",") if p != ""]
    if len(parts) != 2:
        raise ValidationError(
            f"congruence spec must be 'a,b' or a partition '0,3|1,4|2,5', "
            f"got {spec!r}"
        )
    return principal_congruence(algebra, *map(_parse_element, parts))


def cmd_cong(args) -> int:
    algebra = fileio.load_algebra(args.path)
    if args.compactness is not None:
        theta = _parse_theta_spec(algebra, args.compactness)
        rep = compactness_report(algebra, theta)
        lines = [
            f"{algebra.name}: theta = {partition_text(theta)}",
            f"generated by {rep.m} principal congruence(s): "
            f"{list(rep.generating_pairs)}"
            + ("" if rep.exhaustive else " (greedy upper bound)"),
        ]
        machine = {
            "command": "cong-compactness", "status": "ok",
            "algebra": algebra.name, "theta": partition_text(theta),
            "m": rep.m, "pairs": [list(p) for p in rep.generating_pairs],
            "exhaustive": rep.exhaustive,
        }
        _emit(args, machine, lines)
        return EXIT_OK
    if algebra.size > args.max_size:
        raise ResourceBoundError(f"size {algebra.size} exceeds congruence "
                                 f"enumeration bound {args.max_size}")
    if args.factor_pairs:
        pairs = factor_pairs(algebra)
        lines = [f"{algebra.name}: {len(pairs)} ordered factor pair(s)"]
        rows = []
        for p in pairs:
            gen = compactness_report(algebra, p.theta)
            sizes = f"{p.theta.n_classes}x{p.theta_c.n_classes}"
            lines.append(
                f"  theta={partition_text(p.theta)} "
                f"theta_c={partition_text(p.theta_c)} sizes={sizes} "
                f"generators={list(gen.generating_pairs)}"
            )
            rows.append({
                "theta": partition_text(p.theta),
                "theta_c": partition_text(p.theta_c),
                "sizes": sizes,
                "generators": [list(g) for g in gen.generating_pairs],
            })
        _emit(args, {"command": "cong-factor-pairs", "status": "ok",
                     "algebra": algebra.name, "count": len(pairs),
                     "pairs": rows}, lines)
        return EXIT_OK
    cons = all_congruences(algebra)
    lines = [f"{algebra.name}: {len(cons)} congruence(s)"]
    lines += [f"  {partition_text(c)} ({c.n_classes} classes)" for c in cons]
    _emit(args, {"command": "cong-lattice", "status": "ok",
                 "algebra": algebra.name, "count": len(cons),
                 "congruences": [partition_text(c) for c in cons]}, lines)
    return EXIT_OK


def _shadowed_variable(signature, rank: int) -> str | None:
    """The first signature symbol spelled like one of the generator
    variables the dump prints at this rank (x; x, y; x1..xN): the dump would
    give two elements one term."""
    for symbol, _ in signature.symbols:
        if rank <= 2:
            if symbol in _default_var_names(rank):
                return symbol
        # xK with K <= N, compared as (digits, text) with no int built
        elif re.fullmatch(r"x[1-9][0-9]*", symbol) and (
                (len(symbol) - 1, symbol[1:]) <= (len(str(rank)), str(rank))):
            return symbol
    return None


def cmd_freealg_dump(args) -> int:
    ctx = fileio.load_context(args.ctx)
    shadowed = _shadowed_variable(ctx.signature, args.rank)
    if shadowed is not None:
        raise ValidationError(f"symbol '{shadowed}' shadows a generator variable")
    fa = free_algebra(ctx.generator, args.rank, budget=args.budget)
    lines = [
        f"free algebra of rank {fa.rank} over {fa.base.name}: "
        f"{fa.size} element(s)",
        f"generators: "
        + ", ".join(f"{v} -> element {g}" for v, g in zip(fa.var_names, fa.generators)),
    ]
    shown = min(fa.size, 16)
    lines.append(f"first {shown} element terms:")
    for e in range(shown):
        lines.append(f"  {e}: {term_text(fa.witnesses[e])}")
    machine = {}
    if args.format == "machine":  # every witness rendered, only if printed
        machine = {
            "command": "freealg-dump", "status": "ok",
            "base": fa.base.name, "rank": fa.rank, "size": fa.size,
            "generators": list(fa.generators),
            "terms": [term_text(t) for t in fa.witnesses],
        }
    _emit(args, machine, lines)
    return EXIT_OK


def _positivize_payload(result) -> dict:
    return {
        "k": result.k,
        "phi_prime": result.phi_prime.text(),
        "witnesses": [
            {"left": term_text(u), "right": term_text(v)}
            for u, v in result.witnesses
        ],
        "substitution_check": "ok",
        "warnings": list(result.warnings),
    }


def cmd_positivize(args) -> int:
    ctx = fileio.load_context(args.ctx)
    phi = fileio.load_formula(args.formula, ctx.signature, ctx.l)
    fpc = free_pair_context(ctx, args.budget)
    allw = enumerate_witnesses(phi, fpc) if args.all_witnesses else None
    result = positivize(phi, ctx, fpc, witnesses=allw)
    lam = phi.positive_indices(result.k)
    lines = [
        f"chosen disjunct k = {result.k}",
        f"positive literal indices: {list(lam)}",
        f"positive formula: {result.phi_prime.text()}",
    ]
    for (u, v), w in zip(result.witnesses, phi.bound_vars):
        lines.append(f"witness {w}: ({term_text(u)}, {term_text(v)})")
    lines.append("substitution re-verification: ok")
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    machine = {"command": "positivize", "status": "ok",
               "lambda_k": list(lam), **_positivize_payload(result)}
    if args.all_witnesses:
        lines.append(f"all valid (disjunct, witness) pairs: {len(allw)}")
        for k, w in allw:
            lines.append(f"  k={k} w={list(w)}")
        machine["all_witnesses"] = [
            {"k": k, "w": list(w)} for k, w in allw
        ]
    _emit(args, machine, lines)
    return EXIT_OK


def _dfc_payload(report) -> dict:
    return {
        "status": report.status,
        "formula": report.formula_text,
        "pairs_tested": [list(p) for p in report.pairs_tested],
        "skipped": [list(p) for p in report.skipped],
        "counterexample_count": len(report.counterexamples),
        "first_counterexample": (
            list(report.counterexamples[0].as_tuple())
            if report.counterexamples else None
        ),
    }


def _counterexample_text(ce) -> str:
    return (f"A={ce.left} B={ce.right} a={ce.a} b={ce.b} c={ce.c} d={ce.d} "
            f"direction {ce.direction}")


def _verify_stage_text(report) -> str:
    """A verify stage's status, with the cause of a failure and the count of
    pairs skipped over the cap when there is one."""
    notes = []
    if report.counterexamples:
        count = len(report.counterexamples)
        notes.append(
            f"{count} counterexample{'s' if count > 1 else ''}; first: "
            f"{_counterexample_text(report.counterexamples[0])}"
        )
    if report.skipped:
        notes.append(f"skipped over cap: {len(report.skipped)}")
    return report.status + (f" ({'; '.join(notes)})" if notes else "")


def cmd_dfc_verify(args) -> int:
    ctx = _load_populated_context(args.ctx, args)
    phi = fileio.load_formula(args.formula, ctx.signature, ctx.l)
    report = verify_dfc(phi, ctx)
    lines = [
        f"formula: {report.formula_text}",
        f"pool pairs tested: {len(report.pairs_tested)}"
        + (f" (skipped over cap: {len(report.skipped)})" if report.skipped else ""),
        f"status: {report.status}",
    ]
    # machine output reads only the first counterexample
    if report.counterexamples and args.format != "machine":
        lines.append(
            f"first counterexample: {_counterexample_text(report.counterexamples[0])}"
        )
        for ce in report.counterexamples[1:6]:
            lines.append(f"  also: {ce.as_tuple()}")
    machine = {"command": "dfc-verify", **_dfc_payload(report)}
    _emit(args, machine, lines)
    return EXIT_OK if report.ok else EXIT_DFC_FAIL


def cmd_central_list(args) -> int:
    ctx = fileio.load_context(args.ctx)
    algebra = fileio.load_algebra(args.algebra) if args.algebra else ctx.generator
    ces = central_elements(algebra, ctx)
    lines = [f"{algebra.name}: {len(ces)} central element(s)"]
    rows = []
    for ce in ces:
        e = ce.e[0] if ctx.l == 1 else list(ce.e)
        lines.append(
            f"  e={e} theta={partition_text(ce.pair.theta)} "
            f"theta_c={partition_text(ce.pair.theta_c)} "
            f"factors {ce.pair.theta.n_classes}x{ce.pair.theta_c.n_classes}"
        )
        rows.append({
            "e": list(ce.e),
            "theta": partition_text(ce.pair.theta),
            "theta_c": partition_text(ce.pair.theta_c),
            "factor_sizes": [ce.pair.theta.n_classes, ce.pair.theta_c.n_classes],
        })
    _emit(args, {"command": "central-list", "status": "ok",
                 "algebra": algebra.name, "count": len(ces),
                 "central": rows}, lines)
    return EXIT_OK


def _correspondence_payload(report) -> dict:
    return {
        "algebra": report.algebra_name,
        "n_central": report.n_central,
        "n_pairs": report.n_central,
        "bijection_ok": report.bijection_ok,
        "elements_ok": all(r.ok for r in report.element_reports),
        "idempotent_check": report.idempotent_check,
        "status": "pass" if report.ok else "fail",
    }


def cmd_correspondence(args) -> int:
    ctx = _load_populated_context(args.ctx, args)
    phi = fileio.load_formula(args.formula, ctx.signature, ctx.l)
    algebra = fileio.load_algebra(args.algebra) if args.algebra else ctx.generator
    report = correspondence_check(algebra, phi, ctx)
    lines = [
        f"{report.algebra_name}: {report.n_central} central element(s) for "
        f"{report.n_central} ordered factor pair(s)",
        f"bijection onto zero-side kernels: "
        f"{'ok' if report.bijection_ok else 'FAILED'}",
    ]
    for r in report.element_reports:
        lines.append(
            f"  e={list(r.element)} -> "
            f"{partition_text(r.expected)}: {'ok' if r.ok else 'MISMATCH'}"
        )
    if report.idempotent_check is not None:
        lines.append(f"ring idempotent cross-check: {report.idempotent_check}")
    lines.append(f"status: {'pass' if report.ok else 'fail'}")
    _emit(args, {"command": "correspondence",
                 **_correspondence_payload(report)}, lines)
    return EXIT_OK if report.ok else EXIT_DFC_FAIL


def cmd_pipeline(args) -> int:
    ctx = _load_populated_context(args.ctx, args)
    phi = fileio.load_formula(args.formula, ctx.signature, ctx.l)
    stages = []
    lines = []
    zero_one = verify_zero_one_condition(ctx)

    def finish(failed_stage: str | None) -> int:
        _emit(args, {"command": "pipeline",
                     "status": "fail" if failed_stage else "pass",
                     "failed_stage": failed_stage, "stages": stages,
                     "zero_one_ok": zero_one.ok}, lines)
        return EXIT_DFC_FAIL if failed_stage else EXIT_OK

    report_in = verify_dfc(phi, ctx)
    stages.append({"name": "verify-input", "status": report_in.status,
                   **_dfc_payload(report_in)})
    lines.append(f"stage 1 verify-input: {_verify_stage_text(report_in)}")
    if not report_in.ok:
        return finish("verify-input")

    result = positivize(phi, ctx, free_pair_context(ctx, args.budget))
    stages.append({"name": "positivize", "status": "ok",
                   **_positivize_payload(result)})
    lines.append(
        f"stage 2 positivize: ok (k={result.k}, "
        f"phi' = {result.phi_prime.text()})"
    )

    report_out = verify_dfc(result.phi_prime, ctx)
    stages.append({"name": "verify-positive", "status": report_out.status,
                   **_dfc_payload(report_out)})
    lines.append(f"stage 3 verify-positive: {_verify_stage_text(report_out)}")
    if not report_out.ok:
        return finish("verify-positive")

    member_reports = []
    all_ok = True
    stage = CorrespondenceStage(result.phi_prime, ctx, ctx.pool_algebras)
    for entry in ctx.pool:
        rep = correspondence_check(entry.algebra, result.phi_prime, ctx, stage)
        member_reports.append(_correspondence_payload(rep))
        all_ok = all_ok and rep.ok
        lines.append(
            f"stage 4 correspondence [{entry.algebra.name}]: "
            f"{'pass' if rep.ok else 'fail'}"
        )
    stages.append({"name": "correspondence",
                   "status": "pass" if all_ok else "fail",
                   "members": member_reports})
    lines.append(f"pipeline: {'pass' if all_ok else 'fail'}")
    return finish(None if all_ok else "correspondence")


# -- argument parsing --------------------------------------------------------------


# The caps a subcommand may take: the least value each accepts, and its
# argparse settings.
_CAPS = {
    "--pool-depth": (0, dict(dest="pool_depth", type=int,
                             default=DEFAULT_POOL_DEPTH, metavar="N")),
    "--max-size": (1, dict(dest="max_size", type=int, default=DEFAULT_MAX_SIZE,
                           metavar="N")),
    "--budget": (1, dict(dest="budget", type=int, default=DEFAULT_BUDGET,
                         metavar="N", help="free-algebra closure budget "
                                           "(default %(default)s)")),
}


def _add_leaf(sub, name: str, func, *caps: str, **kwargs) -> argparse.ArgumentParser:
    """A subcommand parser with --format and the caps `func` reads."""
    leaf = sub.add_parser(name, **kwargs)
    leaf.add_argument("--format", choices=("text", "machine"), default="text")
    for cap in caps:
        leaf.add_argument(cap, **_CAPS[cap][1])
    leaf.set_defaults(func=func)
    return leaf


def _build_parser() -> argparse.ArgumentParser:
    pool = ("--pool-depth", "--max-size")
    parser = argparse.ArgumentParser(
        prog="factorlab",
        description="factor congruences, central elements and "
                    "first-coordinate definability in finite algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="algebra file operations")
    algebra_sub = p_algebra.add_subparsers(dest="algebra_command", required=True)
    p_show = _add_leaf(algebra_sub, "show", cmd_algebra_show)
    p_show.add_argument("path")

    p_cong = _add_leaf(sub, "cong", cmd_cong, "--max-size",
                       help="congruence lattice and factor pairs")
    p_cong.add_argument("path")
    group = p_cong.add_mutually_exclusive_group()
    group.add_argument("--lattice", action="store_true")
    group.add_argument("--factor-pairs", action="store_true")
    group.add_argument("--compactness", metavar="SPEC",
                       help="'a,b' for a principal congruence or a "
                            "partition like '0,3|1,4|2,5'")

    p_free = sub.add_parser("freealg", help="free algebra operations")
    free_sub = p_free.add_subparsers(dest="freealg_command", required=True)
    p_dump = _add_leaf(free_sub, "dump", cmd_freealg_dump, "--budget")
    p_dump.add_argument("ctx")
    p_dump.add_argument("--rank", type=int, default=1)

    p_pos = _add_leaf(sub, "positivize", cmd_positivize, "--budget",
                      help="replace a verified formula by a positive one")
    p_pos.add_argument("ctx")
    p_pos.add_argument("formula")
    p_pos.add_argument("--all-witnesses", action="store_true")

    p_dfc = sub.add_parser("dfc", help="first-coordinate definability checks")
    dfc_sub = p_dfc.add_subparsers(dest="dfc_command", required=True)
    p_verify = _add_leaf(dfc_sub, "verify", cmd_dfc_verify, *pool)
    p_verify.add_argument("ctx")
    p_verify.add_argument("formula")

    p_central = sub.add_parser("central", help="central element operations")
    central_sub = p_central.add_subparsers(dest="central_command", required=True)
    p_list = _add_leaf(central_sub, "list", cmd_central_list)
    p_list.add_argument("ctx")
    p_list.add_argument("--algebra", default=None)

    p_corr = _add_leaf(sub, "correspondence", cmd_correspondence, *pool,
                       help="central elements vs factor congruences")
    p_corr.add_argument("ctx")
    p_corr.add_argument("formula")
    p_corr.add_argument("--algebra", default=None)

    p_pipe = _add_leaf(sub, "pipeline", cmd_pipeline, *pool, "--budget",
                       help="verify, positivize, re-verify, correspondence")
    p_pipe.add_argument("ctx")
    p_pipe.add_argument("formula")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # only the caps this subcommand takes are set
        for flag, (least, spec) in _CAPS.items():
            if (value := getattr(args, spec["dest"], least)) < least:
                raise ValidationError(f"{flag} must be at least {least}, got {value}")
        return args.func(args)
    except NoWitnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(f"distinguished assignment: "
                  f"{json.dumps(exc.diagnostics, sort_keys=True)}",
                  file=sys.stderr)
        return EXIT_NO_WITNESS
    except ResourceBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FactorLabError as exc:  # internal check failures and the like
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
