import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import FIXTURES, REPO
import factorlab.cli as cli
import factorlab.core
import factorlab.dfc
import factorlab.variety
from factorlab.cli import _build_parser, main
from factorlab.congruences import LATTICE_CELL_CAP
from factorlab.core import Signature


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


def run_module(*argv):
    """`python -m factorlab ARGV` in a fresh interpreter, as a user runs it."""
    return subprocess.run(
        [sys.executable, "-m", "factorlab", *map(str, argv)],
        capture_output=True, text=True, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )


def test_algebra_show(capsys):
    code, out = run_cli(capsys, "algebra", "show", FIXTURES / "z6.alg")
    assert code == 0
    assert out.startswith("Z6: size 6, ops +,*,0,1")


def test_algebra_show_machine(capsys):
    code, out = run_cli(
        capsys, "algebra", "show", FIXTURES / "z6.alg", "--format", "machine"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    assert data["algebra"]["size"] == 6


def test_algebra_show_malformed_table_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        json.dumps(
            {"name": "bad", "size": 2,
             "ops": {"f": {"arity": 2, "table": [0, 1, 0]}}}
        )
    )
    assert main(["algebra", "show", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "'f'" in err


def test_algebra_show_entry_out_of_range_exits_2(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        json.dumps(
            {"name": "bad", "size": 2,
             "ops": {"f": {"arity": 1, "table": [0, 7]}}}
        )
    )
    assert main(["algebra", "show", str(bad)]) == 2


def test_missing_file_exits_2(tmp_path):
    assert main(["algebra", "show", str(tmp_path / "absent.alg")]) == 2


def test_cong_lattice_z6(capsys):
    code, out = run_cli(capsys, "cong", FIXTURES / "z6.alg", "--lattice")
    assert code == 0
    assert "4 congruence(s)" in out
    assert "{0,3|1,4|2,5}" in out


def test_cong_factor_pairs_z6(capsys):
    code, out = run_cli(capsys, "cong", FIXTURES / "z6.alg", "--factor-pairs")
    assert code == 0
    assert "4 ordered factor pair(s)" in out


def test_cong_factor_pairs_z5(capsys):
    code, out = run_cli(capsys, "cong", FIXTURES / "z5.alg", "--factor-pairs")
    assert code == 0
    assert "2 ordered factor pair(s)" in out


def test_cong_size_bound_exits_3(capsys):
    assert main(["cong", str(FIXTURES / "z12.alg"), "--lattice"]) == 3
    assert main(["cong", str(FIXTURES / "z12.alg"), "--lattice",
                 "--max-size", "12"]) == 0
    capsys.readouterr()


def test_cong_compactness_pair(capsys):
    code, out = run_cli(
        capsys, "cong", FIXTURES / "z6.alg", "--compactness", "0,2"
    )
    assert code == 0
    assert "generated by 1 principal congruence(s): [(0, 2)]" in out


def test_cong_compactness_partition(capsys):
    code, out = run_cli(
        capsys, "cong", FIXTURES / "z6.alg", "--compactness", "0,3|1,4|2,5"
    )
    assert code == 0
    assert "theta = {0,3|1,4|2,5}" in out


def test_cong_compactness_non_integer_exits_2(capsys):
    assert main(["cong", str(FIXTURES / "z6.alg"), "--compactness", "a,b"]) == 2
    assert "'a' is not an integer" in capsys.readouterr().err


def test_cong_compactness_element_too_large_exits_2(capsys):
    spec = "0,9|1,2,3,4,5"
    assert main(["cong", str(FIXTURES / "z6.alg"), "--compactness", spec]) == 2
    assert "element 9 is not in the universe 0..5" in capsys.readouterr().err


def test_cong_compactness_negative_element_exits_2(capsys):
    spec = "0,-1|1,2,3,4,5"
    assert main(["cong", str(FIXTURES / "z6.alg"), "--compactness", spec]) == 2
    assert "element -1 is not in the universe 0..5" in capsys.readouterr().err


def test_cong_compactness_reads_back_every_printed_congruence(capsys):
    # a spec in braces is a partition, so the total congruence, printed
    # with one class and no '|', reads back too
    seen = 0
    for path in sorted(FIXTURES.glob("*.alg")):
        code, out = run_cli(capsys, "cong", path, "--format", "machine")
        if code == 3:  # over the default size bound
            continue
        for theta in json.loads(out)["congruences"]:
            code, out = run_cli(capsys, "cong", path, "--compactness", theta,
                                "--format", "machine")
            assert code == 0, (path.name, theta)
            assert json.loads(out)["theta"] == theta
            seen += 1
    assert seen == 36


def test_cong_compactness_pair_search_over_cap_exits_3(capsys, tmp_path):
    # f(x) = x on 40 elements: no principal congruence gives {0..38|39}, and
    # the search over pairs of its 741 related pairs would join 741*740/2
    # times 40 cells
    path = tmp_path / "i40.alg"
    path.write_text(json.dumps({"name": "I40", "size": 40, "ops": {
        "f": {"arity": 1, "table": list(range(40))}}}))
    spec = "{" + ",".join(map(str, range(39))) + "|39}"
    start = time.perf_counter()
    assert main(["cong", str(path), "--compactness", spec]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", (
        "error: compactness_report: estimated 10966800 join cells for 'I40' "
        f"exceed cap {LATTICE_CELL_CAP}\n"))


def test_freealg_dump(capsys):
    code, out = run_cli(capsys, "freealg", "dump", FIXTURES / "rings.ctx")
    assert code == 0
    assert "4 element(s)" in out


def test_freealg_dump_budget_exits_3(capsys):
    code = main(["freealg", "dump", str(FIXTURES / "rings_z6.ctx"),
                 "--rank", "2", "--budget", "100"])
    capsys.readouterr()
    assert code == 3


def test_freealg_dump_z6_rank2_stops_on_element_budget(capsys):
    # 100,000 elements x 36 points = 3.6M cells: under the vector cell cap,
    # so the element budget is what stops the closure
    code = main(["freealg", "dump", str(FIXTURES / "rings_z6.ctx"), "--rank", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "exceeded budget 100000 (partial carrier size 100000)" in err


def test_freealg_dump_huge_rank_exits_3_before_the_grid(capsys):
    # 2**30 points of rank 30: refused by the vector cell cap at once
    start = time.perf_counter()
    code = main(["freealg", "dump", str(FIXTURES / "rings.ctx"), "--rank", "30"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert elapsed < 1.0
    assert "free_algebra: the 30 generator vectors over 'Z2' need at least" in err
    assert "over the cap 10000000" in err


# The options each subcommand's parser declares: --format, the caps its
# handler reads, and its own flags.
OPTIONS = {
    ("algebra", "show"): {"--format"},
    ("cong",): {"--format", "--max-size",
                "--lattice", "--factor-pairs", "--compactness"},
    ("freealg", "dump"): {"--format", "--budget", "--rank"},
    ("positivize",): {"--format", "--budget", "--all-witnesses"},
    ("dfc", "verify"): {"--format", "--pool-depth", "--max-size"},
    ("central", "list"): {"--format", "--algebra"},
    ("correspondence",): {"--format", "--pool-depth", "--max-size",
                          "--algebra"},
    ("pipeline",): {"--format", "--pool-depth", "--max-size", "--budget"},
}
SHARED = {"--format", "--pool-depth", "--max-size", "--budget"}


def _leaf_parsers(parser, path=()):
    """(subcommand path, parser) for every leaf of the parser tree."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, (*path, name))


def test_each_subcommand_declares_only_the_options_it_reads():
    leaves = dict(_leaf_parsers(_build_parser()))
    options = {
        path: {s for a in leaf._actions for s in a.option_strings} - {"-h", "--help"}
        for path, leaf in leaves.items()
    }
    assert options == OPTIONS
    assert sum(len(o & SHARED) for o in options.values()) == 18
    (group,) = leaves[("cong",)]._mutually_exclusive_groups
    assert [a.option_strings for a in group._group_actions] == [
        ["--lattice"], ["--factor-pairs"], ["--compactness"]]


CTX_FM = [FIXTURES / "rings.ctx", FIXTURES / "formulas" / "ring_dfc.fm"]
# Operands that each subcommand accepts.
CAP_ARGV = {
    ("algebra", "show"): [FIXTURES / "z6.alg"],
    ("cong",): [FIXTURES / "z6.alg"],
    ("freealg", "dump"): CTX_FM[:1],
    ("positivize",): CTX_FM,
    ("dfc", "verify"): CTX_FM,
    ("central", "list"): CTX_FM[:1],
    ("correspondence",): CTX_FM,
    ("pipeline",): CTX_FM,
}


@pytest.mark.parametrize("cap, message", [
    (["--max-size", "0"], "--max-size must be at least 1, got 0"),
    (["--pool-depth", "-1"], "--pool-depth must be at least 0, got -1"),
    (["--budget", "0"], "--budget must be at least 1, got 0"),
], ids=["max-size", "pool-depth", "budget"])
def test_nonpositive_cap_exits_2(capsys, cap, message):
    # a subcommand that takes the cap validates it; one that does not
    # refuses the flag itself
    for path, operands in CAP_ARGV.items():
        argv = [str(a) for a in [*path, *operands, *cap]]
        if cap[0] in OPTIONS[path]:
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", f"error: {message}\n")
            continue
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: unrecognized arguments: {' '.join(cap)}\n" in err


REMOVED = [
    (path, cap) for path in CAP_ARGV
    for cap in ("--pool-depth", "--max-size", "--budget")
    if cap not in OPTIONS[path]
]


@pytest.mark.parametrize(
    "path, cap", REMOVED, ids=[f"{' '.join(p)} {c}" for p, c in REMOVED])
def test_flag_a_subcommand_does_not_read_exits_2(path, cap):
    proc = run_module(*path, *CAP_ARGV[path], cap, "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: unrecognized arguments: {cap} 5\n" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_budget_flag(capsys):
    code, out = run_cli(
        capsys, "freealg", "dump", FIXTURES / "rings_z6.ctx",
        "--rank", "1", "--budget", "200",
    )
    assert code == 0
    assert "108 element(s)" in out


def test_positivize_ring(capsys):
    code, out = run_cli(
        capsys, "positivize", FIXTURES / "rings.ctx",
        FIXTURES / "formulas" / "ring_mixed.fm",
    )
    assert code == 0
    assert "chosen disjunct k = 0" in out
    assert "positive formula: exists w . z1 * x = z1 * y" in out
    assert "substitution re-verification: ok" in out


def test_positivize_output_reparses(capsys, rings_ctx):
    from factorlab.formulas import parse_formula

    code, out = run_cli(
        capsys, "positivize", FIXTURES / "rings.ctx",
        FIXTURES / "formulas" / "ring_mixed.fm", "--format", "machine",
    )
    assert code == 0
    data = json.loads(out)
    reparsed = parse_formula(data["phi_prime"], rings_ctx.signature, 1)
    assert reparsed.text() == data["phi_prime"]


def test_positivize_all_witnesses(capsys):
    code, out = run_cli(
        capsys, "positivize", FIXTURES / "rings.ctx",
        FIXTURES / "formulas" / "ring_mixed.fm", "--all-witnesses",
        "--format", "machine",
    )
    assert code == 0
    data = json.loads(out)
    # disjunct 0 admits every element of the 64-element product except the
    # parameter itself; the decoy needs x = y, false at the distinguished point
    assert len(data["all_witnesses"]) == 63
    assert all(entry["k"] == 0 for entry in data["all_witnesses"])


@pytest.mark.parametrize("extra", [(), ("--all-witnesses",)])
def test_positivize_builds_one_free_pair_context(capsys, monkeypatch, extra):
    import factorlab.cli
    import factorlab.freealg

    original = factorlab.freealg.free_pair_context
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(factorlab.cli, "free_pair_context", counting)
    monkeypatch.setattr(factorlab.freealg, "free_pair_context", counting)
    code, _ = run_cli(
        capsys, "positivize", FIXTURES / "rings.ctx",
        FIXTURES / "formulas" / "ring_mixed.fm", *extra, "--format", "machine",
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("formula, extra", [
    (REPO / "perfbench" / "w4.fm", ()),
    (FIXTURES / "formulas" / "ring_mixed.fm", ("--all-witnesses",)),
])
def test_positivize_builds_no_pool(capsys, monkeypatch, formula, extra):
    # the witness search reads the generator and the zero/one terms, and the
    # substitution re-check evaluates the generator alone
    def refused(*args, **kwargs):
        raise AssertionError("positivize built a pool")

    monkeypatch.setattr(factorlab.variety, "generate_pool", refused)
    code, out = run_cli(capsys, "positivize", FIXTURES / "rings.ctx", formula,
                        *extra, "--format", "machine")
    assert code == 0
    assert json.loads(out)["substitution_check"] == "ok"


def test_positivize_all_witnesses_searches_each_factor_once(capsys, monkeypatch):
    # one witness search per factor, F(x) and F(x,y); the first witness is
    # the head of the enumerated list
    from factorlab.formulas import DnfEvaluator

    original = DnfEvaluator.masked_witnesses
    calls = []

    def counting(self, *args):
        calls.append(self.algebra.size)
        return original(self, *args)

    monkeypatch.setattr(DnfEvaluator, "masked_witnesses", counting)
    code, out = run_cli(
        capsys, "positivize", FIXTURES / "rings.ctx", REPO / "perfbench" / "w4.fm",
        "--all-witnesses", "--format", "machine",
    )
    assert code == 0
    assert json.loads(out)["all_witnesses"] == [{"k": 0, "w": [1, 63, 63, 63]}]
    assert len(calls) == 2


@pytest.mark.parametrize("formula, cap, code", [
    ("not_dfc", None, 4),  # no witness
    ("ring_mixed", 39, 3),  # 40 candidates estimated
])
def test_positivize_all_witnesses_fails_as_without(capsys, monkeypatch, formula,
                                                    cap, code):
    if cap is not None:
        monkeypatch.setattr(factorlab.dfc, "DEFAULT_EVAL_CAP", cap)
    argv = ["positivize", str(FIXTURES / "rings.ctx"),
            str(FIXTURES / "formulas" / f"{formula}.fm"), "--format", "machine"]
    outcomes = []
    for extra in ([], ["--all-witnesses"]):
        outcomes.append((main(argv + extra), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code


def test_positivize_all_witnesses_over_cap_exits_3(capsys, monkeypatch):
    # 63 witnesses in the combined list; the first witness alone fits
    monkeypatch.setattr(factorlab.dfc, "DEFAULT_EVAL_CAP", 62)
    argv = ["positivize", str(FIXTURES / "rings.ctx"),
            str(FIXTURES / "formulas" / "ring_mixed.fm"), "--format", "machine"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--all-witnesses"]) == 3
    assert "63 combined witnesses exceed cap 62" in capsys.readouterr().err


# the only negative literal compares a term with itself, so it fails at every
# assignment of the bound variables and no witness exists
FOUR_VARIABLES = (
    "exists u v w t . (z1 * x = z1 * y and ((u * v) * w) * t != "
    "((u * v) * w) * t)"
)
SIX_VARIABLES = (
    "exists u v w t s r . (z1 * x = z1 * y and "
    "((((u * v) * w) * t) * s) * r != ((((u * v) * w) * t) * s) * r)"
)


def test_positivize_four_variables_without_witness_exits_4(capsys, tmp_path):
    # 4**4 + 16**4 candidates over F(x) and F(x,y), not 64**4 over their
    # product
    path = tmp_path / "four.fm"
    path.write_text(FOUR_VARIABLES, encoding="utf-8")
    start = time.perf_counter()
    code = main(["positivize", str(FIXTURES / "rings.ctx"), str(path)])
    elapsed = time.perf_counter() - start
    assert code == 4
    assert "distinguished assignment" in capsys.readouterr().err
    assert elapsed < 3.0


def test_positivize_six_variables_exits_3_before_searching(
    capsys, monkeypatch, tmp_path
):
    from factorlab.formulas import DnfEvaluator

    def no_search(*args):
        raise AssertionError("searched past the estimate")

    monkeypatch.setattr(DnfEvaluator, "masked_witnesses", no_search)
    path = tmp_path / "six.fm"
    path.write_text(SIX_VARIABLES, encoding="utf-8")
    start = time.perf_counter()
    code = main(["positivize", str(FIXTURES / "rings.ctx"), str(path)])
    elapsed = time.perf_counter() - start
    assert code == 3
    # 1 disjunct x (4**6 + 16**6)
    assert capsys.readouterr().err == (
        "error: positivize: estimated 16781312 witness candidates exceed cap "
        "10000000\n"
    )
    assert elapsed < 1.0


def test_positivize_no_witness_exits_4(capsys):
    code = main(["positivize", str(FIXTURES / "rings.ctx"),
                 str(FIXTURES / "formulas" / "not_dfc.fm")])
    err = capsys.readouterr().err
    assert code == 4
    assert "distinguished assignment" in err


def test_dfc_verify_ring_pass(capsys):
    code, out = run_cli(
        capsys, "dfc", "verify", FIXTURES / "rings.ctx",
        FIXTURES / "formulas" / "ring_dfc.fm",
    )
    assert code == 0
    assert "status: pass" in out


def test_dfc_verify_lattice_pass(capsys):
    code, out = run_cli(
        capsys, "dfc", "verify", FIXTURES / "lattices.ctx",
        FIXTURES / "formulas" / "lattice_dfc.fm",
    )
    assert code == 0


def test_dfc_verify_fail_exits_5(capsys):
    code, out = run_cli(
        capsys, "dfc", "verify", FIXTURES / "rings.ctx",
        FIXTURES / "formulas" / "not_dfc.fm",
    )
    assert code == 5
    assert "first counterexample" in out
    assert "direction <=" in out


def test_dfc_verify_builds_only_the_counterexamples_it_prints(capsys, monkeypatch):
    original = factorlab.dfc.DfcCounterexample
    built = []

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(factorlab.dfc, "DfcCounterexample", counting)
    argv = ("dfc", "verify", FIXTURES / "lattices.ctx",
            FIXTURES / "formulas" / "not_dfc.fm", "--pool-depth", "3",
            "--max-size", "16")
    # text mode prints the first counterexample and the next five
    code, out = run_cli(capsys, *argv)
    assert code == 5
    assert out.count("also: ") == 5
    assert 1 <= len(built) <= 6
    built.clear()
    code, out = run_cli(capsys, *argv, "--format", "machine")
    assert code == 5
    assert json.loads(out)["counterexample_count"] == 105254
    assert len(built) <= 1


def test_central_list(capsys):
    code, out = run_cli(capsys, "central", "list", FIXTURES / "rings_z6.ctx")
    assert code == 0
    assert "4 central element(s)" in out
    for e in (0, 1, 3, 4):
        assert f"e={e} " in out


def test_central_list_explicit_algebra(capsys):
    code, out = run_cli(
        capsys, "central", "list", FIXTURES / "lattices.ctx",
        "--algebra", FIXTURES / "l2x2.alg",
    )
    assert code == 0
    assert "4 central element(s)" in out


def test_correspondence(capsys):
    code, out = run_cli(
        capsys, "correspondence", FIXTURES / "rings_z6.ctx",
        FIXTURES / "formulas" / "ring_dfc.fm",
        "--max-size", "6", "--pool-depth", "1",
    )
    assert code == 0
    assert "status: pass" in out


def test_pipeline_ring(capsys):
    code, out = run_cli(
        capsys, "pipeline", FIXTURES / "rings.ctx",
        FIXTURES / "formulas" / "ring_mixed.fm",
    )
    assert code == 0
    assert "pipeline: pass" in out


def test_pipeline_sabotaged_formula_short_circuits(capsys):
    code, out = run_cli(
        capsys, "pipeline", FIXTURES / "rings.ctx",
        FIXTURES / "formulas" / "not_dfc.fm", "--format", "machine",
    )
    assert code == 5
    data = json.loads(out)
    assert data["failed_stage"] == "verify-input"
    assert [s["name"] for s in data["stages"]] == ["verify-input"]


def test_pipeline_text_gives_cause_and_coverage(capsys):
    # at depth 3, max 16, the pairs of 642 size products over 64 are skipped
    deep = ("--pool-depth", "3", "--max-size", "16")
    code, out = run_cli(capsys, "pipeline", FIXTURES / "lattices.ctx",
                        FIXTURES / "formulas" / "not_dfc.fm", *deep)
    assert code == 5
    assert out == (
        "stage 1 verify-input: fail (105254 counterexamples; first: A=C3 B=C3 "
        "a=0 b=0 c=0 d=1 direction <=; skipped over cap: 642)\n"
    )
    code, out = run_cli(capsys, "pipeline", FIXTURES / "lattices.ctx",
                        FIXTURES / "formulas" / "lattice_dfc.fm", *deep)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stage 1 verify-input: pass (skipped over cap: 642)"
    assert lines[2] == "stage 3 verify-positive: pass (skipped over cap: 642)"


@pytest.mark.parametrize("ctx, formula", [
    ("lattices", "lattice_mixed"), ("rings", "ring_mixed"),
])
def test_scaled_pipeline_builds_no_product_tables(capsys, monkeypatch, ctx, formula):
    # the two pipelines of perfbench's pipeline-scaled workload: the
    # correspondence stage used to build the tables of 4 and 3 products to
    # search them; it now composes every recorded product from its factors
    built = []
    product_tables = factorlab.core._product_tables

    def building(a, b):
        built.append((a.name, b.name))
        return product_tables(a, b)

    monkeypatch.setattr(factorlab.core, "_product_tables", building)
    code, out = run_cli(capsys, "pipeline", FIXTURES / f"{ctx}.ctx",
                        FIXTURES / "formulas" / f"{formula}.fm",
                        "--max-size", "16", "--format", "machine")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    assert built == []


def test_deep_pipeline_passes(capsys):
    # the depth-4, max-size-64 lattice pipeline: its correspondence stage
    # estimates 43,755 evaluations for all 245 members, where a member of
    # 64 elements alone was estimated at 16,777,216 and refused with exit 3
    code, out = run_cli(capsys, "pipeline", FIXTURES / "lattices.ctx",
                        FIXTURES / "formulas" / "lattice_mixed.fm",
                        "--pool-depth", "4", "--max-size", "64",
                        "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    members = data["stages"][-1]["members"]
    assert len(members) == 245
    assert sum(m["n_central"] for m in members) == 2677


def _run_pipeline_subprocess(fmt="machine"):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "factorlab", "pipeline",
         str(FIXTURES / "rings.ctx"),
         str(FIXTURES / "formulas" / "ring_mixed.fm"),
         "--format", fmt],
        capture_output=True, env=env, cwd=REPO, check=True,
    ).stdout


def test_pipeline_machine_output_deterministic():
    assert _run_pipeline_subprocess() == _run_pipeline_subprocess()


def test_closed_stdout_keeps_the_verdict_and_a_quiet_stderr():
    # the reader closes the pipe before the report is written
    for formula, verdict in (("lattice_mixed.fm", 0), ("not_dfc.fm", 5)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "factorlab", "dfc", "verify",
             str(FIXTURES / "lattices.ctx"), str(FIXTURES / "formulas" / formula),
             "--format", "machine"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        )
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stderr) == (verdict, b"")


def test_stdout_closed_from_the_start_exits_0_quietly():
    # with fd 1 closed at startup, sys.stdout is None and the report goes
    # nowhere
    proc = subprocess.run(
        [sys.executable, "-m", "factorlab", "algebra", "show",
         str(FIXTURES / "c2.alg")],
        stderr=subprocess.PIPE, cwd=REPO, preexec_fn=lambda: os.close(1),
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_exit_codes_are_distinct():
    from factorlab.cli import (
        EXIT_DFC_FAIL,
        EXIT_INTERNAL,
        EXIT_NO_WITNESS,
        EXIT_OK,
        EXIT_RESOURCE,
        EXIT_VALIDATION,
    )

    codes = [EXIT_OK, EXIT_VALIDATION, EXIT_RESOURCE, EXIT_NO_WITNESS,
             EXIT_DFC_FAIL, EXIT_INTERNAL]
    assert codes == [0, 2, 3, 4, 5, 6]
    assert len(set(codes)) == 6


def test_internal_check_failure_exits_6(capsys, monkeypatch):
    import factorlab.cli
    from factorlab.errors import InternalCheckError

    def failing(*args, **kwargs):
        raise InternalCheckError("central tuple not unique")

    monkeypatch.setattr(factorlab.cli, "central_elements", failing)
    code = main(["central", "list", str(FIXTURES / "rings.ctx")])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert captured.err == "internal error: central tuple not unique\n"


# -- coerced input and runaway nesting exit 2 ---------------------------------


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("table", [0, 1.9, 1, 0], "op 'f' table entry 1"),
        ("table", "0110", "op 'f' table"),
        ("size", 2.0, "'size'"),
        ("arity", False, "op 'f' arity"),
        ("name", 5, "'name' must be a string, got 5"),
        ("name", None, "'name' must be a string, got None"),
    ],
    ids=["float-entry", "string-table", "float-size", "bool-arity", "int-name",
         "null-name"],
)
def test_coerced_algebra_field_exits_2(capsys, tmp_path, field, value, named):
    data = {"name": "bad", "size": 2,
            "ops": {"f": {"arity": 2, "table": [0, 1, 1, 0]}}}
    if field in ("size", "name"):
        data[field] = value
    else:
        data["ops"]["f"][field] = value
    bad = tmp_path / "bad.alg"
    bad.write_text(json.dumps(data))
    assert main(["algebra", "show", str(bad)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, named",
    [("zero", "1", "'zero' must be a list"), ("l", 1.7, "'l' must be an integer"),
     ("l", 0, "error: tuple length l must be positive\n"),
     ("l", 2, "error: zero/one term tuples must have length l=2, got 1/1\n")],
    ids=["string-zero", "float-l", "zero-l", "l-over-the-tuples"],
)
def test_coerced_context_field_exits_2(capsys, tmp_path, field, value, named):
    data = {"generator": str(FIXTURES / "z2.alg"), "l": 1,
            "zero": ["1"], "one": ["0"], field: value}
    bad = tmp_path / "bad.ctx"
    bad.write_text(json.dumps(data))
    assert main(["central", "list", str(bad)]) == 2
    assert named in capsys.readouterr().err


# every fixture context has l = 1; sha256 of each machine stdout on a context
# over C3 with zero (0, 0) and one (1, 1)
L2_RUNS = {
    "dfc-verify": (("dfc", "verify", "CTX", "FM", "--pool-depth", "2",
                    "--max-size", "9"),
                   "7f9ca62557a148465c4072413012c37c60ff675d6682cd6db388f46e17761146"),
    "central-list": (("central", "list", "CTX", "--algebra",
                      FIXTURES / "l2x2.alg"),
                     "530c3265df214291140237368251d68334fb851ace6b3bc689c08d08920eded7"),
    "correspondence": (("correspondence", "CTX", "FM", "--algebra",
                        FIXTURES / "l2x2.alg"),
                       "d829c2e94b3852e8b05b3a044a6b96a3b86afbafde5ad519e19a6de40e75512f"),
    "pipeline": (("pipeline", "CTX", "FM", "--max-size", "9"),
                 "8605774ea01f3077b2924cf3671b49fcad735befa7ae802ad07e79568e596995"),
}


@pytest.mark.parametrize("run", sorted(L2_RUNS))
def test_l2_context_machine_output(capsys, tmp_path, run):
    ctx, formula = tmp_path / "l2.ctx", tmp_path / "l2.fm"
    ctx.write_text(json.dumps({"generator": str(FIXTURES / "c3.alg"), "l": 2,
                               "zero": ["0", "0"], "one": ["1", "1"]}))
    formula.write_text(r"x \/ z1 = y \/ z1 and x \/ z2 = y \/ z2" + "\n")
    argv, digest = L2_RUNS[run]
    argv = [{"CTX": ctx, "FM": formula}.get(a, a) for a in argv]
    code, out = run_cli(capsys, *argv, "--format", "machine")
    assert code == 0
    assert json.loads(out)["status"] in ("ok", "pass")
    if run == "central-list":
        assert [row["e"] for row in json.loads(out)["central"]] == [
            [3, 3], [1, 1], [2, 2], [0, 0]]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind", ["alg", "ctx", "generator", "fm"])
def test_non_utf8_file_exits_2(tmp_path, kind):
    bad = tmp_path / f"bad.{'alg' if kind == 'generator' else kind}"
    bad.write_bytes(b"\xff\xfe")
    if kind == "generator":
        ctx = tmp_path / "gen.ctx"
        ctx.write_text(json.dumps(
            {"generator": bad.name, "l": 1, "zero": ["1"], "one": ["0"]}))
        argv = ["central", "list", str(ctx)]
    else:
        argv = {
            "alg": ["algebra", "show", str(bad)],
            "ctx": ["central", "list", str(bad)],
            "fm": ["dfc", "verify", str(FIXTURES / "rings.ctx"), str(bad)],
        }[kind]
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot read '{bad}': ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "size, arity", [(2, 1_000_000), (10**2200, 2)], ids=["arity", "size"])
def test_huge_table_shape_exits_2_without_forming_the_power(tmp_path, size, arity):
    # neither 2**1000000 nor (10**2200)**2 can be printed, let alone built
    bad = tmp_path / "huge.alg"
    bad.write_text(json.dumps({"name": "H", "size": size, "ops": {
        "*": {"arity": arity, "table": [0, 0, 0, 1]}}}))
    start = time.perf_counter()
    proc = run_module("algebra", "show", bad)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: algebra 'H': table for '*' has length 4, "
        f"expected {size}**{arity}\n")
    assert elapsed < 1.0


def test_pool_lattice_past_the_cell_cap_exits_3(tmp_path):
    # a constant and f(x) = 0 make every partition of K2^k a congruence:
    # K2^3 has Bell(8) = 4,140, and K2^4 would have Bell(16), about 10^10
    ctx = tmp_path / "k2.ctx"
    ctx.write_text(json.dumps({
        "generator": {"name": "K2", "size": 2, "ops": {
            "c": {"arity": 0, "table": [0]},
            "f": {"arity": 1, "table": [0, 0]}}},
        "l": 1, "zero": ["c"], "one": ["f(c)"]}))
    formula = tmp_path / "eq.fm"
    formula.write_text("x = y")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "factorlab", "dfc", "verify", str(ctx),
         str(formula), "--pool-depth", "3", "--max-size", "16"],
        capture_output=True, text=True, cwd=REPO, timeout=10,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: all_congruences: estimated ")
    assert proc.stderr.endswith(f" lattice cells for 'K2xK2xK2xK2' exceed cap "
                                f"{LATTICE_CELL_CAP}\n")


@pytest.mark.parametrize("kind", ["alg", "ctx", "generator"])
def test_integer_past_the_digit_limit_exits_2(tmp_path, kind):
    # json.loads refuses an integer of more than 4,300 digits with a plain
    # ValueError, not a JSONDecodeError
    huge = "1" + "0" * 5000
    algebra = '{"name": "H", "size": %s, "ops": {"f": {"arity": 1, "table": [0]}}}'
    context = '{"generator": %s, "l": %s, "zero": ["1"], "one": ["0"]}'
    bad = tmp_path / ("bad.alg" if kind == "alg" else "bad.ctx")
    bad.write_text({
        "alg": algebra % huge,
        "ctx": context % (json.dumps(str(FIXTURES / "z2.alg")), huge),
        "generator": context % (algebra % huge, 1),
    }[kind])
    argv = ["algebra", "show", bad] if kind == "alg" else ["central", "list", bad]
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: '{bad}' ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_freealg_dump_text_renders_only_the_terms_it_prints(capsys, monkeypatch):
    rendered = []
    term_text = cli.term_text

    def counting(t):
        rendered.append(t)
        return term_text(t)

    monkeypatch.setattr(cli, "term_text", counting)
    code, out = run_cli(capsys, "freealg", "dump", FIXTURES / "boolean.ctx",
                        "--rank", "3")
    assert code == 0
    assert "256 element(s)" in out
    # the first 16 of 256 witness terms, where the unprinted machine payload
    # used to render all of them
    printed = [line for line in out.splitlines() if line.startswith("  ")]
    assert len(rendered) == len(printed) == 16


def test_freealg_dump_of_deep_witnesses(capsys, tmp_path):
    # the unary cycle s(a) = a + 1 mod 340: the witnesses of x + 339 and of
    # the constant 339 nest s 339 deep, past the recursion limit in printing
    n = 340
    ctx = tmp_path / "cycle.ctx"
    ctx.write_text(json.dumps({
        "generator": {"name": "C340", "size": n, "ops": {
            "0": {"arity": 0, "table": [0]},
            "s": {"arity": 1, "table": [(a + 1) % n for a in range(n)]}}},
        "l": 1, "zero": ["0"], "one": ["s(0)"]}))
    code = main(["freealg", "dump", str(ctx), "--rank", "1", "--format", "machine"])
    terms = json.loads(capsys.readouterr().out)["terms"]
    assert code == 0
    assert len(terms) == 2 * n
    deepest = {"s(" * (n - 1) + v + ")" * (n - 1) for v in ("x", "0")}
    assert deepest <= set(terms)


def test_deeply_nested_formula_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.fm"
    deep.write_text("(" * 3000 + "x = y" + ")" * 3000)
    code = main(["dfc", "verify", str(FIXTURES / "rings.ctx"), str(deep)])
    assert code == 2
    assert "nested too deeply" in capsys.readouterr().err


def _c2_with(symbol, arity):
    """The c2.alg fixture with one more operation, constant 1 or identity."""
    data = json.loads((FIXTURES / "c2.alg").read_text())
    data["ops"][symbol] = {"arity": arity, "table": [1] if arity == 0 else [0, 1]}
    return data


@pytest.mark.parametrize("symbol, arity", [("x", 0), ("y", 1), ("z1", 0)])
def test_symbol_named_like_a_role_exits_2(capsys, tmp_path, symbol, arity):
    # read as the constant 1, "x = y" used to fail at a = b = c = d = 0, a
    # point where the roles' x = y holds
    ctx = tmp_path / "shadow.ctx"
    ctx.write_text(json.dumps({"generator": _c2_with(symbol, arity), "l": 1,
                               "zero": ["0"], "one": ["1"]}))
    formula = tmp_path / "eq.fm"
    formula.write_text("x = y")
    assert main(["dfc", "verify", str(ctx), str(formula)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: symbol '{symbol}' shadows a role name\n"


@pytest.mark.parametrize("symbol, rank, shadows", [
    ("x", 1, True), ("y", 1, False), ("y", 2, True), ("x2", 3, True),
    ("x4", 3, False), ("x03", 3, False), ("x10", 12, True),
])
def test_dump_refuses_a_symbol_named_like_a_generator(capsys, tmp_path, symbol,
                                                      rank, shadows):
    # the dump used to print the constant and the generator as one term
    ctx = tmp_path / "shadow.ctx"
    ctx.write_text(json.dumps({"generator": _c2_with(symbol, 0), "l": 1,
                               "zero": ["0"], "one": ["1"]}))
    code = main(["freealg", "dump", str(ctx), "--rank", str(rank),
                 "--format", "machine"])
    captured = capsys.readouterr()
    if shadows:
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: symbol '{symbol}' shadows a generator variable\n")
    else:
        terms = json.loads(captured.out)["terms"]
        assert code == 0 and len(set(terms)) == len(terms)


def test_dump_compares_generator_numbers_by_value():
    signature = Signature((("x9", 0), ("x12", 0), ("x13", 0), ("x" + "1" * 5000, 0)))
    assert cli._shadowed_variable(signature, 10) == "x9"
    assert cli._shadowed_variable(Signature(signature.symbols[1:]), 12) == "x12"
    assert cli._shadowed_variable(Signature(signature.symbols[2:]), 12) is None


# -- fuzzed input only ever exits 0, 2, 3, 4, 5 or 6 ---------------------------

_C2 = json.loads((FIXTURES / "c2.alg").read_text())
_CONTEXT = {"generator": "c2.alg", "l": 1, "zero": ["0"], "one": ["1"]}
_HUGE = "\0huge\0"  # stands for an integer past json's 4,300-digit limit
_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.integers(-1, 3), st.sampled_from([10**30, 10**4000, _HUGE]),
    st.lists(st.integers(-1, 3), max_size=5),
    st.dictionaries(st.sampled_from(["arity", "table", "name"]),
                    st.integers(0, 2), max_size=2),
)
_FORMULAS = [
    "x = y", r"x \/ z1 = y \/ z1", r"exists w . x /\ w = y", "x != y or x = y",
    "x = ", "forall w . x = y", "exists x . x = y", "frob(x) = y", "z2 = x",
    "", "x = y = z1", "((x = y)", r"\/(x) = y", "# a comment alone",
    "exists w w . x = w", "x ≠ y",
]
_COMMANDS = [
    ["algebra", "show", "{alg}"],
    ["cong", "{alg}", "--factor-pairs"],
    ["cong", "{alg}", "--compactness", "0,1"],
    ["central", "list", "{ctx}"],
    ["dfc", "verify", "{ctx}", "{fm}", "--pool-depth", "1"],
    ["pipeline", "{ctx}", "{fm}", "--pool-depth", "1"],
    ["freealg", "dump", "{ctx}"],
]


def _paths(data, prefix=()):
    """The key path of every value nested in `data`'s dicts and lists."""
    items = (data.items() if isinstance(data, dict)
             else enumerate(data) if isinstance(data, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_files(draw):
    """The c2 fixture and a context over it, with up to three values dropped
    or replaced; the generator is a path or inline; a formula text drawn
    from a set of well-formed and malformed ones."""
    files = {"alg": json.loads(json.dumps(_C2)),
             "ctx": json.loads(json.dumps(_CONTEXT))}
    if draw(st.booleans()):
        files["ctx"]["generator"] = files["alg"]
    for _ in range(draw(st.integers(0, 3))):
        data = files[draw(st.sampled_from(["alg", "ctx"]))]
        *parent, key = draw(st.sampled_from(list(_paths(data))))
        for k in parent:
            data = data[k]
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(_VALUES)
    return files["alg"], files["ctx"], draw(st.sampled_from(_FORMULAS))


def _json_text(data) -> str:
    return json.dumps(data).replace(json.dumps(_HUGE), "1" + "0" * 5000)


@given(mutated_files())
@example((_c2_with("x", 0), _CONTEXT, "x = y"))
@example((_C2, dict(_CONTEXT, generator=_c2_with("y", 1)), "x = y"))
def test_fuzzed_input_exits_with_a_documented_code(files):
    alg, ctx, formula = files
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"alg": Path(tmp) / "c2.alg", "ctx": Path(tmp) / "c2.ctx",
                 "fm": Path(tmp) / "phi.fm"}
        paths["alg"].write_text(_json_text(alg))
        paths["ctx"].write_text(_json_text(ctx))
        paths["fm"].write_text(formula)
        for command in _COMMANDS:
            argv = [arg.format(**paths) for arg in command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4, 5, 6), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue()


def test_scripts_run_against_the_public_api():
    # both scripts import the package directly; a name they use that leaves
    # the API fails here rather than at a user's shell
    for script in ("survey_corpus.py", "demo_pipeline.py"):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / script)],
            capture_output=True, text=True, cwd=REPO, timeout=60,
        )
        assert proc.returncode == 0, f"{script}: {proc.stderr}"
