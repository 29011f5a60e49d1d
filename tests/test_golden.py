"""Byte-for-byte replay of the CLI invocations recorded by
scripts/record_golden.py: every subcommand over the fixture corpus, with its
stdout, stderr and exit code."""
import json

from conftest import REPO
from factorlab.cli import main


def test_cli_output_matches_golden_file(capsys, monkeypatch):
    cases = json.loads((REPO / "tests" / "golden_cli.json").read_text("utf-8"))
    monkeypatch.chdir(REPO)
    mismatches = []
    for case in cases:
        code = main(case["argv"])
        captured = capsys.readouterr()
        if (code, captured.out, captured.err) != (
            case["exit"], case["stdout"], case["stderr"]
        ):
            mismatches.append(" ".join(case["argv"]))
    assert len(cases) == 112
    assert mismatches == []
