"""Byte-for-byte replay of the CLI invocations recorded by
scripts/record_golden.py: every subcommand over the fixture corpus."""
import json

from conftest import REPO
from factorlab.cli import main


def test_cli_output_matches_golden_file(capsys, monkeypatch):
    cases = json.loads((REPO / "tests" / "golden_cli.json").read_text("utf-8"))
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("FACTORLAB_BUDGET", raising=False)
    mismatches = []
    for case in cases:
        code = main(case["argv"])
        out = capsys.readouterr().out
        if (code, out) != (case["exit"], case["stdout"]):
            mismatches.append(" ".join(case["argv"]))
    assert len(cases) == 104
    assert mismatches == []
