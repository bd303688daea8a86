"""CLI reports on fixed representation files, compared byte for byte.

`cli_golden/cases.json` maps each case to its argv and exit code; the
expected stdout is `cli_golden/reports/<case>.json`.  The CLI runs from
inside `cli_golden/`, so the input paths in the reports stay relative.
"""

import json
from pathlib import Path

import pytest

from ssred.cli import main

GOLDEN = Path(__file__).parent / "cli_golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, monkeypatch, capsys):
    case = CASES[name]
    monkeypatch.chdir(GOLDEN)
    assert main(case["argv"]) == case["exit"]
    expected = (GOLDEN / "reports" / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
