"""CLI tests for the model-integrity linter.

Covers both entry points: ``python -m repro.analysis`` (the dedicated
tool) and ``python -m repro lint`` (the forwarding subcommand).
"""

import json
import pathlib
import re

from repro import cli as repro_cli
from repro.analysis import cli as lint_cli

REPO = pathlib.Path(__file__).parent.parent
SRC_TREE = str(REPO / "src" / "repro")
FIXTURES = str(REPO / "tests" / "analysis_fixtures")


def test_clean_tree_exits_zero(capsys):
    assert lint_cli.main([SRC_TREE]) == 0
    out = capsys.readouterr().out
    assert "clean: no model-integrity findings" in out


def test_fixtures_exit_one_with_precise_locations(capsys):
    assert lint_cli.main(["--no-config", FIXTURES]) == 1
    out = capsys.readouterr().out
    # every finding line is file:line:col RULE message
    finding_lines = [
        line for line in out.splitlines() if line and not line.startswith(" ")
    ]
    located = [
        line
        for line in finding_lines
        if re.match(r".+\.py:\d+:\d+ [A-Z]{3}\d{3} .+", line)
    ]
    assert located, out
    assert "bad_calibration.py" in out
    assert "CAL001" in out
    assert re.search(r"\d+ findings \(", out)


def test_json_format_parses_and_counts(capsys):
    assert lint_cli.main(["--no-config", "--format", "json", FIXTURES]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["violations"]) > 0
    sample = payload["violations"][0]
    assert set(sample) == {"path", "line", "col", "rule", "message"}


def test_select_restricts_rules(capsys):
    assert lint_cli.main(["--no-config", "--select", "DET001", FIXTURES]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "CAL001" not in out


def test_list_rules(capsys):
    assert lint_cli.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("CAL001", "DET001", "COV001", "API001"):
        assert code in out


def test_missing_path_exits_two(capsys):
    assert lint_cli.main(["/no/such/tree"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_unknown_rule_exits_two(capsys):
    assert lint_cli.main(["--select", "NOPE999", SRC_TREE]) == 2
    assert "NOPE999" in capsys.readouterr().err


def test_repro_lint_subcommand_forwards(capsys):
    assert repro_cli.main(["lint", SRC_TREE]) == 0
    assert "clean" in capsys.readouterr().out
    assert repro_cli.main(["lint", "--no-config", FIXTURES]) == 1
    assert "findings" in capsys.readouterr().out


def test_repro_lint_propagates_exit_status_without_breaking_reports(capsys):
    # report commands still return 0 through the new dispatch
    assert repro_cli.main(["table3"]) == 0
    assert capsys.readouterr().out
