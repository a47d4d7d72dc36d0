"""Rule-engine tests against the deliberately-broken fixture tree.

Every fixture line that must fire carries a trailing ``# expect: RULE``
marker (comma-separated for multiple rules).  The tests assert the linter
reports *exactly* the marked ``(file, line, rule)`` set — each rule fires
where expected, nowhere else, and ``# repro-lint: ignore[...]`` lines stay
silent.  Inline trees cover suppression blocks, ``--ignore`` filtering
and the statistics renderer.
"""

import json
import pathlib
import re

import pytest

from repro.analysis import run_analysis
from repro.analysis.config import LintConfig
from repro.analysis.engine import Violation, discover
from repro.analysis.report import render_json, render_statistics, render_text
from repro.analysis.rules import ALL_RULES, RULES_BY_CODE, active_rules

FIXTURES = pathlib.Path(__file__).parent / "analysis_fixtures"
_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+)")

ALL_CODES = sorted(RULES_BY_CODE)


def expected_findings(rule=None):
    """{(relative file, line, rule), ...} scanned from fixture markers."""
    expected = set()
    for path in sorted(FIXTURES.rglob("*.py")):
        rel = path.relative_to(FIXTURES).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _EXPECT_RE.search(line)
            if match is None:
                continue
            for code in match.group(1).split(","):
                code = code.strip()
                if code and (rule is None or code == rule):
                    expected.add((rel, lineno, code))
    return expected


def reported_findings(select=None):
    violations = run_analysis([FIXTURES], select=select)
    reported = set()
    for violation in violations:
        rel = pathlib.Path(violation.path).relative_to(FIXTURES).as_posix()
        reported.add((rel, violation.line, violation.rule))
    return reported


class TestFixtureMarkers:
    def test_fixtures_present_and_marked(self):
        expected = expected_findings()
        assert expected, "fixture tree lost its expect markers"
        # one seeded violation per rule, at minimum
        assert {code for _, _, code in expected} == set(ALL_CODES)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_rule_fires_exactly_where_expected(self, code):
        assert reported_findings(select=[code]) == expected_findings(rule=code)

    def test_all_rules_together_match_all_markers(self):
        assert reported_findings() == expected_findings()

    def test_suppression_comments_stay_silent(self):
        ignored_lines = set()
        for path in sorted(FIXTURES.rglob("*.py")):
            rel = path.relative_to(FIXTURES).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if "repro-lint: ignore" in line:
                    ignored_lines.add((rel, lineno))
        assert ignored_lines, "fixture tree lost its suppression demos"
        fired = {(rel, line) for rel, line, _ in reported_findings()}
        assert not ignored_lines & fired


class TestEngine:
    def test_relative_paths_and_subsystems(self):
        project, errors = discover([FIXTURES])
        assert errors == []
        relpaths = {module.relpath for module in project.modules}
        assert "hv/bad_calibration.py" in relpaths
        assert "hw/costs.py" in relpaths
        module = project.module("hv/bad_calibration.py")
        assert module.subsystem == "hv"

    def test_package_files_strip_through_repro(self, tmp_path):
        # a file inside the real package resolves relative to repro/
        import repro.hv.base as base_mod

        project, errors = discover([base_mod.__file__])
        assert errors == []
        assert project.modules[0].relpath == "hv/base.py"

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        violations = run_analysis([tmp_path])
        assert len(violations) == 1
        assert violations[0].rule == "E001"

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(KeyError):
            run_analysis([FIXTURES], select=["NOPE999"])

    def test_bare_ignore_suppresses_every_rule(self, tmp_path):
        target = tmp_path / "hv"
        target.mkdir()
        (target / "mod.py").write_text(
            "def f(pcpu):\n"
            "    yield pcpu.op('x', 6000, 'host')  # repro-lint: ignore\n"
        )
        assert run_analysis([tmp_path], select=["CAL001"]) == []

    def test_violation_format_is_precise(self):
        violations = run_analysis([FIXTURES], select=["API001"])
        assert len(violations) == 1
        formatted = violations[0].format()
        assert re.search(r"bad_address\.py:\d+:\d+ API001 ", formatted)


class TestConfig:
    def test_defaults_match_issue_scoping(self):
        config = LintConfig()
        assert config.paths_for("CAL001") == ("hv", "os", "core")
        assert config.paths_for("API001") == ("hv",)
        assert config.paths_for("COV001") == ("hv", "os", "hw")

    def test_select_resolution_order(self):
        config = LintConfig(select=("CAL001",))
        assert [rule.code for rule in active_rules(config)] == ["CAL001"]
        # CLI select overrides config select
        assert [rule.code for rule in active_rules(config, ["DET001"])] == ["DET001"]
        assert active_rules(LintConfig()) is ALL_RULES

    def test_minimal_toml_fallback_parses_our_block(self):
        from repro.analysis.config import _parse_toml_minimal

        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        data = _parse_toml_minimal(pyproject.read_text())
        section = data["tool"]["repro-lint"]
        assert section["select"] == ["CAL001", "DET001", "COV001", "API001"]
        assert section["paths"]["API001"] == ["hv"]
        assert section["options"]["cal001-min-literal"] == 50
        assert section["options"]["det001-allow"] == ["sim/rng.py"]

    def test_load_from_repo_pyproject(self):
        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        config = LintConfig.load(pyproject)
        assert config.select == ("CAL001", "DET001", "COV001", "API001")
        assert "workloads" in config.paths_for("COV001")
        assert config.cal001_min_literal == 50
        assert config.det001_allow == ("sim/rng.py",)
        assert config.paths_for("API001") == ("hv",)

    def test_scoping_excludes_out_of_scope_subsystem(self, tmp_path):
        workloads = tmp_path / "workloads"
        workloads.mkdir()
        (workloads / "mod.py").write_text("def f():\n    return 1 // 8192\n")
        # default CAL001 scope is hv/os/core — workloads/ stays quiet...
        assert run_analysis([tmp_path], select=["CAL001"]) == []
        # ...until a config scopes the rule onto it
        config = LintConfig()
        config.rule_paths["CAL001"] = ("workloads",)
        assert len(run_analysis([tmp_path], config=config, select=["CAL001"])) == 1


#: an anonymous cycle-scale cost in hv/, which CAL001 flags at line 2
INLINE_COST = (
    "def charge(pcpu):\n"
    "    yield pcpu.op('mystery', 6000, 'host')\n"
)


def write_hv_module(tmp_path, source):
    target = tmp_path / "hv"
    target.mkdir()
    (target / "mod.py").write_text(source)
    return tmp_path


class TestSuppressionBlocks:
    def test_block_comment_above_def_suppresses(self, tmp_path):
        tree = write_hv_module(
            tmp_path,
            "def charge(pcpu):\n"
            "    # A reviewed inline cost.\n"
            "    # repro-lint: ignore[CAL001]\n"
            "    # (justification continues over several lines\n"
            "    #  before the code starts.)\n"
            "    yield pcpu.op('mystery', 6000, 'host')\n",
        )
        assert run_analysis([tree], select=["CAL001"]) == []

    def test_directive_mid_block_still_attaches_to_code(self, tmp_path):
        tree = write_hv_module(
            tmp_path,
            "def charge(pcpu):\n"
            "    # preamble line without the directive\n"
            "    # repro-lint: ignore[CAL001]\n"
            "    yield pcpu.op('mystery', 6000, 'host')\n",
        )
        assert run_analysis([tree], select=["CAL001"]) == []

    def test_unrelated_code_not_suppressed(self, tmp_path):
        tree = write_hv_module(
            tmp_path,
            "def charge(pcpu):\n"
            "    # repro-lint: ignore[API001]\n"
            "    yield pcpu.op('mystery', 6000, 'host')\n",
        )
        # the block names a different rule — CAL001 still fires
        assert len(run_analysis([tree], select=["CAL001"])) == 1

    def test_prefix_suppression_waives_matching_rules(self, tmp_path):
        tree = write_hv_module(
            tmp_path,
            "def charge(pcpu):\n"
            "    # repro-lint: ignore[CAL]\n"
            "    yield pcpu.op('mystery', 6000, 'host')\n",
        )
        # the prefix covers every CAL* rule on the attached line
        assert run_analysis([tree], select=["CAL001"]) == []


class TestIgnoreAndStatistics:
    def test_ignore_drops_rule(self, tmp_path):
        tree = write_hv_module(tmp_path, INLINE_COST)
        assert len(run_analysis([tree])) >= 1
        remaining = run_analysis([tree], ignore=["CAL001"])
        assert all(v.rule != "CAL001" for v in remaining)

    def test_ignore_is_case_insensitive(self, tmp_path):
        tree = write_hv_module(tmp_path, INLINE_COST)
        remaining = run_analysis([tree], ignore=["cal001"])
        assert all(v.rule != "CAL001" for v in remaining)

    def test_ignore_accepts_rule_prefix(self, tmp_path):
        tree = write_hv_module(tmp_path, INLINE_COST)
        remaining = run_analysis([tree], ignore=["CAL"])
        assert all(not v.rule.startswith("CAL") for v in remaining)

    def test_unknown_ignore_entry_is_an_error(self, tmp_path):
        tree = write_hv_module(tmp_path, INLINE_COST)
        with pytest.raises(KeyError) as excinfo:
            run_analysis([tree], ignore=["NOPE999"])
        assert "NOPE999" in excinfo.value.args[0]
        # near-miss prefixes don't silently no-op either
        with pytest.raises(KeyError):
            run_analysis([tree], ignore=["CAL9"])

    def test_statistics_rendering(self, tmp_path):
        tree = write_hv_module(tmp_path, INLINE_COST)
        violations = run_analysis([tree])
        assert "CAL001" in render_statistics(violations)
        text = render_text(violations, statistics=True)
        assert "CAL001" in text.splitlines()[-2]
        payload = json.loads(render_json(violations, statistics=True))
        assert payload["statistics"]["CAL001"] >= 1

    def test_json_omits_statistics_by_default(self):
        payload = json.loads(render_json([]))
        assert "statistics" not in payload

    def test_statistics_on_clean_tree(self):
        assert "0 findings" in render_statistics([])

    def test_statistics_sorted_by_count_then_code(self):
        def fire(rule, count):
            return [
                Violation("m.py", index + 1, 0, rule, "x") for index in range(count)
            ]

        violations = fire("DET001", 1) + fire("CAL001", 3) + fire("API001", 3)
        lines = render_statistics(violations).splitlines()
        # most frequent first; equal counts tie-break on the code
        assert [line.split()[1] for line in lines] == [
            "API001", "CAL001", "DET001", "total",
        ]
