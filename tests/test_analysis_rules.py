"""Rule-engine tests against the deliberately-broken fixture tree.

Every fixture line that must fire carries a trailing ``# expect: RULE``
marker (comma-separated for multiple rules).  The tests assert the linter
reports *exactly* the marked ``(file, line, rule)`` set — each rule fires
where expected, nowhere else, and ``# repro-lint: ignore[...]`` lines stay
silent.
"""

import pathlib
import re

import pytest

from repro.analysis import run_analysis
from repro.analysis.config import LintConfig
from repro.analysis.engine import discover
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
    # flow/spec=True: the fixture tree seeds those tiers too
    violations = run_analysis([FIXTURES], select=select, flow=True, spec=True)
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
        assert "hv/bad_world_switch.py" in relpaths
        assert "hw/costs.py" in relpaths
        module = project.module("hv/bad_world_switch.py")
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
        violations = run_analysis([FIXTURES], select=["DES001"])
        assert len(violations) == 1
        formatted = violations[0].format()
        assert re.search(r"bad_world_switch\.py:\d+:\d+ DES001 ", formatted)


class TestConfig:
    def test_defaults_match_issue_scoping(self):
        config = LintConfig()
        assert config.paths_for("CAL001") == ("hv", "os", "core")
        assert config.paths_for("API001") == ("hv",)
        assert config.paths_for("DES001") == ()  # whole tree

    def test_select_resolution_order(self):
        config = LintConfig(select=("CAL001",))
        assert [rule.code for rule in active_rules(config)] == ["CAL001"]
        # CLI select overrides config select
        assert [rule.code for rule in active_rules(config, ["DES001"])] == ["DES001"]
        assert active_rules(LintConfig(), flow=True, spec=True) is ALL_RULES

    def test_flow_tier_gated_behind_flag(self):
        # without --flow, the CFG-based rules stay out of the default set
        default_codes = {rule.code for rule in active_rules(LintConfig())}
        assert {"SYM001", "SYM002"} & default_codes == set()
        # an explicit select runs a flow rule even without the flag
        assert [r.code for r in active_rules(LintConfig(), ["SYM001"])] == ["SYM001"]

    def test_spec_tier_gated_behind_flag(self):
        # without --spec, the golden-file rules stay out of the default set
        default_codes = {rule.code for rule in active_rules(LintConfig())}
        assert {"SPEC001", "SPEC002"} & default_codes == set()
        flow_codes = {rule.code for rule in active_rules(LintConfig(), flow=True)}
        assert {"SPEC001", "SPEC002"} & flow_codes == set()
        # an explicit select runs a spec rule even without the flag
        assert [r.code for r in active_rules(LintConfig(), ["SPEC002"])] == ["SPEC002"]

    def test_minimal_toml_fallback_parses_our_block(self):
        from repro.analysis.config import _parse_toml_minimal

        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        data = _parse_toml_minimal(pyproject.read_text())
        section = data["tool"]["repro-lint"]
        assert section["select"] == [
            "CAL001", "DET001", "DES001", "COV001", "API001",
            "SYM001", "SYM002", "SPEC001", "SPEC002",
        ]
        assert section["paths"]["API001"] == ["hv"]
        assert section["paths"]["SYM001"] == ["hv"]
        assert section["paths"]["SPEC001"] == ["hv"]
        assert section["paths"]["DES001"] == []
        assert section["options"]["cal001-min-literal"] == 50
        assert section["options"]["spec-dir"] == "specs"

    def test_load_from_repo_pyproject(self):
        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        config = LintConfig.load(pyproject)
        assert config.select == (
            "CAL001", "DET001", "DES001", "COV001", "API001",
            "SYM001", "SYM002", "SPEC001", "SPEC002",
        )
        assert "workloads" in config.paths_for("COV001")
        assert config.cal001_min_literal == 50
        assert config.det001_allow == ("sim/rng.py",)
        assert config.paths_for("SYM002") == ("hv",)
        assert config.flow_max_paths == 2000
        # relative spec-dir resolves against the pyproject's directory
        assert config.spec_dir == str(pyproject.parent / "specs")

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
