"""Unit tests for the flow tier: effect extraction, rule behavior on
inline sources, suppression-block attachment, ``--ignore`` filtering and
the statistics renderer."""

import json
import textwrap

from repro.analysis import run_analysis
from repro.analysis.config import LintConfig
from repro.analysis.engine import Project, SourceModule
from repro.analysis.report import render_json, render_statistics, render_text
from repro.analysis.rules import RULES_BY_CODE


def check(code, source, relpath="hv/mod.py", config=None):
    """Run one flow rule over an inline source string."""
    module = SourceModule("/virtual/" + relpath, relpath, textwrap.dedent(source))
    rule = RULES_BY_CODE[code]
    violations = list(rule.check(Project([module]), config or LintConfig()))
    return [(v.line, v.message) for v in violations]


class TestSym001Tokens:
    def test_subscript_token_from_loop_binding(self):
        # costs.save[reg_class] with reg_class bound by the for loop:
        # the token is the (dotted) iterable name, shared by both sweeps
        findings = check(
            "SYM001",
            """\
            def switch(pcpu, costs, order):
                for reg_class in order.classes:
                    yield pcpu.op("s", costs.save[reg_class], "save")
                for reg_class in order.classes:
                    yield pcpu.op("r", costs.restore[reg_class], "restore")
            """,
        )
        assert findings == []

    def test_mismatched_tokens_fire(self):
        findings = check(
            "SYM001",
            """\
            def switch(pcpu, costs):
                yield pcpu.op("save_gp", costs.save_gp, "save")
                yield pcpu.op("restore_fp", costs.restore_fp, "restore")
            """,
        )
        assert len(findings) == 2  # gp never restored AND fp never saved

    def test_attribute_subscript_token(self):
        findings = check(
            "SYM001",
            """\
            def switch(pcpu, costs):
                yield pcpu.op("s", costs.save[RegClass.VGIC], "save")
                yield pcpu.op("r", costs.restore[RegClass.VGIC], "restore")
            """,
        )
        assert findings == []

    def test_context_moves_counted_not_tokenized(self):
        findings = check(
            "SYM001",
            """\
            def resched(pcpu, this, next_ctx):
                pcpu.save_context(this)
                if next_ctx is None:
                    return
                pcpu.load_context(next_ctx)
            """,
        )
        assert len(findings) == 1
        assert "context" in findings[0][1]

    def test_one_sided_function_flagged_at_def(self):
        findings = check(
            "SYM001",
            """\
            def save_half(pcpu, costs):
                yield pcpu.op("save_gp", costs.save_gp, "save")
            """,
        )
        assert [line for line, _ in findings] == [1]

    def test_non_hv_relpath_out_of_default_scope(self):
        config = LintConfig()
        config.rule_paths["SYM001"] = ("hv",)
        findings = check(
            "SYM001",
            """\
            def save_half(pcpu, costs):
                yield pcpu.op("save_gp", costs.save_gp, "save")
            """,
            relpath="workloads/mod.py",
            config=config,
        )
        assert findings == []


class TestSym002:
    def test_needs_both_kinds_present(self):
        # an exit-half function (eret only) is legitimate: it was entered
        # in hypervisor context by construction
        findings = check(
            "SYM002",
            """\
            def finish(pcpu):
                pcpu.arch.eret("el1")
            """,
        )
        assert findings == []

    def test_early_raise_between_pair(self):
        findings = check(
            "SYM002",
            """\
            def handle(pcpu, vcpu):
                pcpu.arch.trap_to_el2("wfi")
                if vcpu.dead:
                    raise RuntimeError("gone")
                pcpu.arch.eret("el1")
            """,
        )
        assert len(findings) == 1
        line, message = findings[0]
        assert line == 2
        assert "raises at line 4" in message

    def test_virt_disable_without_reenable(self):
        findings = check(
            "SYM002",
            """\
            def run_host(pcpu, fast):
                pcpu.disable_virt_features()
                if fast:
                    return
                pcpu.enable_virt_features()
            """,
        )
        assert len(findings) == 1
        assert "returns at line 4" in findings[0][1]


class TestSuppressionBlocks:
    def test_block_comment_above_def_suppresses(self, tmp_path):
        target = tmp_path / "hv"
        target.mkdir()
        (target / "mod.py").write_text(
            "# The exit half of a deliberately split pair.\n"
            "# repro-lint: ignore[SYM001]\n"
            "# (justification continues over several lines\n"
            "#  before the code starts.)\n"
            "def save_half(pcpu, costs):\n"
            "    yield pcpu.op('save_gp', costs.save_gp, 'save')\n"
        )
        assert run_analysis([tmp_path], select=["SYM001"]) == []

    def test_directive_mid_block_still_attaches_to_code(self, tmp_path):
        target = tmp_path / "hv"
        target.mkdir()
        (target / "mod.py").write_text(
            "# preamble line without the directive\n"
            "# repro-lint: ignore[SYM001]\n"
            "def save_half(pcpu, costs):\n"
            "    yield pcpu.op('save_gp', costs.save_gp, 'save')\n"
        )
        assert run_analysis([tmp_path], select=["SYM001"]) == []

    def test_unrelated_code_not_suppressed(self, tmp_path):
        target = tmp_path / "hv"
        target.mkdir()
        (target / "mod.py").write_text(
            "# repro-lint: ignore[SYM002]\n"
            "def save_half(pcpu, costs):\n"
            "    yield pcpu.op('save_gp', costs.save_gp, 'save')\n"
        )
        # the block names a different rule — SYM001 still fires
        assert len(run_analysis([tmp_path], select=["SYM001"])) == 1

    def test_prefix_suppression_waives_the_tier(self, tmp_path):
        target = tmp_path / "hv"
        target.mkdir()
        (target / "mod.py").write_text(
            "# repro-lint: ignore[SYM]\n"
            "def save_half(pcpu, costs):\n"
            "    yield pcpu.op('save_gp', costs.save_gp, 'save')\n"
        )
        # the prefix covers every SYM* rule on the attached line
        assert run_analysis([tmp_path], select=["SYM001"]) == []


class TestIgnoreAndStatistics:
    SOURCE = (
        "def save_half(pcpu, costs):\n"
        "    yield pcpu.op('save_gp', costs.save_gp, 'save')\n"
    )

    def write_tree(self, tmp_path):
        target = tmp_path / "hv"
        target.mkdir()
        (target / "mod.py").write_text(self.SOURCE)
        return tmp_path

    def test_ignore_drops_rule(self, tmp_path):
        tree = self.write_tree(tmp_path)
        assert len(run_analysis([tree], flow=True)) >= 1
        remaining = run_analysis([tree], flow=True, ignore=["SYM001"])
        assert all(v.rule != "SYM001" for v in remaining)

    def test_ignore_is_case_insensitive(self, tmp_path):
        tree = self.write_tree(tmp_path)
        remaining = run_analysis([tree], flow=True, ignore=["sym001"])
        assert all(v.rule != "SYM001" for v in remaining)

    def test_ignore_accepts_rule_prefix(self, tmp_path):
        tree = self.write_tree(tmp_path)
        remaining = run_analysis([tree], flow=True, ignore=["SYM"])
        assert all(not v.rule.startswith("SYM") for v in remaining)

    def test_unknown_ignore_entry_is_an_error(self, tmp_path):
        import pytest

        tree = self.write_tree(tmp_path)
        with pytest.raises(KeyError) as excinfo:
            run_analysis([tree], flow=True, ignore=["NOPE999"])
        assert "NOPE999" in excinfo.value.args[0]
        # near-miss prefixes don't silently no-op either
        with pytest.raises(KeyError):
            run_analysis([tree], flow=True, ignore=["SYM9"])

    def test_statistics_rendering(self, tmp_path):
        tree = self.write_tree(tmp_path)
        violations = run_analysis([tree], flow=True)
        stats = render_statistics(violations)
        assert "SYM001" in stats
        text = render_text(violations, statistics=True)
        assert "SYM001" in text.splitlines()[-2] or "SYM001" in text
        payload = json.loads(render_json(violations, statistics=True))
        assert payload["statistics"]["SYM001"] >= 1

    def test_json_omits_statistics_by_default(self):
        payload = json.loads(render_json([]))
        assert "statistics" not in payload

    def test_statistics_on_clean_tree(self):
        assert "0 findings" in render_statistics([])

    def test_statistics_sorted_by_count_then_code(self):
        from repro.analysis.engine import Violation

        def fire(rule, count):
            return [
                Violation("m.py", index + 1, 0, rule, "x") for index in range(count)
            ]

        violations = fire("SYM002", 1) + fire("CAL001", 3) + fire("API001", 3)
        lines = render_statistics(violations).splitlines()
        # most frequent first; equal counts tie-break on the code
        assert [line.split()[1] for line in lines] == [
            "API001", "CAL001", "SYM002", "total",
        ]
