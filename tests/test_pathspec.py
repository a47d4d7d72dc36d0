"""PathSpec extraction, serialization, CLI and validator-tool tests.

The golden-file discipline (PR acceptance): the committed ``specs/*.json``
must regenerate *bit-identically* from the shipped model tree — any
difference is either code drift (fix the code or re-land the spec) or a
nondeterministic extractor (a bug here).
"""

import importlib.util
import json
import pathlib
import textwrap

import pytest

from repro.analysis.config import LintConfig
from repro.analysis.engine import Project, SourceModule, discover
from repro.analysis.flow.effects import (
    COST_EXTERNAL,
    COST_FIELD,
    COST_LITERAL,
    COST_METHOD,
    COST_TABLE,
    Extractor,
)
from repro.analysis.pathspec import cli as spec_cli
from repro.analysis.pathspec.extract import (
    build_documents,
    extract_tree,
    group_for,
    module_specs,
    render_document,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
SPEC_DIR = REPO / "specs"
TOOLS_DIR = REPO / "tools"


def make_module(source, relpath="hv/mod.py"):
    return SourceModule("/virtual/" + relpath, relpath, textwrap.dedent(source))


def specs_for(source, relpath="hv/mod.py"):
    return {
        spec.qualname: spec for spec in module_specs(make_module(source, relpath))
    }


def op_steps(spec):
    return [step for step in spec.all_steps if step.kind == "op"]


def _load_validate_pathspec():
    spec = importlib.util.spec_from_file_location(
        "validate_pathspec", TOOLS_DIR / "validate_pathspec.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTokenResolution:
    """Satellite: effects.py edge cases around cost/label resolution."""

    def test_label_helper_with_percent_format_args(self):
        # _label("save", x) and "save_%s" % x both pattern to "save_*"
        specs = specs_for(
            """\
            def _label(prefix, reg_class):
                return "%s_%s" % (prefix, reg_class)

            def switch(pcpu, costs, order):
                for reg_class in order:
                    yield pcpu.op(_label("save", reg_class), costs.save[reg_class], "save")
                for reg_class in order:
                    yield pcpu.op("restore_%s" % reg_class, costs.restore[reg_class], "restore")
            """
        )
        labels = [step.label for step in op_steps(specs["switch"])]
        assert labels == ["save_*", "restore_*"]

    def test_nested_subscript_cost_reference(self):
        # costs.save[pairs[0]] — the inner subscript must not hide the table
        specs = specs_for(
            """\
            def switch(pcpu, costs, pairs):
                yield pcpu.op("s", costs.save[pairs[0]], "save")
            """
        )
        (step,) = op_steps(specs["switch"])
        assert (step.cost, step.cost_kind) == ("save", COST_TABLE)

    def test_costs_accessed_through_aliased_local(self):
        # c = self.costs — references through the alias still resolve
        specs = specs_for(
            """\
            class Hv:
                def trap(self, pcpu):
                    c = self.costs
                    yield pcpu.op("trap", c.trap_to_el2, "trap")
            """
        )
        (step,) = op_steps(specs["Hv.trap"])
        assert (step.cost, step.cost_kind) == ("trap_to_el2", COST_FIELD)

    def test_costs_alias_through_tuple_unpacking(self):
        # the idiom every real switch uses: pcpu, costs = vcpu.pcpu, machine.costs
        specs = specs_for(
            """\
            def switch(machine, vcpu):
                pcpu, c = vcpu.pcpu, machine.costs
                yield pcpu.op("trap", c.trap_to_el2, "trap")
            """
        )
        (step,) = op_steps(specs["switch"])
        assert (step.cost, step.cost_kind) == ("trap_to_el2", COST_FIELD)

    def test_method_literal_and_external_costs(self):
        specs = specs_for(
            """\
            def io(pcpu, costs, nbytes, outer):
                yield pcpu.op("copy", costs.copy_cycles(nbytes), "copy")
                yield pcpu.op("fudge", 42, "copy")
                yield pcpu.op("dev", outer.latency, "device")
            """
        )
        kinds = [(step.cost, step.cost_kind) for step in op_steps(specs["io"])]
        assert kinds == [
            ("copy_cycles", COST_METHOD),
            (None, COST_LITERAL),
            (None, COST_EXTERNAL),
        ]

    def test_lexical_rebinding_keeps_distinct_tokens(self):
        # one loop variable reused over two iterables: the second sweep
        # must not inherit the first binding (last-wins would be wrong)
        specs = specs_for(
            """\
            def switch(pcpu, costs):
                for reg_class in FULL_ORDER:
                    yield pcpu.op("s", costs.save[reg_class], "save")
                for reg_class in PARTIAL_ORDER:
                    yield pcpu.op("r", costs.restore[reg_class], "restore")
            """
        )
        tokens = [step.reg_class for step in op_steps(specs["switch"])]
        assert tokens == ["FULL_ORDER", "PARTIAL_ORDER"]


class TestExtraction:
    def test_methods_get_class_qualified_ids(self):
        specs = specs_for(
            """\
            class XenHypervisor:
                def _domain_switch(self, pcpu, costs):
                    yield pcpu.op("trap", costs.trap_to_el2, "trap")
            """
        )
        (spec,) = [s for s in specs.values() if s.all_steps]
        assert spec.spec_id == "hv/mod.py::XenHypervisor._domain_switch"

    def test_module_alias_canonicalization(self):
        # ARM_SWITCH_ORDER = ALL_ARM_CLASSES: both sweeps share one token
        specs = specs_for(
            """\
            ALL_ARM_CLASSES = ("gp", "fp")
            ARM_SWITCH_ORDER = ALL_ARM_CLASSES

            def switch(pcpu, costs):
                for reg_class in ARM_SWITCH_ORDER:
                    yield pcpu.op("s", costs.save[reg_class], "save")
                for reg_class in ALL_ARM_CLASSES:
                    yield pcpu.op("r", costs.restore[reg_class], "restore")
            """
        )
        tokens = {step.reg_class for step in op_steps(specs["switch"])}
        assert tokens == {"ALL_ARM_CLASSES"}

    def test_serialize_dedupes_structurally_equal_paths(self):
        # both arms yield the same steps -> one serialized path, two live
        specs = specs_for(
            """\
            def notify(pcpu, costs, fast):
                if fast:
                    yield pcpu.op("kick", costs.kick, "sched")
                else:
                    yield pcpu.op("kick", costs.kick, "sched")
            """
        )
        spec = specs["notify"]
        assert len(spec.paths) == 2
        assert len(spec.serialize()["paths"]) == 1

    def test_serialized_steps_carry_no_line_numbers(self):
        specs = specs_for(
            """\
            def trap(pcpu, costs):
                yield pcpu.op("trap", costs.trap_to_el2, "trap")
            """
        )
        document = specs["trap"].serialize()
        assert document["paths"][0]["steps"] == [
            {
                "op": "trap",
                "category": "trap",
                "cost": "trap_to_el2",
                "cost_kind": "field",
            }
        ]

    def test_group_routing(self):
        assert group_for("hv/kvm/world_switch.py") == "kvm"
        assert group_for("hv/xen/xen.py") == "xen"
        assert group_for("hv/base.py") == "hv"

    def test_extract_tree_scope_and_step_filter(self):
        hv = make_module(
            "def f(pcpu, costs):\n    yield pcpu.op('t', costs.t, 'trap')\n",
            relpath="hv/mod.py",
        )
        stepless = make_module("def g():\n    return 1\n", relpath="hv/other.py")
        out_of_scope = make_module(
            "def h(pcpu, costs):\n    yield pcpu.op('t', costs.t, 'trap')\n",
            relpath="core/mod.py",
        )
        specs = extract_tree(Project([hv, stepless, out_of_scope]), LintConfig())
        assert [spec.spec_id for spec in specs] == ["hv/mod.py::f"]


class TestCommittedGoldens:
    """The committed specs/ regenerate bit-identically from src/repro."""

    def test_specs_regenerate_bit_identically(self):
        project, errors = discover([SRC])
        assert errors == []
        config = LintConfig.load(REPO / "pyproject.toml")
        documents = build_documents(extract_tree(project, config))
        committed = sorted(SPEC_DIR.glob("*.json"))
        assert [path.stem for path in committed] == sorted(documents)
        for path in committed:
            assert render_document(documents[path.stem]) == path.read_text(
                encoding="utf-8"
            ), "%s drifted — run `python -m repro spec extract`" % path

    def test_committed_specs_validate_against_the_tool(self):
        validator = _load_validate_pathspec()
        for path in sorted(SPEC_DIR.glob("*.json")):
            assert validator.validate(str(path)) == []

    def test_world_switch_specs_are_committed(self):
        document = json.loads((SPEC_DIR / "kvm.json").read_text())
        ids = {spec["id"] for spec in document["specs"]}
        assert "hv/kvm/world_switch.py::split_mode_exit" in ids
        assert "hv/kvm/world_switch.py::vhe_enter" in ids


class TestSpecCli:
    def _tree(self, tmp_path):
        hv = tmp_path / "hv"
        hv.mkdir()
        (hv / "mod.py").write_text(
            "def trap(pcpu, costs):\n"
            "    yield pcpu.op('trap', costs.trap_to_el2, 'trap')\n"
        )
        return tmp_path

    def test_extract_then_diff_roundtrip(self, tmp_path, capsys):
        tree = self._tree(tmp_path)
        assert spec_cli.main(["extract", str(tree), "--no-config"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "hv.json" in out
        assert (tree / "specs" / "hv.json").exists()
        assert spec_cli.main(["diff", str(tree), "--no-config"]) == 0
        assert "specs up to date" in capsys.readouterr().out

    def test_diff_reports_drift_and_exits_one(self, tmp_path, capsys):
        tree = self._tree(tmp_path)
        assert spec_cli.main(["extract", str(tree), "--no-config"]) == 0
        capsys.readouterr()
        (tree / "hv" / "mod.py").write_text(
            "def trap(pcpu, costs):\n"
            "    yield pcpu.op('trap', costs.trap_to_el3, 'trap')\n"
        )
        assert spec_cli.main(["diff", str(tree), "--no-config"]) == 1
        out = capsys.readouterr().out
        assert "drifted    hv/mod.py::trap" in out
        assert "run `python -m repro spec extract`" in out

    def test_diff_reports_missing_and_stale(self, tmp_path, capsys):
        tree = self._tree(tmp_path)
        assert spec_cli.main(["extract", str(tree), "--no-config"]) == 0
        capsys.readouterr()
        (tree / "hv" / "renamed.py").write_text(
            "def other(pcpu, costs):\n"
            "    yield pcpu.op('t', costs.t, 'trap')\n"
        )
        assert spec_cli.main(["diff", str(tree), "--no-config"]) == 1
        out = capsys.readouterr().out
        assert "missing    hv/renamed.py::other" in out

    def test_show_filters_by_id(self, tmp_path, capsys):
        tree = self._tree(tmp_path)
        assert spec_cli.main(["show", str(tree), "--no-config", "--id", "trap"]) == 0
        out = capsys.readouterr().out
        assert "hv/mod.py::trap" in out
        assert "cost=trap_to_el2 (field)" in out
        assert spec_cli.main(["show", str(tree), "--no-config", "--id", "nope"]) == 0
        assert "no specs matched" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert spec_cli.main(["extract", str(tmp_path / "nope")]) == 2

    def test_repro_cli_forwards_spec(self, capsys):
        from repro.cli import main

        assert main(["spec", "diff", str(SRC), "--config", str(REPO / "pyproject.toml")]) == 0
        assert "specs up to date" in capsys.readouterr().out


class TestValidatePathspecTool:
    def test_committed_documents_pass(self, capsys):
        validator = _load_validate_pathspec()
        paths = [str(path) for path in sorted(SPEC_DIR.glob("*.json"))]
        assert validator.main(paths) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == len(paths)

    def test_no_args_is_a_usage_error(self, capsys):
        validator = _load_validate_pathspec()
        assert validator.main([]) == 2
        assert "Usage" in capsys.readouterr().err

    def test_corrupt_documents_fail(self, tmp_path):
        validator = _load_validate_pathspec()
        missing = tmp_path / "missing.json"
        assert validator.validate(str(missing))

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro-pathspec/0", "specs": []}))
        problems = validator.validate(str(bad))
        assert any("schema" in problem for problem in problems)
        assert any("specs missing or empty" in problem for problem in problems)

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda s: s.__setitem__("id", "somewhere/else.py::f"), "module::function"),
            (lambda s: s.__setitem__("truncated", "no"), "truncated"),
            (
                lambda s: s["paths"][0].__setitem__("terminator", "loop"),
                "terminator",
            ),
            (
                lambda s: s["paths"][0]["steps"][0].__setitem__("cost_kind", "vibes"),
                "cost_kind",
            ),
            (
                lambda s: s["paths"][0]["steps"][0].__setitem__("cost", None),
                "needs a cost name",
            ),
            (
                lambda s: s["paths"][0]["steps"].append({"arch": "warp"}),
                "arch",
            ),
        ],
    )
    def test_shape_violations_are_named(self, tmp_path, mutate, needle):
        validator = _load_validate_pathspec()
        document = json.loads((SPEC_DIR / "hv.json").read_text())
        mutate(document["specs"][0])
        bad = tmp_path / "mutated.json"
        bad.write_text(json.dumps(document))
        problems = validator.validate(str(bad))
        assert any(needle in problem for problem in problems), problems
