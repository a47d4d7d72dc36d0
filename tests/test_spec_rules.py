"""Mutation tests for the spec tier: each seeded change to a copy of the
real model tree must fire exactly the one rule that owns it.

* reorder a step inside ``hv/kvm/world_switch.py``  -> SPEC001 (drift)
* rename a cost field in ``hw/costs.py``            -> SPEC002 (consistency)
* narrow the Xen restore sweep (specs re-landed)    -> SPEC003 (symmetry)
* inject a bogus committed spec entry               -> SPEC001 (stale)
"""

import json
import pathlib
import shutil

from repro.analysis import run_analysis
from repro.analysis.pathspec import cli as spec_cli

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

SPEC_RULES = ["SPEC001", "SPEC002", "SPEC003"]


def make_tree(tmp_path):
    """A self-contained copy: the hypervisor models, the cost model and
    the committed goldens — exactly what the spec tier consumes."""
    tree = tmp_path / "tree"
    shutil.copytree(SRC / "hv", tree / "hv")
    shutil.copytree(SRC / "hw", tree / "hw")
    shutil.copytree(REPO / "specs", tree / "specs")
    return tree


def spec_findings(tree):
    return run_analysis([tree], select=SPEC_RULES)


def def_line(path, name):
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("def %s(" % name):
            return lineno
    raise AssertionError("no def %s in %s" % (name, path))


def test_baseline_copy_is_clean(tmp_path):
    tree = make_tree(tmp_path)
    findings = spec_findings(tree)
    assert findings == [], "\n".join(v.format() for v in findings)


def test_reordered_step_fires_spec001_alone(tmp_path):
    tree = make_tree(tmp_path)
    target = tree / "hv" / "kvm" / "world_switch.py"
    original = (
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n"
        "    arch.disable_virt_features()\n"
        '    yield pcpu.op("disable_virt_features", costs.virt_feature_toggle, "config")\n'
    )
    reordered = (
        "    arch.disable_virt_features()\n"
        '    yield pcpu.op("disable_virt_features", costs.virt_feature_toggle, "config")\n'
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n"
    )
    text = target.read_text()
    assert original in text, "split_mode_exit changed shape; update this test"
    target.write_text(text.replace(original, reordered))

    findings = spec_findings(tree)
    assert [v.rule for v in findings] == ["SPEC001"]
    violation = findings[0]
    assert violation.path == str(target)
    assert violation.line == def_line(target, "split_mode_exit")
    assert "drifted" in violation.message
    assert "spec extract" in violation.message


def test_renamed_cost_field_fires_spec002_alone(tmp_path):
    tree = make_tree(tmp_path)
    target = tree / "hw" / "costs.py"
    text = target.read_text()
    assert "    virt_feature_toggle: int = " in text
    target.write_text(
        text.replace("    virt_feature_toggle: int = ", "    virt_feature_flip: int = ")
    )

    findings = spec_findings(tree)
    assert findings and {v.rule for v in findings} == {"SPEC002"}
    messages = "\n".join(v.message for v in findings)
    # forward: the switch paths now charge a field that no longer exists
    assert "'virt_feature_toggle' which is not a field" in messages
    # backward: the renamed field is charged by nothing
    assert "'virt_feature_flip' is unreachable" in messages


def test_narrowed_restore_sweep_fires_spec003_alone(tmp_path):
    tree = make_tree(tmp_path)
    target = tree / "hv" / "xen" / "xen.py"
    original = (
        "            for reg_class in ALL_ARM_CLASSES:\n"
        "                yield pcpu.op(\n"
        '                    switch_label("restore", reg_class),\n'
    )
    narrowed = (
        "            for reg_class in PARTIAL_RESTORE_ORDER:\n"
        "                yield pcpu.op(\n"
        '                    switch_label("restore", reg_class),\n'
    )
    text = target.read_text()
    assert original in text, "_domain_switch changed shape; update this test"
    target.write_text(
        text.replace(original, narrowed)
        + "\nPARTIAL_RESTORE_ORDER = ALL_ARM_CLASSES[:4]\n"
    )
    # re-land the goldens so SPEC001 stays quiet: the asymmetry is now
    # faithfully *committed* — only the skeleton comparison can catch it
    assert spec_cli.main(["extract", str(tree), "--no-config"]) == 0

    findings = spec_findings(tree)
    assert [v.rule for v in findings] == ["SPEC003"]
    violation = findings[0]
    assert violation.path == str(target)
    assert violation.line == def_line(target, "_domain_switch")
    assert "arm-full-vm-switch" in violation.message
    assert "PARTIAL_RESTORE_ORDER" in violation.message
    assert "Table III" in violation.message


def test_stale_committed_entry_fires_spec001_at_the_spec_file(tmp_path):
    tree = make_tree(tmp_path)
    golden = tree / "specs" / "hv.json"
    document = json.loads(golden.read_text())
    document["specs"].append(
        {
            "id": "hv/ghost.py::gone",
            "module": "hv/ghost.py",
            "function": "gone",
            "truncated": False,
            "paths": [{"terminator": "fall", "steps": []}],
        }
    )
    golden.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")

    findings = spec_findings(tree)
    assert [v.rule for v in findings] == ["SPEC001"]
    violation = findings[0]
    assert violation.path == str(golden)
    assert violation.line == 1
    assert "hv/ghost.py::gone" in violation.message
    assert "matches no extracted function" in violation.message


def test_missing_spec_dir_points_at_extract(tmp_path):
    tree = make_tree(tmp_path)
    shutil.rmtree(tree / "specs")
    findings = spec_findings(tree)
    assert [v.rule for v in findings] == ["SPEC001"]
    assert "spec extract" in findings[0].message
