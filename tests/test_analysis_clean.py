"""Tier-1 gate: the shipped model must be lint-clean.

These tests run the full model-integrity analysis over ``src/repro`` with
the repo's own ``[tool.repro-lint]`` configuration and assert zero
findings.  A regression here means someone hard-coded a published result,
introduced ambient entropy, orphaned a calibrated primitive, or scattered
a raw guest-physical address.
"""

import pathlib
import shutil

from repro.analysis import run_analysis
from repro.analysis.config import LintConfig
from repro.analysis.engine import discover
from repro.analysis.rules import RULES_BY_CODE

REPO = pathlib.Path(__file__).parent.parent
SRC = REPO / "src" / "repro"
PYPROJECT = REPO / "pyproject.toml"


def repo_config():
    return LintConfig.load(PYPROJECT)


def test_repo_tree_is_lint_clean():
    violations = run_analysis([SRC], config=repo_config())
    assert violations == [], "\n".join(v.format() for v in violations)


def test_every_waiver_names_a_registered_rule():
    """The engine accepts an in-source waiver for any code (only
    ``--ignore`` rejects unknown ones), so a waiver outliving its rule
    would sit in the tree unnoticed: each ``repro-lint: ignore[...]``
    entry must name a registered rule code or prefix."""
    project, _errors = discover([SRC])
    stale = sorted(
        "%s:%d %s" % (module.relpath, line, entry)
        for module in project.modules
        for line, entries in module.suppressions.items()
        for entry in entries - {"*"}
        if not any(code.startswith(entry) for code in RULES_BY_CODE)
    )
    assert stale == [], "waivers naming no registered rule:\n" + "\n".join(stale)


def test_every_calibrated_primitive_is_consumed():
    """COV001 in isolation: zero orphans — every primitive in
    ``repro.hw.costs`` is read by at least one composed simulation path."""
    violations = run_analysis([SRC], config=repo_config(), select=["COV001"])
    assert violations == [], "\n".join(v.format() for v in violations)


def test_injected_violation_is_caught_precisely(tmp_path):
    """The gate has teeth: seed a composed Table II result into a copy of a
    real hypervisor module and the linter must name file, line and rule."""
    target = tmp_path / "hv"
    target.mkdir()
    source = SRC / "hv" / "blockio.py"
    copy = target / "blockio.py"
    shutil.copy(source, copy)
    with copy.open("a") as handle:
        handle.write(
            "\n\ndef leaked_result():\n"
            "    return 11557\n"  # Table II: Virtual IPI, KVM ARM
        )
    injected_line = 1 + copy.read_text().splitlines().index("    return 11557")
    violations = run_analysis([tmp_path], config=repo_config(), select=["CAL001"])
    assert len(violations) == 1
    violation = violations[0]
    assert violation.rule == "CAL001"
    assert violation.path == str(copy)
    assert violation.line == injected_line
    assert "11557" in violation.message
    assert "Table II" in violation.message
