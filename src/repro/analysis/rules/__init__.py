"""Rule registry."""

from repro.analysis.rules.api001 import RawMagicAddress
from repro.analysis.rules.base import Rule
from repro.analysis.rules.cal001 import CalibrationLeakage
from repro.analysis.rules.cov001 import CostCoverage
from repro.analysis.rules.des001 import DroppedGenerator
from repro.analysis.rules.det001 import Determinism
from repro.analysis.rules.spec001 import SpecDrift
from repro.analysis.rules.spec002 import SpecCostConsistency
from repro.analysis.rules.sym001 import PathSymmetry
from repro.analysis.rules.sym002 import TrapPairing

#: every registered rule, in reporting order (line, flow, then spec tier)
ALL_RULES = (
    CalibrationLeakage(),
    Determinism(),
    DroppedGenerator(),
    CostCoverage(),
    RawMagicAddress(),
    PathSymmetry(),
    TrapPairing(),
    SpecDrift(),
    SpecCostConsistency(),
)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}


def active_rules(config, select=None, flow=False, spec=False):
    """Resolve the rule set.

    An explicit ``select`` (CLI) is exact: it runs precisely those rules,
    flow and spec tiers included.  Otherwise the config's ``select`` (or
    the full registry) applies, with flow-tier rules filtered out unless
    ``flow=True`` and spec-tier rules unless ``spec=True`` — that is what
    lets ``[tool.repro-lint]`` list every code while plain ``repro lint``
    stays cheap.
    """
    if select is not None:
        return tuple(_resolve(code) for code in select)
    if config.select is None:
        rules = ALL_RULES
    else:
        rules = tuple(_resolve(code) for code in config.select)
    if not flow:
        rules = tuple(rule for rule in rules if rule.tier != "flow")
    if not spec:
        rules = tuple(rule for rule in rules if rule.tier != "spec")
    return rules


def expand_codes(entries):
    """Resolve codes *or prefixes* (``"SPEC"`` -> all SPEC rules).

    Raises ``KeyError`` for an entry matching nothing — a silently
    ignored typo in ``--ignore`` would un-suppress nothing and mask the
    intent.
    """
    expanded = set()
    for entry in entries:
        token = entry.strip().upper()
        matches = {
            code for code in RULES_BY_CODE if code == token or code.startswith(token)
        }
        if not matches:
            raise KeyError(
                "unknown lint rule or prefix %r (known: %s)"
                % (entry, ", ".join(sorted(RULES_BY_CODE)))
            )
        expanded.update(matches)
    return expanded


def _resolve(code):
    code = code.upper()
    if code not in RULES_BY_CODE:
        raise KeyError(
            "unknown lint rule %r (known: %s)" % (code, ", ".join(sorted(RULES_BY_CODE)))
        )
    return RULES_BY_CODE[code]


__all__ = ["ALL_RULES", "RULES_BY_CODE", "Rule", "active_rules", "expand_codes"]
