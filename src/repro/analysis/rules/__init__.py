"""Rule registry."""

from repro.analysis.rules.api001 import RawMagicAddress
from repro.analysis.rules.base import Rule
from repro.analysis.rules.cal001 import CalibrationLeakage
from repro.analysis.rules.cov001 import CostCoverage
from repro.analysis.rules.det001 import Determinism

#: every registered rule, in reporting order
ALL_RULES = (
    CalibrationLeakage(),
    Determinism(),
    CostCoverage(),
    RawMagicAddress(),
)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}


def active_rules(config, select=None):
    """Resolve the rule set: an explicit ``select`` (CLI) wins, then the
    config's ``select``, then the full registry."""
    if select is None:
        select = config.select
    if select is None:
        return ALL_RULES
    return tuple(_resolve(code) for code in select)


def expand_codes(entries):
    """Resolve codes *or prefixes* (``"CAL"`` -> all CAL rules).

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
