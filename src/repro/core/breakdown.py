"""Table III: the KVM ARM hypercall cost breakdown, from recorded spans.

The paper instruments KVM ARM's world switch to attribute the Hypercall
microbenchmark's cycles to register-class save/restore work.  Here the
breakdown is reconstructed from the *leaf spans* the simulated path
records (one per costed ``pcpu.op`` step) — if the hypervisor model
stopped saving the VGIC, the table would change, which is the point.
"""

import dataclasses

from repro.core.microbench import MicrobenchmarkSuite
from repro.core.testbed import build_testbed
from repro.hw.cpu.registers import RegClass


@dataclasses.dataclass
class BreakdownRow:
    register_state: str
    save_cycles: int
    restore_cycles: int


@dataclasses.dataclass
class HypercallBreakdown:
    rows: list
    other_cycles: int
    total_cycles: int

    def row(self, register_state):
        for entry in self.rows:
            if entry.register_state == register_state:
                return entry
        raise KeyError(register_state)

    @property
    def save_total(self):
        return sum(entry.save_cycles for entry in self.rows)

    @property
    def restore_total(self):
        return sum(entry.restore_cycles for entry in self.rows)


def hypercall_breakdown(testbed=None):
    """Run the Hypercall microbenchmark with spans on; return the Table III rows.

    ``testbed`` defaults to a fresh KVM ARM testbed (the configuration the
    paper analyzes); pass another to compare (e.g. 'kvm-vhe-arm' to see
    the state switching disappear).
    """
    if testbed is None:
        testbed = build_testbed("kvm-arm")
    suite = MicrobenchmarkSuite(testbed, iterations=1)
    spans = testbed.machine.obs.spans
    result, window = spans.record_window(suite.hypercall)

    per_label = spans.leaf_totals(roots=window)
    rows = []
    attributed = 0
    for reg_class in RegClass:
        suffix = reg_class.name.lower()
        save = per_label.get("save_%s" % suffix, 0)
        restore = per_label.get("restore_%s" % suffix, 0)
        attributed += save + restore
        rows.append(BreakdownRow(reg_class.value, save, restore))
    return HypercallBreakdown(
        rows=rows,
        other_cycles=result.cycles - attributed,
        total_cycles=result.cycles,
    )
