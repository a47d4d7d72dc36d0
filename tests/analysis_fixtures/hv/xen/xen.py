"""Seeded SYM001 fixture: a Xen domain switch whose restore sweep
covers fewer register classes than its save sweep.

SYM001 pairs saves and restores by register-class token, so restoring
``PARTIAL_RESTORE_ORDER`` where ``ALL_ARM_CLASSES`` was saved leaves
both sweeps unmatched on every path.
"""

ALL_ARM_CLASSES = ("gp", "fp", "el1_sys", "vgic", "timer", "el2_shadow")

#: deliberately NOT a bare name-alias of ALL_ARM_CLASSES, so the
#: extractor keeps the distinct token instead of canonicalizing it away
PARTIAL_RESTORE_ORDER = ALL_ARM_CLASSES[:1]


class XenHypervisor:
    def _domain_switch(self, machine, vcpu):
        pcpu, costs = vcpu.pcpu, machine.costs
        arch = pcpu.arch
        arch.trap_to_el2("domain-switch")
        yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")
        for reg_class in ALL_ARM_CLASSES:
            yield pcpu.op("save", costs.save[reg_class], "save")  # expect: SYM001
        vcpu.saved_context = arch.save_context(ALL_ARM_CLASSES)
        yield pcpu.op("xen_sched_pick", costs.xen_sched_pick, "sched")
        yield pcpu.op("xen_ctx_extra", costs.xen_ctx_extra, "context")
        yield pcpu.op("virq_inject_lr", costs.virq_inject_lr, "vgic")
        for reg_class in PARTIAL_RESTORE_ORDER:
            yield pcpu.op("restore", costs.restore[reg_class], "restore")  # expect: SYM001
        arch.load_context(vcpu.saved_context)
        arch.eret("el1")
        yield pcpu.op("eret_to_guest", costs.eret_to_el1, "trap")
