"""Clean fixture: the KVM split-mode halves, shaped like the real
``repro/hv/kvm/world_switch.py`` (double trap, full register-class
sweep, feature toggle each direction, run-loop dispatch on exit).

Each half is one-sided, so it carries a SYM001 waiver; the flow and
spec tiers must stay silent here.  The seeded asymmetry lives in the
Xen fixture.
"""

ALL_ARM_CLASSES = ("gp", "fp", "el1_sys", "vgic", "timer", "el2_shadow")

#: mirrors the real module's alias — canonicalized by the extractor
ARM_SWITCH_ORDER = ALL_ARM_CLASSES


def _label(prefix, reg_class):
    return "%s_%s" % (prefix, reg_class)


# repro-lint: ignore[SYM001] -- exit half of the split-mode switch: the
# matching restores live in split_mode_enter.
def split_mode_exit(machine, vcpu):
    pcpu, costs = vcpu.pcpu, machine.costs
    arch = pcpu.arch
    arch.trap_to_el2("trap")
    yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")
    for reg_class in ARM_SWITCH_ORDER:
        yield pcpu.op(_label("save", reg_class), costs.save[reg_class], "save")
    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)
    arch.disable_virt_features()
    yield pcpu.op("disable_virt_features", costs.virt_feature_toggle, "config")
    arch.load_context(pcpu.host_context)
    arch.eret("el1")
    yield pcpu.op("eret_to_host", costs.eret_to_el1, "trap")
    yield pcpu.op("kvm_exit_dispatch", costs.kvm_exit_dispatch, "host")


# repro-lint: ignore[SYM001] -- enter half: restores the classes
# split_mode_exit saved.
def split_mode_enter(machine, vcpu, inject_virq=None):
    pcpu, costs = vcpu.pcpu, machine.costs
    arch = pcpu.arch
    arch.trap_to_el2("hvc-from-host")
    yield pcpu.op("hvc_to_el2", costs.trap_to_el2, "trap")
    arch.enable_virt_features(vcpu.vm.vmid)
    yield pcpu.op("enable_virt_features", costs.virt_feature_toggle, "config")
    if inject_virq is not None:
        vcpu.vif.inject(inject_virq)
        yield pcpu.op("virq_inject_lr", costs.virq_inject_lr, "vgic")
    pcpu.host_context = arch.save_context(ARM_SWITCH_ORDER)
    for reg_class in ARM_SWITCH_ORDER:
        yield pcpu.op(_label("restore", reg_class), costs.restore[reg_class], "restore")
    arch.load_context(vcpu.saved_context)
    arch.eret("el1")
    yield pcpu.op("eret_to_guest", costs.eret_to_el1, "trap")
