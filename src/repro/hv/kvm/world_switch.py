"""KVM world-switch paths: the state movements of paper Tables II/III.

Three variants:

* ARM split-mode (ARMv8): double trap + full register-class switch.
* ARM VHE (ARMv8.1): host lives in EL2; only GP registers move.
* x86: hardware vmexit/vmentry against the VMCS.

Each generator executes costed steps through ``pcpu.op`` (so the leaf
spans recorded by ``machine.obs.spans`` reconstruct the Table III
breakdown) *and* really moves the architectural state, so tests can
verify isolation and round-tripping.
"""

from repro.hv.base import ALL_ARM_CLASSES, VcpuState, switch_label
from repro.hw.cpu.arm import ExceptionLevel
from repro.hw.cpu.registers import RegClass, fresh_context_image

#: Save/restore order mirrors KVM's __kvm_vcpu_run: GP first (on trap),
#: then FP, EL1 system registers, VGIC, timer, and the EL2 shadow state.
ARM_SWITCH_ORDER = ALL_ARM_CLASSES


def ensure_host_context(pcpu):
    """The host's saved EL1 image for split-mode switching."""
    if not hasattr(pcpu, "host_context"):
        pcpu.host_context = fresh_context_image()
    return pcpu.host_context


# repro-lint: ignore[SYM001] -- exit half of the split-mode switch: the
# matching restores live in split_mode_enter (Table III pairs the save
# and restore columns across the two transitions).
def split_mode_exit(machine, vcpu, dispatch=True, reason="trap"):
    """VM (EL1) -> EL2 lowvisor -> host (EL1).  The expensive direction:
    saving the VM's state includes reading back the whole VGIC interface,
    which Table III shows dominates (3,250 of 4,202 save cycles)."""
    pcpu, costs = vcpu.pcpu, machine.costs
    arch = pcpu.arch
    span = machine.obs.spans.begin("split_mode_exit", "world-switch", pcpu.index)
    arch.trap_to_el2(reason)
    yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")
    for reg_class in ARM_SWITCH_ORDER:
        yield pcpu.op(switch_label("save", reg_class), costs.save[reg_class], "save")
    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)
    arch.disable_virt_features()
    yield pcpu.op("disable_virt_features", costs.virt_feature_toggle, "config")
    arch.load_context(ensure_host_context(pcpu))
    arch.eret(ExceptionLevel.EL1)
    yield pcpu.op("eret_to_host", costs.eret_to_el1, "trap")
    if dispatch:
        yield pcpu.op("kvm_exit_dispatch", costs.kvm_exit_dispatch, "host")
    vcpu.state = VcpuState.HOST
    pcpu.current_context = "host"
    machine.obs.spans.end(span)


# repro-lint: ignore[SYM001] -- enter half: restores the classes
# split_mode_exit saved (Table III restore column).
def split_mode_enter(machine, vcpu, inject_virq=None):
    """Host (EL1) -> EL2 lowvisor -> VM (EL1)."""
    pcpu, costs = vcpu.pcpu, machine.costs
    arch = pcpu.arch
    span = machine.obs.spans.begin("split_mode_enter", "world-switch", pcpu.index)
    arch.trap_to_el2("hvc-from-host")
    yield pcpu.op("hvc_to_el2", costs.trap_to_el2, "trap")
    arch.enable_virt_features(vcpu.vm.vmid)
    yield pcpu.op("enable_virt_features", costs.virt_feature_toggle, "config")
    if inject_virq is not None:
        vcpu.vif.inject(inject_virq)
        yield pcpu.op("virq_inject_lr", costs.virq_inject_lr, "vgic")
    pcpu.host_context = arch.save_context(ARM_SWITCH_ORDER)
    for reg_class in ARM_SWITCH_ORDER:
        yield pcpu.op(
            switch_label("restore", reg_class), costs.restore[reg_class], "restore"
        )
    arch.load_context(vcpu.saved_context)
    arch.eret(ExceptionLevel.EL1)
    yield pcpu.op("eret_to_guest", costs.eret_to_el1, "trap")
    vcpu.state = VcpuState.GUEST
    pcpu.current_context = vcpu
    machine.obs.spans.end(span)


# repro-lint: ignore[SYM001] -- VHE trap half: under VHE the host runs in
# EL2, so EL1 state is the guest's alone and only the GP bank is pushed;
# vhe_enter pops it (paper Section VI).  The EL1 sysreg/VGIC/timer
# restore is deliberately absent, not forgotten.
def vhe_exit(machine, vcpu, dispatch=True, reason="trap"):
    """ARMv8.1 VHE: the trap lands in the host *in EL2*.  EL1 state is the
    guest's alone — nothing to switch beyond the GP bank, and no
    virtualization-feature toggling (Stage-2 only applies to EL1/EL0)."""
    pcpu, costs = vcpu.pcpu, machine.costs
    arch = pcpu.arch
    span = machine.obs.spans.begin("vhe_exit", "world-switch", pcpu.index)
    arch.trap_to_el2(reason)
    yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")
    yield pcpu.op("save_gp_light", costs.gp_save_light, "save")
    vcpu.saved_context.update(arch.save_context([RegClass.GP]))
    if dispatch:
        yield pcpu.op("kvm_vhe_dispatch", costs.kvm_vhe_dispatch, "host")
    vcpu.state = VcpuState.HOST
    pcpu.current_context = "host"
    machine.obs.spans.end(span)


# repro-lint: ignore[SYM001] -- VHE return half: pops the GP bank
# vhe_exit pushed (Section VI).
def vhe_enter(machine, vcpu, inject_virq=None):
    """VHE host (EL2) -> VM (EL1): restore GP bank and eret."""
    pcpu, costs = vcpu.pcpu, machine.costs
    arch = pcpu.arch
    span = machine.obs.spans.begin("vhe_enter", "world-switch", pcpu.index)
    if inject_virq is not None:
        vcpu.vif.inject(inject_virq)
        yield pcpu.op("virq_inject_lr", costs.virq_inject_lr, "vgic")
    yield pcpu.op("restore_gp_light", costs.gp_restore_light, "restore")
    arch.load_context({RegClass.GP: vcpu.saved_context[RegClass.GP]})
    arch.eret(ExceptionLevel.EL1)
    yield pcpu.op("eret_to_guest", costs.eret_to_el1, "trap")
    vcpu.state = VcpuState.GUEST
    pcpu.current_context = vcpu
    machine.obs.spans.end(span)


#: The classes a VHE host must still move when it *deschedules* a VCPU
#: (lazy switch): everything except the GP bank the trap already saved.
VHE_DEFERRED_CLASSES = [c for c in ARM_SWITCH_ORDER if c is not RegClass.GP]


# repro-lint: ignore[SYM001] -- lazy-switch save half: the restore is
# vhe_deferred_restore, run when the VCPU is scheduled back in.  Keeping
# the halves separate is the point of VHE's deferred switching.
def vhe_deferred_save(machine, vcpu):
    """VHE lazy state save when switching away from a VCPU entirely.

    Trap-and-return transitions under VHE never touch this state (that is
    the whole point), but a VM switch still must — which is why the paper
    expects VHE to help hypercalls and I/O far more than VM switches.
    """
    pcpu, costs = vcpu.pcpu, machine.costs
    for reg_class in VHE_DEFERRED_CLASSES:
        yield pcpu.op(switch_label("save", reg_class), costs.save[reg_class], "save")
    vcpu.saved_context = pcpu.arch.save_context(ARM_SWITCH_ORDER)


# repro-lint: ignore[SYM001] -- lazy-switch restore half of
# vhe_deferred_save.
def vhe_deferred_restore(machine, vcpu):
    """VHE lazy state restore when scheduling a VCPU back in."""
    pcpu, costs = vcpu.pcpu, machine.costs
    for reg_class in VHE_DEFERRED_CLASSES:
        yield pcpu.op(
            switch_label("restore", reg_class), costs.restore[reg_class], "restore"
        )
    pcpu.arch.load_context(vcpu.saved_context)
    pcpu.arch.enable_virt_features(vcpu.vm.vmid)


def x86_exit(machine, vcpu, dispatch=True, reason="vmexit"):
    """Non-root -> root: the hardware moves the state to the VMCS."""
    pcpu, costs = vcpu.pcpu, machine.costs
    span = machine.obs.spans.begin("x86_exit", "world-switch", pcpu.index)
    pcpu.arch.vmexit(reason)
    yield pcpu.op("vmexit_hw", costs.vmexit_hw, "hw-switch")
    if dispatch:
        yield pcpu.op("kvm_exit_dispatch", costs.kvm_exit_dispatch, "host")
    vcpu.state = VcpuState.HOST
    pcpu.current_context = "host"
    machine.obs.spans.end(span)


def x86_enter(machine, vcpu, inject_vector=None):
    """Root -> non-root, optionally with event injection."""
    pcpu, costs = vcpu.pcpu, machine.costs
    span = machine.obs.spans.begin("x86_enter", "world-switch", pcpu.index)
    if pcpu.arch.loaded_vmcs is not vcpu.vmcs:
        pcpu.arch.load_vmcs(vcpu.vmcs)
        yield pcpu.op("vmcs_switch", costs.vmcs_switch, "hw-switch")
    if inject_vector is not None:
        pcpu.arch.inject_on_next_entry(inject_vector)
        yield pcpu.op("virq_inject", costs.virq_inject, "inject")
    yield pcpu.op("vmentry_hw", costs.vmentry_hw, "hw-switch")
    pcpu.arch.vmentry()
    vcpu.state = VcpuState.GUEST
    pcpu.current_context = vcpu
    machine.obs.spans.end(span)
