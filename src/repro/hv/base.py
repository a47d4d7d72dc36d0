"""Common hypervisor abstractions: VMs, VCPUs, and the operation interface.

The operations mirror the paper's Table I microbenchmarks plus the I/O
building blocks the application benchmarks compose.  Each operation is a
simulation generator; cross-CPU operations return a :class:`SimEvent`
that fires at the measured endpoint.
"""

import enum

from repro.errors import ConfigurationError, HardwareFault
from repro.hw.cpu.registers import RegClass, fresh_context_image
from repro.hw.mem.stage2 import Stage2Fault, Stage2Tables, identity_map

#: Guest-physical base of the emulated GIC distributor (virt-machine
#: style).  Deliberately NEVER mapped at Stage 2 — accesses fault, which
#: is the trap mechanism behind the Interrupt Controller Trap benchmark.
GICD_BASE_GPA = 0x0800_0000
#: Guest RAM base and the (token) number of pages premapped at boot.
GUEST_RAM_BASE_PAGE = 0x4_0000  # 1 GB
GUEST_RAM_PREMAP_PAGES = 64

#: Architectural translation granule (bytes) — the unit of grant mapping
#: and paravirtual block transfers.
PAGE_SIZE = 0x1000
#: Guest-physical page regions backing the paravirtual I/O rings.  The
#: exact values are tokens (any unused GPA range works); naming them keeps
#: the frontend/backend/grant-table memory-map contract in one place.
GRANT_TX_BASE_GPA = 0x1000
GRANT_RX_BASE_GPA = 0x2000
GRANT_BLK_BASE_GPA = 0x4000
#: netback cycles grant pages over this many ring slots
GRANT_RING_SLOTS = 64

#: Every register class a split-mode ARM hypervisor must context switch
#: (the rows of paper Table III).
ALL_ARM_CLASSES = [
    RegClass.GP,
    RegClass.FP,
    RegClass.EL1_SYS,
    RegClass.VGIC,
    RegClass.TIMER,
    RegClass.EL2_CONFIG,
    RegClass.EL2_VIRTUAL_MEMORY,
]

#: Op label of every per-class save/restore step, built once rather than
#: formatted on each world switch.
_SWITCH_LABELS = {
    (prefix, reg_class): "%s_%s" % (prefix, reg_class.name.lower())
    for prefix in ("save", "restore")
    for reg_class in RegClass
}


def switch_label(prefix, reg_class):
    """``"save_gp"``-style op label of one register class's switch step."""
    return _SWITCH_LABELS[prefix, reg_class]

#: Virtual IRQ numbers used by the models (ARM SPI-style numbering).
VIRQ_IPI = 1  # SGI used for guest rescheduling IPIs
VIRQ_VIRTIO_NET = 48  # KVM virtio-net queue interrupt
VIRQ_EVTCHN = 31  # Xen event-channel upcall PPI


class VcpuState(enum.Enum):
    GUEST = "guest"  # executing VM code
    HOST = "host"  # exited; hypervisor/host context on the PCPU
    BLOCKED = "blocked"  # idle in the VM; backing thread/domain descheduled


class Vcpu:
    """One virtual CPU, pinned to a physical CPU (paper Section III)."""

    def __init__(self, vm, index, pcpu):
        self.vm = vm
        self.index = index
        self.pcpu = pcpu
        self.state = VcpuState.GUEST
        #: saved register image while the VCPU is not on the hardware
        self.saved_context = fresh_context_image()
        #: GIC virtual CPU interface (ARM machines only)
        self.vif = None
        #: VMCS (x86 machines only)
        self.vmcs = None
        #: software-pending virtual IRQs not yet in LRs / VMCS injection
        self.pending_virqs = []

    @property
    def name(self):
        return "%s.vcpu%d" % (self.vm.name, self.index)

    def queue_virq(self, virq):
        self.pending_virqs.append(virq)

    def take_pending_virqs(self):
        pending, self.pending_virqs = self.pending_virqs, []
        return pending

    def __repr__(self):
        return "Vcpu(%s on pcpu%d, %s)" % (self.name, self.pcpu.index, self.state.value)


class Vm:
    """A virtual machine: VCPUs + Stage-2 address space + virtual devices."""

    def __init__(self, hypervisor, name, num_vcpus, pcpu_indices, memory_mb=12288):
        if len(pcpu_indices) != num_vcpus:
            raise ConfigurationError(
                "VM %s: need one pinned PCPU per VCPU (%d != %d)"
                % (name, len(pcpu_indices), num_vcpus)
            )
        self.hypervisor = hypervisor
        self.name = name
        self.memory_mb = memory_mb
        # vmids are scoped to the owning hypervisor (as on real hardware,
        # where VTTBR VMIDs are per-host): a module-level counter would be
        # process-global mutable state leaking across the cells the
        # runner executes one after another in one process.
        self.vmid = hypervisor._allocate_vmid()
        self.stage2 = Stage2Tables(self.vmid)
        # Premap a token chunk of guest RAM; real faults fill the rest
        # on demand.  The GIC distributor region is intentionally left
        # unmapped so guest accesses there take a Stage-2 abort.
        identity_map(self.stage2, GUEST_RAM_BASE_PAGE, GUEST_RAM_PREMAP_PAGES)
        machine = hypervisor.machine
        self.vcpus = [
            Vcpu(self, i, machine.pcpu(pcpu_indices[i])) for i in range(num_vcpus)
        ]
        for vcpu in self.vcpus:
            if machine.is_arm:
                vcpu.vif = machine.gic.virtual_interface(vcpu.name)
            else:
                from repro.hw.cpu.x86 import Vmcs

                vcpu.vmcs = Vmcs(vcpu.name)
        #: index of the VCPU that receives device interrupts; the paper
        #: found both KVM and Xen funnel all virtual interrupts to VCPU0,
        #: and measured the win from distributing them (Section V).
        self.irq_affinity = [0]
        self._irq_rr = 0

    def next_irq_vcpu(self):
        """Pick the VCPU for the next device interrupt (round robin over
        the configured affinity set)."""
        index = self.irq_affinity[self._irq_rr % len(self.irq_affinity)]
        self._irq_rr += 1
        return self.vcpus[index]

    def vcpu(self, index):
        return self.vcpus[index]

    def __repr__(self):
        return "Vm(%s, %d vcpus)" % (self.name, len(self.vcpus))


class Hypervisor:
    """Abstract hypervisor: the operation interface the benchmarks drive.

    Concrete designs (KVM split-mode / KVM VHE / Xen) implement the
    generators; all take care to execute their costed steps through
    ``pcpu.op`` so recorded spans reconstruct breakdowns like Table III.
    """

    #: 'type1' or 'type2' — for reporting
    design = None
    name = "hypervisor"

    def __init__(self, machine):
        self.machine = machine
        self.engine = machine.engine
        self.costs = machine.costs
        self.vms = []
        self._next_vmid = 1
        #: counters in the machine's metrics registry, so the
        #: observability exporters see the same numbers.
        metrics = machine.obs.metrics
        self.traps = metrics.counter("hv.traps")
        self.vm_switches = metrics.counter("hv.vm_switches")
        self.virqs_injected = metrics.counter("hv.virqs_injected")

    # --- VM lifecycle ---------------------------------------------------

    def _allocate_vmid(self):
        """Hand out the next Stage-2 VMID, scoped to this hypervisor."""
        vmid = self._next_vmid
        self._next_vmid += 1
        return vmid

    def create_vm(self, name, num_vcpus, pcpu_indices, memory_mb=12288):
        vm = Vm(self, name, num_vcpus, pcpu_indices, memory_mb)
        self.vms.append(vm)
        self._on_vm_created(vm)
        return vm

    def _on_vm_created(self, vm):
        """Hook for subclasses (e.g. Xen registers the domain)."""

    # --- Table I operations (generators) -----------------------------------

    def run_hypercall(self, vcpu):
        """VM -> hypervisor -> VM with a no-op handler (Table I row 1)."""
        raise NotImplementedError

    def run_intc_trap(self, vcpu):
        """Trap to the emulated interrupt controller and back (row 2)."""
        raise NotImplementedError

    def send_virtual_ipi(self, src_vcpu, dst_vcpu):
        """Virtual IPI between VCPUs on different PCPUs (row 3).

        Returns a SimEvent that fires when the destination guest's
        interrupt handler runs.
        """
        raise NotImplementedError

    def complete_virq(self, vcpu, virq):
        """Guest acknowledges + completes a virtual interrupt (row 4)."""
        raise NotImplementedError

    def switch_vm(self, vcpu_out, vcpu_in):
        """Switch between two VMs on the same physical core (row 5)."""
        raise NotImplementedError

    def kick_backend(self, vcpu):
        """I/O Latency Out (row 6): driver in the VM signals the virtual
        I/O device.  Returns a SimEvent fired when the backend observes
        the signal."""
        raise NotImplementedError

    def notify_guest(self, vm, virq=None):
        """I/O Latency In (row 7): virtual I/O device signals the VM.
        Returns a SimEvent fired when the guest receives the virtual
        interrupt."""
        raise NotImplementedError

    # --- helpers shared by implementations ------------------------------------

    def _distributor_stage2_fault(self, vcpu):
        """The trap behind the Interrupt Controller Trap benchmark: the
        guest's distributor access takes a Stage-2 abort (the region is
        never mapped), whose syndrome the hypervisor decodes into an
        emulation call.  Returns the fault for syndrome inspection."""
        try:
            vcpu.vm.stage2.walk(GICD_BASE_GPA, write=True)
        except Stage2Fault as fault:
            return fault
        raise HardwareFault(
            "the GIC distributor region must never be Stage-2 mapped"
        )

    def _guest_handles_virq(self, vcpu, virq):
        """Guest takes the injected virq to its handler (ack included)."""
        costs = self.costs
        pcpu = vcpu.pcpu
        yield pcpu.op("guest_irq_entry", costs.guest_irq_entry, "guest")
        if vcpu.vif is not None:
            acked = vcpu.vif.guest_acknowledge()
            if acked != virq:
                raise HardwareFault(
                    "guest acked virq %r, expected %r" % (acked, virq)
                )
        return virq
