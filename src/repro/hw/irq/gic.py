"""ARM Generic Interrupt Controller model with virtualization extensions.

What the paper relies on:

* The distributor is *not* virtualization-aware: guest accesses to it trap
  (Stage-2 abort) and are emulated by the hypervisor — in EL2 for Xen, in
  the EL1 host for KVM.  This asymmetry is the whole Interrupt Controller
  Trap / Virtual IPI story of Table II.
* The CPU interface *is* virtualized: the hypervisor programs list
  registers (LRs) from EL2 to inject virtual interrupts, and the guest
  acknowledges/completes them through the GICV interface **without
  trapping** (paper: 71 cycles for Virtual IRQ Completion).
* The LR/VMCR/APR state is part of what split-mode KVM must save/restore
  on every transition — the 3,250-cycle VGIC save of Table III.
* All physical interrupts are taken to EL2 while a VM runs.
"""

from repro.errors import HardwareFault

NUM_LIST_REGISTERS = 4


class ListRegister:
    """One LR: holds a single virtual interrupt's injection state."""

    __slots__ = ("virq", "state")

    EMPTY, PENDING, ACTIVE = "empty", "pending", "active"

    def __init__(self):
        self.virq = None
        self.state = self.EMPTY


class VirtualCpuInterface:
    """Per-VCPU GIC virtual interface (GICH control + GICV guest view).

    The hypervisor writes LRs (from EL2); the guest acknowledges and
    completes through GICV *without trapping* — the completion directly
    deactivates the LR in hardware.
    """

    def __init__(self, name=""):
        self.name = name
        self.list_registers = [ListRegister() for _ in range(NUM_LIST_REGISTERS)]
        #: virqs that didn't fit in LRs (hypervisor software overflow list)
        self.overflow = []

    def inject(self, virq):
        """Hypervisor (EL2): place ``virq`` in a free LR, else overflow."""
        for lr in self.list_registers:
            if lr.state == ListRegister.EMPTY:
                lr.virq = virq
                lr.state = ListRegister.PENDING
                return True
        self.overflow.append(virq)
        return False

    def guest_acknowledge(self):
        """Guest GICV_IAR read: highest-priority pending virq -> active."""
        for lr in self.list_registers:
            if lr.state == ListRegister.PENDING:
                lr.state = ListRegister.ACTIVE
                return lr.virq
        raise HardwareFault("guest IAR with no pending virtual interrupt")

    def guest_complete(self, virq):
        """Guest GICV EOI+deactivate: hardware completes, no trap."""
        for lr in self.list_registers:
            if lr.virq == virq and lr.state == ListRegister.ACTIVE:
                lr.virq = None
                lr.state = ListRegister.EMPTY
                return
        raise HardwareFault("guest completed virq %r that is not active" % (virq,))

    def refill_from_overflow(self):
        """Hypervisor maintenance: move overflowed virqs into freed LRs."""
        moved = 0
        while self.overflow:
            for lr in self.list_registers:
                if lr.state == ListRegister.EMPTY:
                    lr.virq = self.overflow.pop(0)
                    lr.state = ListRegister.PENDING
                    moved += 1
                    break
            else:
                break
        return moved

    def pending_count(self):
        return sum(1 for lr in self.list_registers if lr.state == ListRegister.PENDING)

    def has_pending(self):
        return self.pending_count() > 0 or bool(self.overflow)


class Gic:
    """The GIC's virtualization side: one virtual interface per VCPU slot.

    The distributor has no state here: guest accesses to it are modelled
    as the Stage-2 fault and emulation costs the hypervisors charge.
    """

    def __init__(self):
        self._virtual_interfaces = {}

    def virtual_interface(self, key):
        """The virtual CPU interface for a VCPU key (created on demand).

        Physically there is one virtual interface per PCPU; its state is
        context-switched per-VCPU by the hypervisor, which is equivalent
        to (and simpler as) one logical interface per VCPU.
        """
        if key not in self._virtual_interfaces:
            self._virtual_interfaces[key] = VirtualCpuInterface(name=str(key))
        return self._virtual_interfaces[key]
