"""Calibrated primitive cycle costs — the only paper-derived constants.

Discipline (see DESIGN.md): every constant here is a *primitive* — the cost
of one architectural or software step — never a composed result.  Paper
Table II/V/Figure 4 numbers must emerge from executing hypervisor paths
built from these primitives on the simulator.

Calibration sources:

* ARM per-register-class save/restore costs: paper Table III (measured on
  the HP m400's APM X-Gene at 2.4 GHz).
* Trap/eret, emulation, IPI, scheduler and I/O-stack primitives: fitted so
  the *composed* paths land near paper Tables II and V, while staying
  individually plausible (e.g. an EL1->EL2 trap is O(100) cycles, a Linux
  scheduler wakeup is O(1000)s of cycles).

All costs are integers (cycles of the owning platform's CPU).
"""

import contextlib
import dataclasses
import threading

from repro.errors import ConfigurationError
from repro.hw import readguard
from repro.hw.cpu.registers import RegClass


@dataclasses.dataclass
class ArmCosts:
    """Primitive costs for the ARMv8 (m400-like) platform."""

    # --- hardware exception mechanics -----------------------------------
    #: hvc/data-abort/IRQ trap from EL1/EL0 into EL2 (pipeline flush + vector)
    trap_to_el2: int = 76
    #: eret from EL2 back into EL1/EL0
    eret_to_el1: int = 64
    #: enabling *or* disabling the EL2 virtualization features
    #: (HCR_EL2 traps + Stage-2 translation) on a split-mode switch
    virt_feature_toggle: int = 115

    # --- register-class save/restore (paper Table III) ------------------
    save: dict = dataclasses.field(
        default_factory=lambda: {
            RegClass.GP: 152,
            RegClass.FP: 282,
            RegClass.EL1_SYS: 230,
            RegClass.VGIC: 3250,
            RegClass.TIMER: 104,
            RegClass.EL2_CONFIG: 92,
            RegClass.EL2_VIRTUAL_MEMORY: 92,
        }
    )
    restore: dict = dataclasses.field(
        default_factory=lambda: {
            RegClass.GP: 184,
            RegClass.FP: 310,
            RegClass.EL1_SYS: 511,
            RegClass.VGIC: 181,
            RegClass.TIMER: 106,
            RegClass.EL2_CONFIG: 107,
            RegClass.EL2_VIRTUAL_MEMORY: 107,
        }
    )

    # --- light (Type 1) switch: Xen keeps its own EL2 register bank -----
    #: pushing the guest GP registers onto Xen's EL2 stack
    gp_save_light: int = 76
    #: popping them back on exception return
    gp_restore_light: int = 88

    # --- hypervisor software dispatch ------------------------------------
    #: Xen's hypercall/trap dispatch inside EL2
    xen_dispatch: int = 72
    #: KVM host-side exit handler: EL2 trampoline return -> kvm run loop
    kvm_exit_dispatch: int = 282
    #: VHE KVM's exit dispatch: the handler already runs in EL2 next to
    #: the trap vector, no lowvisor/highvisor bouncing
    kvm_vhe_dispatch: int = 150
    #: a no-op hypercall handler body
    hypercall_body: int = 30
    #: decoding a Stage-2 data-abort syndrome into an MMIO emulation call
    mmio_decode: int = 290

    # --- GIC emulation and virtual interrupts ----------------------------
    #: emulating an ordinary distributor register access
    gic_dist_access: int = 620
    #: extra work for Xen's distributor emulation (vgic locking in EL2)
    gic_dist_access_xen_extra: int = 70
    #: emulating a GICD_SGIR write (send SGI: resolve targets, lock vcpus)
    gic_sgi_emulate: int = 260
    #: Xen-only slow path on SGI emulation: vgic rank locking + vcpu_kick
    #: bookkeeping inside EL2 (Xen 4.5's vgic was known to be lock-heavy)
    xen_sgi_slowpath: int = 1900
    #: Xen-only slow path when injecting a virq from a physical interrupt:
    #: do_IRQ -> vgic_vcpu_inject_irq -> maintenance bookkeeping
    xen_inject_slowpath: int = 1400
    #: Xen ARM vcpu_unblock on event delivery: runqueue insertion plus the
    #: vgic/vtimer pending-state scan Xen 4.5 performed when kicking a
    #: blocked VCPU (ARM-specific; the x86 wake path had no vgic scan)
    xen_vcpu_wake_slowpath: int = 5400
    #: acknowledging a physical interrupt (GICC_IAR read) in the hypervisor
    gic_phys_ack: int = 320
    #: writing a list register to inject one virtual interrupt
    virq_inject_lr: int = 180
    #: software bookkeeping to mark a virq pending for a target VCPU
    virq_set_pending: int = 90
    #: guest completing a virtual IRQ via the GICV interface (NO trap) —
    #: the paper measures 71 cycles for this hardware-assisted completion.
    #: This one cell of Table II *is* a primitive: the operation never
    #: leaves the guest, so the published number is the hardware cost.
    virq_complete_hw: int = 71
    #: guest exception entry to its own IRQ handler
    guest_irq_entry: int = 150

    # --- cross-CPU signaling ---------------------------------------------
    #: physical IPI propagation between PCPUs through the GIC
    ipi_wire: int = 430

    # --- schedulers -------------------------------------------------------
    #: Xen credit-scheduler pick + accounting on a domain switch
    xen_sched_pick: int = 340
    #: additional Xen per-domain context (vtimer migration, pending-irq
    #: rescan, Stage-2/VMID bookkeeping) beyond the register file itself
    xen_ctx_extra: int = 2300
    #: Linux host: switching between two VCPU threads (full process switch)
    host_thread_switch: int = 3400
    #: Linux host: waking a blocked VCPU/vhost thread on another CPU —
    #: wake_up + scheduler IPI + idle exit + runqueue work on the far side
    sched_wakeup: int = 7800

    # --- paravirtual I/O signaling ----------------------------------------
    #: KVM ioeventfd: doorbell write resolved in the host into an eventfd
    eventfd_signal: int = 400
    #: vhost worker dequeue once signaled
    vhost_dequeue: int = 150
    #: Xen: marking an event-channel pending + evtchn bookkeeping in EL2
    evtchn_send: int = 400
    #: Xen: guest-side upcall into the evtchn handler (Dom0 or DomU kernel)
    evtchn_upcall: int = 800
    #: Dom0 netback: softirq schedule + ring dequeue until the signal is
    #: observed by the backend
    netback_kick: int = 1800

    # --- memory-system primitives -----------------------------------------
    #: grant-table map or unmap of one foreign page (hypercall + page-table
    #: update; the paper pins a whole one-byte grant copy at >3 us)
    grant_map: int = 3300
    grant_unmap: int = 3300
    #: memcpy per byte (bulk, cache-warm): ~16 bytes/cycle
    copy_per_byte_num: int = 1
    copy_per_byte_den: int = 16
    #: fixed overhead per copy (function call, ring bookkeeping)
    copy_setup: int = 260
    #: one Stage-2 page-table walk (TLB miss) per level
    stage2_walk_per_level: int = 30
    #: broadcast TLB invalidate (ARM has hardware broadcast: DVM message)
    tlb_invalidate_broadcast: int = 190

    def full_save_cycles(self):
        return sum(self.save.values())

    def full_restore_cycles(self):
        return sum(self.restore.values())

    def copy_cycles(self, nbytes):
        """Cycles to copy ``nbytes`` of payload."""
        return self.copy_setup + (nbytes * self.copy_per_byte_num) // self.copy_per_byte_den


@dataclasses.dataclass
class X86Costs:
    """Primitive costs for the x86 (r320-like) platform.

    x86 transitions move the whole CPU state to/from the VMCS in memory,
    but the transfer is performed *by hardware* as part of vmexit/vmentry
    — so there are no per-register-class software costs here; the split
    is instead exit/entry hardware costs plus software dispatch.
    """

    #: hardware vmexit: non-root -> root, state to VMCS
    vmexit_hw: int = 520
    #: hardware vmentry: root -> non-root, state from VMCS
    vmentry_hw: int = 610
    #: KVM's exit-reason dispatch in the host kernel
    kvm_exit_dispatch: int = 140
    #: Xen's exit dispatch
    xen_dispatch: int = 80
    hypercall_body: int = 30
    #: decoding an APIC-access exit into an emulation call
    mmio_decode: int = 190

    # --- APIC emulation ----------------------------------------------------
    #: KVM in-kernel LAPIC register emulation
    apic_access_kvm: int = 1040
    #: Xen vlapic register emulation
    apic_access_xen: int = 400
    #: emulating an ICR write (send IPI): resolve target, set IRR
    apic_ipi_emulate: int = 1400
    #: host-side acknowledgement/dispatch of a physical IPI that arrived
    #: while a VM was running (external-interrupt exit handling)
    apic_phys_ack: int = 800
    #: injecting a pending interrupt on vmentry (event injection field)
    virq_inject: int = 210
    #: software bookkeeping to mark a virq pending for a target VCPU
    virq_set_pending: int = 90
    #: EOI write emulation (the x86 completion *traps*, unlike ARM's 71)
    eoi_emulate_kvm: int = 426
    eoi_emulate_xen: int = 334
    #: with vAPIC (APICv) hardware support: EOI completes without a trap
    virq_complete_vapic: int = 80
    guest_irq_entry: int = 160

    ipi_wire: int = 520

    # --- schedulers ---------------------------------------------------------
    xen_sched_pick: int = 360
    #: Xen x86 per-domain context beyond the VMCS itself (FPU, MSRs,
    #: vlapic timers, shadow state) — the paper measures Xen x86 VM
    #: switches at 2x KVM's
    xen_ctx_extra: int = 7900
    #: loading another VMCS (vmptrld + segment/MSR reload in software)
    vmcs_switch: int = 640
    host_thread_switch: int = 2900
    #: remote thread wakeup incl. deep C-state idle exit on the r320 Xeon
    sched_wakeup: int = 13000

    # --- paravirtual I/O signaling -------------------------------------------
    #: ioeventfd fast path: the doorbell exit is resolved without a full
    #: round trip into userspace; cost beyond vmexit_hw itself
    eventfd_signal: int = 40
    vhost_dequeue: int = 150
    evtchn_send: int = 260
    evtchn_upcall: int = 400
    netback_kick: int = 900

    #: (1300 coincidentally equals Table II's Hypercall kvm-x86 cell; this
    #: is the x86 grant-map primitive, fitted independently of it)
    grant_map: int = 1300
    grant_unmap: int = 2400  # includes the IPI TLB-shootdown burden (no
    # broadcast invalidate on x86 — why zero-copy was abandoned there)
    copy_per_byte_num: int = 1
    copy_per_byte_den: int = 16
    copy_setup: int = 240
    stage2_walk_per_level: int = 28
    #: x86 remote TLB invalidate requires an IPI per target CPU
    tlb_invalidate_ipi: int = 1450

    def copy_cycles(self, nbytes):
        return self.copy_setup + (nbytes * self.copy_per_byte_num) // self.copy_per_byte_den


def arm_costs():
    """Fresh (mutable) ARM cost model — default calibration plus any
    active what-if overrides (see :func:`overriding`)."""
    _check_scope("arm")
    costs = ArmCosts()
    document = active_overrides()
    if document:
        _apply_section(costs, document.get("arm") or {})
    return _guard_reads(costs, "arm")


def x86_costs():
    """Fresh (mutable) x86 cost model — default calibration plus any
    active what-if overrides (see :func:`overriding`)."""
    _check_scope("x86")
    costs = X86Costs()
    document = active_overrides()
    if document:
        _apply_section(costs, document.get("x86") or {})
    return _guard_reads(costs, "x86")


# --- what-if overrides ------------------------------------------------------
#
# A what-if query ("how does Table II move if trap_to_el2 doubled?")
# needs a *scoped* recalibration: every cost table built while the query
# simulates must carry the overridden primitives, and nothing outside
# the query may observe them.  Overrides are expressed as a document
#
#     {"arm": {"trap_to_el2": 152, "save.GP": 200}, "x86": {...}}
#
# where a plain key names a scalar dataclass field and a dotted
# ``save.<CLASS>`` / ``restore.<CLASS>`` key names one register class of
# the Table III sweep dicts.  ``repro.runner.cells`` installs a document
# around one cell execution.  A cell simulates one architecture, and a
# golden cell (one of the bench grid) also has a committed *read set*:
# the fields of that architecture it reads, with each ``save.<CLASS>`` /
# ``restore.<CLASS>`` entry counted on its own
# (``repro.runner.readsets_golden``).  Only the overrides inside the
# read set travel in the cell's parameters, so a cell that none of them
# touch keeps its default identity (id, cache key, in-flight entry) and
# shares the default payload.  That payload then answers every query
# whose overrides were stripped.  So while a golden cell runs, default
# or what-if, :func:`scoped_to` fails it on reading any field outside
# its read set, as on building the *other* architecture's table.  A
# cell outside the golden carries its architecture's whole section and
# is guarded at architecture level only.

#: the override sections that address into a dict field (RegClass-keyed)
_DICT_FIELDS = ("save", "restore")

#: ``.document`` is the override document installed on this thread
#: (absent or None = pure defaults).  Per thread, like :data:`_SCOPE`:
#: the service derives cache keys on its event-loop thread while its
#: worker thread simulates a what-if cell under that cell's document.
_OVERRIDES = threading.local()

#: The guard of the cell running on this thread: ``.arch`` is the one
#: architecture it simulates and ``.reads`` its read set (None =
#: unscoped / no field guard); ``.recorder`` collects the fields read
#: outside ``.reads`` instead of failing on them.  Kept apart from the
#: override document, which an outer block may own, and per thread, so
#: another thread deriving a cache key (which builds both full tables)
#: is never caught by it.
_SCOPE = threading.local()


def active_overrides():
    """The override document installed on this thread, or None."""
    return getattr(_OVERRIDES, "document", None)


def _check_scope(arch):
    scoped = getattr(_SCOPE, "arch", None)
    if scoped is not None and arch != scoped:
        raise ConfigurationError(
            "a cell that simulates %s built the %s cost table; its "
            "declared architecture is wrong" % (scoped, arch)
        )


def _outside_read_set(arch):
    """The :func:`repro.hw.readguard.restrict` callback for ``arch``."""

    def on_read(field, value):
        recorder = getattr(_SCOPE, "recorder", None)
        if recorder is None:
            raise ConfigurationError(
                "a cell that simulates %s read %s.%s, which is not in its "
                "read set" % (arch, arch, field)
            )
        recorder.add(field)
        return value

    return on_read


_ON_READ = {"arm": _outside_read_set("arm"), "x86": _outside_read_set("x86")}


def _guard_reads(costs, arch):
    reads = getattr(_SCOPE, "reads", None)
    if reads is None:
        return costs
    return readguard.restrict(costs, reads, _ON_READ[arch])


def _override_targets(arch):
    """A default-calibration instance of ``arch``'s cost class, which
    override field names are checked against."""
    if arch == "arm":
        return ArmCosts()
    if arch == "x86":
        return X86Costs()
    raise ConfigurationError(
        "unknown cost-override arch %r (expected 'arm' or 'x86')" % (arch,)
    )


def _check_value(arch, field, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            "cost override %s.%s must be an integer, got %r" % (arch, field, value)
        )
    # copy_cycles divides by the copy divisor
    minimum = 1 if field == "copy_per_byte_den" else 0
    if value < minimum:
        raise ConfigurationError(
            "cost override %s.%s must be >= %d, got %d"
            % (arch, field, minimum, value)
        )


def _resolve_field(prototype, arch, field):
    """Validate that ``field`` addresses a real primitive; returns a key."""
    if "." in field:
        table_name, _, reg_name = field.partition(".")
        if table_name not in _DICT_FIELDS or not isinstance(
            getattr(prototype, table_name, None), dict
        ):
            raise ConfigurationError(
                "cost override %s.%s does not name a register-class table"
                % (arch, field)
            )
        try:
            RegClass[reg_name]
        except KeyError:
            raise ConfigurationError(
                "cost override %s.%s: unknown register class %r (expected one "
                "of %s)" % (arch, field, reg_name, [c.name for c in RegClass])
            )
        return field
    if not hasattr(prototype, field) or not isinstance(
        getattr(prototype, field), int
    ):
        raise ConfigurationError(
            "cost override %s.%s does not name a scalar cost primitive"
            % (arch, field)
        )
    return field


def validate_overrides(document):
    """Check a what-if override document; returns its canonical form.

    The canonical form has sorted arch sections and sorted field names,
    so two equivalent documents serialize identically (the cell cache
    key and the service query key both depend on this).  Raises
    :class:`~repro.errors.ConfigurationError` on any unknown arch,
    field, register class, or non-integer or out-of-range value.
    """
    if not isinstance(document, dict):
        raise ConfigurationError(
            "cost overrides must be an object of per-arch sections, got %r"
            % (document,)
        )
    canonical = {}
    for arch in sorted(document):
        section = document[arch]
        prototype = _override_targets(arch)
        if not isinstance(section, dict):
            raise ConfigurationError(
                "cost-override section %r must be an object, got %r"
                % (arch, section)
            )
        if not section:
            continue
        fields = {}
        for field in sorted(section):
            value = section[field]
            _check_value(arch, field, value)
            fields[_resolve_field(prototype, arch, field)] = value
        canonical[arch] = fields
    return canonical


def _apply_section(costs, section):
    """Write one validated override section onto a fresh cost table."""
    for field, value in section.items():
        if "." in field:
            table_name, _, reg_name = field.partition(".")
            getattr(costs, table_name)[RegClass[reg_name]] = value
        else:
            setattr(costs, field, value)


@contextlib.contextmanager
def overriding(document):
    """Install a what-if override document for the duration of a block,
    on this thread.

    Every :func:`arm_costs` / :func:`x86_costs` call inside the block —
    testbed construction and cache-key derivation alike — sees the
    overridden primitives; the previous state is restored on exit even
    if the block raises.  Documents do not merge: nesting replaces the
    outer document wholesale.  Each table reads only its own section.
    Other threads keep their own document (by default none).
    """
    previous = active_overrides()
    _OVERRIDES.document = validate_overrides(document) if document else None
    try:
        yield
    finally:
        _OVERRIDES.document = previous


@contextlib.contextmanager
def scoped_to(arch, reads=None, recorder=None):
    """Guard the cost tables built inside the block, on this thread.

    Only ``arch``'s table may be built (``None`` leaves the block
    unscoped).  ``reads`` is a read set (a frozenset of field names, see
    the what-if notes above): every table built in the block answers
    those fields as before, and reading any other field raises
    :class:`~repro.errors.ConfigurationError` naming the architecture
    and the field.  ``None`` adds no field guard.  With ``recorder`` (a
    set), such a read adds the field to it and returns the real value
    instead, which is how the read sets are generated.

    The installed override document is not touched, so an outer
    :func:`overriding` still applies.
    """
    previous = (
        getattr(_SCOPE, "arch", None),
        getattr(_SCOPE, "reads", None),
        getattr(_SCOPE, "recorder", None),
    )
    _SCOPE.arch, _SCOPE.reads, _SCOPE.recorder = arch, reads, recorder
    try:
        yield
    finally:
        _SCOPE.arch, _SCOPE.reads, _SCOPE.recorder = previous
