"""The KVM hypervisor model (Type 2), for ARM (split-mode or VHE) and x86.

Implements the seven Table I operations as explicit step-by-step paths.
The structural story of the paper is encoded here:

* ARM split-mode transitions pay the double trap + full state switch.
* The GIC distributor is emulated in the EL1 *host* (after a full exit);
  Xen emulates it in EL2 (see :mod:`repro.hv.xen.xen`).
* I/O backends are host threads with privileged access to VM memory —
  zero copy, no extra VM-switch hops.
* With VHE the host lives in EL2 and transitions stop switching EL1
  state, collapsing the hypercall path to Xen-like cost.
"""

from repro.errors import ConfigurationError, HardwareFault
from repro.hv.base import (
    VIRQ_IPI,
    VIRQ_VIRTIO_NET,
    Hypervisor,
    VcpuState,
)
from repro.hv.kvm import world_switch as ws
from repro.hv.kvm.vhost import VhostWorker
from repro.hv.kvm.virtio import VirtioNetDevice
from repro.hw.cpu.arm import ExceptionLevel

#: Physical IRQ numbers KVM uses for its host-side signaling.
HOST_IPI_IRQ = 1
HOST_WAKE_IRQ = 2


class KvmHypervisor(Hypervisor):
    """KVM integrated with a Linux host OS."""

    design = "type2"

    def __init__(self, machine, vhe=False):
        super().__init__(machine)
        if vhe and not machine.is_arm:
            raise ConfigurationError("VHE is an ARM (ARMv8.1) feature")
        if vhe and not machine.platform.vhe_capable:
            raise ConfigurationError("machine is not VHE capable")
        self.vhe = vhe
        self.name = "kvm-vhe" if vhe else "kvm"
        #: host-side resources per VM
        self.virtio_devices = {}
        self.vhost_workers = {}
        self.host_nic = None
        self.netstack = None
        for pcpu in machine.pcpus:
            pcpu.irq_handler = self._irq_handler
            pcpu.current_context = "host"
            if machine.is_arm:
                ws.ensure_host_context(pcpu)
                if vhe:
                    pcpu.arch.set_e2h(True)
                    pcpu.arch.trap_to_el2("boot-into-el2-host")

    # --- configuration ----------------------------------------------------

    def _on_vm_created(self, vm):
        device = VirtioNetDevice(vm)
        self.virtio_devices[vm.name] = device
        # vhost worker runs on a host-side PCPU: by the paper's pinning
        # recipe, host work is kept off the VCPUs' PCPUs.
        host_side = self._host_side_pcpu(vm)
        self.vhost_workers[vm.name] = VhostWorker(self, vm, device, host_side)

    def _host_side_pcpu(self, vm):
        vcpu_pcpus = {vcpu.pcpu.index for vcpu in vm.vcpus}
        for pcpu in self.machine.pcpus:
            if pcpu.index not in vcpu_pcpus:
                return pcpu
        return self.machine.pcpus[-1]

    def attach_network(self, nic, netstack):
        """Connect the physical NIC + host netstack cost model."""
        self.host_nic = nic
        self.netstack = netstack
        nic.on_receive = self._on_physical_receive

    # --- benchmark setup helpers (zero-cost state installation) -------------

    # repro-lint: ignore[SYM001] -- zero-cost benchmark setup: installs a
    # guest image that was never live on this PCPU, so there is nothing
    # to save (measured windows start after installation).
    def install_guest(self, vcpu):
        """Put ``vcpu`` in GUEST state on its pinned PCPU (no cost)."""
        pcpu = vcpu.pcpu
        arch = pcpu.arch
        if self.machine.is_arm:
            if arch.current_el == ExceptionLevel.EL2:
                arch.eret(ExceptionLevel.EL1)
            arch.load_context(vcpu.saved_context)
            arch.enable_virt_features(vcpu.vm.vmid)
        else:
            if not arch.root_mode:
                if arch.loaded_vmcs is vcpu.vmcs:
                    vcpu.state = VcpuState.GUEST
                    pcpu.current_context = vcpu
                    return
                arch.vmexit("reinstall")
            arch.load_vmcs(vcpu.vmcs)
            arch.vmentry()
        vcpu.state = VcpuState.GUEST
        pcpu.current_context = vcpu

    # repro-lint: ignore[SYM001] -- save half of the idle transition: the
    # matching restore runs on the wake_enter path (_enter world switch)
    # when the blocked VCPU thread is next scheduled.
    def park_vcpu(self, vcpu):
        """Model the VM idling: WFI -> the VCPU thread blocks in the host."""
        pcpu = vcpu.pcpu
        arch = pcpu.arch
        if self.machine.is_arm:
            if pcpu.current_context is vcpu:
                vcpu.saved_context = arch.save_context(ws.ARM_SWITCH_ORDER)
                arch.disable_virt_features()
                if self.vhe and arch.current_el != ExceptionLevel.EL2:
                    arch.trap_to_el2("park")  # VHE host idles in EL2
        else:
            if pcpu.current_context is vcpu and not arch.root_mode:
                arch.vmexit("hlt")
        vcpu.state = VcpuState.BLOCKED
        if pcpu.current_context is vcpu:
            pcpu.current_context = "host"

    # --- internal switch selection ------------------------------------------

    def _exit(self, vcpu, dispatch=True, reason="trap"):
        self.traps.inc()
        if not self.machine.is_arm:
            return ws.x86_exit(self.machine, vcpu, dispatch, reason)
        if self.vhe:
            return ws.vhe_exit(self.machine, vcpu, dispatch, reason)
        return ws.split_mode_exit(self.machine, vcpu, dispatch, reason)

    def _enter(self, vcpu, inject_virq=None):
        if not self.machine.is_arm:
            return ws.x86_enter(self.machine, vcpu, inject_virq)
        if self.vhe:
            return ws.vhe_enter(self.machine, vcpu, inject_virq)
        return ws.split_mode_enter(self.machine, vcpu, inject_virq)

    # --- Table I operations ----------------------------------------------------

    def run_hypercall(self, vcpu):
        """Row 1: null hypercall round trip."""
        return self._hypercall_path(vcpu)

    def _hypercall_path(self, vcpu):
        span = self.machine.obs.spans.begin("hypercall", "operation", vcpu.pcpu.index)
        yield from self._exit(vcpu, reason="hypercall")
        yield vcpu.pcpu.op("hypercall_body", self.costs.hypercall_body, "host")
        yield from self._enter(vcpu)
        self.machine.obs.spans.end(span)

    def run_intc_trap(self, vcpu):
        """Row 2: emulated interrupt-controller register access.

        KVM's distinguishing cost: the emulation runs in the *host*, so
        the access pays the full exit before any emulation happens.
        """
        return self._intc_path(vcpu)

    def _intc_path(self, vcpu):
        span = self.machine.obs.spans.begin("intc_trap", "operation", vcpu.pcpu.index)
        if self.machine.is_arm:
            self._distributor_stage2_fault(vcpu)  # the trap's real cause
        yield from self._exit(vcpu, reason="intc-mmio")
        pcpu, costs = vcpu.pcpu, self.costs
        yield pcpu.op("mmio_decode", costs.mmio_decode, "emul")
        if self.machine.is_arm:
            self.machine.gic.distributor.is_enabled(VIRQ_VIRTIO_NET)
            yield pcpu.op("gic_dist_access", costs.gic_dist_access, "emul")
        else:
            yield pcpu.op("apic_access", costs.apic_access_kvm, "emul")
        yield from self._enter(vcpu)
        self.machine.obs.spans.end(span)

    def send_virtual_ipi(self, src_vcpu, dst_vcpu):
        """Row 3: virtual IPI between VCPUs on different PCPUs."""
        if src_vcpu.pcpu is dst_vcpu.pcpu:
            raise ConfigurationError("virtual IPI benchmark needs distinct PCPUs")
        done = self.engine.event("virtual-ipi-handled")
        self.engine.spawn(
            self._send_virtual_ipi(src_vcpu, dst_vcpu, done), name="vipi-send"
        )
        return done

    def _send_virtual_ipi(self, src_vcpu, dst_vcpu, done):
        pcpu, costs = src_vcpu.pcpu, self.costs
        span = self.machine.obs.spans.begin("virtual_ipi_send", "operation", pcpu.index)
        if self.machine.is_arm:
            self._distributor_stage2_fault(src_vcpu)  # SGIR is MMIO too
        yield from self._exit(src_vcpu, reason="sgi-write")
        yield pcpu.op("mmio_decode", costs.mmio_decode, "emul")
        if self.machine.is_arm:
            yield pcpu.op("gic_sgi_emulate", costs.gic_sgi_emulate, "emul")
        else:
            yield pcpu.op("apic_ipi_emulate", costs.apic_ipi_emulate, "emul")
        yield pcpu.op("virq_set_pending", costs.virq_set_pending, "emul")
        dst_vcpu.queue_virq(VIRQ_IPI)
        self.virqs_injected.inc()
        self.machine.ipi.send(
            dst_vcpu.pcpu,
            HOST_IPI_IRQ,
            {"kind": "inject_running", "vcpu": dst_vcpu, "done": done},
        )
        yield from self._enter(src_vcpu)
        self.machine.obs.spans.end(span)

    def complete_virq(self, vcpu, virq):
        """Row 4: guest acknowledges-and-completes a virtual interrupt."""
        pcpu, costs = vcpu.pcpu, self.costs
        if self.machine.is_arm:
            # Hardware-assisted: the GICV deactivates the LR, no trap.
            vcpu.vif.guest_complete(virq)
            yield pcpu.op("virq_complete_hw", costs.virq_complete_hw, "guest")
            if vcpu.vif.overflow:
                # Maintenance interrupt: an LR freed while software-
                # pending interrupts wait — the hypervisor refills.
                # For split-mode KVM this is a *full* exit.
                yield from self._exit(vcpu, dispatch=False, reason="maintenance")
                moved = vcpu.vif.refill_from_overflow()
                yield pcpu.op(
                    "virq_inject_lr", costs.virq_inject_lr * max(1, moved), "vgic"
                )
                yield from self._enter(vcpu)
        elif self.machine.platform.vapic_enabled:
            self.machine.apic.lapic(pcpu.index).eoi(virq)
            yield pcpu.op("virq_complete_vapic", costs.virq_complete_vapic, "guest")
        else:
            # The EOI write traps.
            yield from self._exit(vcpu, dispatch=False, reason="eoi")
            self.machine.apic.lapic(pcpu.index).eoi(virq)
            yield pcpu.op("eoi_emulate", costs.eoi_emulate_kvm, "emul")
            yield from self._enter(vcpu)

    def switch_vm(self, vcpu_out, vcpu_in):
        """Row 5: switch VMs on one core — for KVM, a host thread switch
        between two VCPU threads, with the VM state moved on each side."""
        if vcpu_out.pcpu is not vcpu_in.pcpu:
            raise ConfigurationError("VM switch benchmark uses one physical core")
        self.vm_switches.inc()
        pcpu, costs = vcpu_out.pcpu, self.costs
        span = self.machine.obs.spans.begin("vm_switch", "operation", pcpu.index)
        yield from self._exit(vcpu_out, reason="preempt")
        if self.vhe:
            yield from ws.vhe_deferred_save(self.machine, vcpu_out)
        yield pcpu.op("host_thread_switch", costs.host_thread_switch, "sched")
        if self.vhe:
            yield from ws.vhe_deferred_restore(self.machine, vcpu_in)
        yield from self._enter(vcpu_in)
        self.machine.obs.spans.end(span)

    def kick_backend(self, vcpu, packet=None):
        """Row 6 (I/O Latency Out): virtio doorbell -> vhost signaled.

        Returns the SimEvent fired when the backend receives the signal
        (synchronously in the exiting context — see vhost.py).
        """
        observed = self.engine.event("vhost-signaled")
        self.engine.spawn(self._kick(vcpu, packet, observed), name="virtio-kick")
        return observed

    def _kick(self, vcpu, packet, observed):
        pcpu, costs = vcpu.pcpu, self.costs
        span = self.machine.obs.spans.begin("virtio_kick", "io", pcpu.index)
        device = self.virtio_devices[vcpu.vm.name]
        if packet is not None:
            device.tx.guest_post({"packet": packet})
        device.tx.guest_kick()
        if self.machine.is_arm:
            # The doorbell is an MMIO Stage-2 fault: full exit, decode,
            # then the host resolves it into an ioeventfd.
            yield from self._exit(vcpu, reason="virtio-kick")
            yield pcpu.op("mmio_decode", costs.mmio_decode, "emul")
            yield pcpu.op("eventfd_signal", costs.eventfd_signal, "io")
        else:
            # x86 ioeventfd fast path: resolved right after the hardware
            # exit, no full dispatch.
            yield from self._exit(vcpu, dispatch=False, reason="virtio-kick")
            yield pcpu.op("eventfd_signal", costs.eventfd_signal, "io")
        observed.fire(self.engine.now)
        self.vhost_workers[vcpu.vm.name].signal_kick(packet)
        yield from self._enter(vcpu)
        self.machine.obs.spans.end(span)

    def notify_guest(self, vm, virq=VIRQ_VIRTIO_NET, packet=None):
        """Row 7 (I/O Latency In): backend signals the VM; the event fires
        when the guest's interrupt handler runs."""
        done = self.engine.event("guest-notified")
        self.engine.spawn(self._notify(vm, virq, packet, done), name="virtio-notify")
        return done

    def _notify(self, vm, virq, packet, done):
        worker = self.vhost_workers[vm.name]
        pcpu, costs = worker.pcpu, self.costs
        span = self.machine.obs.spans.begin("virtio_notify", "io", pcpu.index)
        dst = vm.next_irq_vcpu()
        dst.queue_virq(virq)
        self.virqs_injected.inc()
        yield pcpu.op("virq_set_pending", costs.virq_set_pending, "emul")
        # repro-lint: ignore[FLW001] -- intentional asymmetry: waking a
        # blocked VCPU thread charges the host scheduler (sched_wakeup,
        # Table V), while kicking a running one costs the sender nothing
        # -- the destination PCPU's IPI handler pays for the injection.
        if dst.state == VcpuState.GUEST:
            self.machine.ipi.send(
                dst.pcpu, HOST_IPI_IRQ, {"kind": "inject_running", "vcpu": dst, "done": done}
            )
        else:
            # The VCPU thread is blocked (VM idle in WFI/HLT): wake it.
            yield pcpu.op("sched_wakeup", costs.sched_wakeup, "sched")
            self.machine.ipi.send(
                dst.pcpu, HOST_WAKE_IRQ, {"kind": "wake_enter", "vcpu": dst, "done": done}
            )
        self.machine.obs.spans.end(span)

    def deliver_timer_virq(self, vcpu, done=None):
        """Virtual-timer expiry: the physical PPI fires on the VCPU's own
        PCPU (no IPI wire) and is translated into VIRQ_TIMER."""
        kind = "inject_running" if vcpu.state == VcpuState.GUEST else "wake_enter"
        vcpu.pcpu.raise_physical_irq(
            27, {"kind": kind, "vcpu": vcpu, "done": done}
        )

    # --- physical interrupt handling on a PCPU -------------------------------

    def _irq_handler(self, pcpu, irq, payload):
        if not isinstance(payload, dict) or "kind" not in payload:
            raise HardwareFault("KVM got an unroutable physical irq %r" % (irq,))
        kind = payload["kind"]
        vcpu = payload["vcpu"]
        done = payload.get("done")
        costs = self.costs
        if kind == "inject_running":
            # Physical IPI while the target runs VM code: exit, ack the
            # physical interrupt, re-enter with the virq injected.
            if pcpu.current_context is not vcpu:
                raise HardwareFault(
                    "inject_running: %s is not current on pcpu%d" % (vcpu.name, pcpu.index)
                )
            yield from self._exit(vcpu, dispatch=False, reason="phys-irq")
            yield pcpu.op(*self._phys_ack_step())
            virqs = vcpu.take_pending_virqs()
            virq = virqs[0] if virqs else VIRQ_IPI
            yield from self._enter(vcpu, inject_virq=self._inject_arg(virq))
            handled = yield from self._guest_handles_virq(vcpu, virq)
            if done is not None:
                done.fire(self.engine.now)
            # The guest handler completes the interrupt after the measured
            # delivery point.
            yield from self.complete_virq(vcpu, virq)
            return handled
        if kind == "wake_enter":
            # Scheduler IPI: the idle PCPU switches to the VCPU thread.
            yield pcpu.op("host_thread_switch", costs.host_thread_switch, "sched")
            if self.vhe:
                yield from ws.vhe_deferred_restore(self.machine, vcpu)
            virqs = vcpu.take_pending_virqs()
            virq = virqs[0] if virqs else VIRQ_VIRTIO_NET
            yield from self._enter(vcpu, inject_virq=self._inject_arg(virq))
            handled = yield from self._guest_handles_virq(vcpu, virq)
            if done is not None:
                done.fire(self.engine.now)
            yield from self.complete_virq(vcpu, virq)
            return handled
        raise HardwareFault("unknown KVM irq payload kind %r" % (kind,))

    def _phys_ack_step(self):
        if self.machine.is_arm:
            return ("gic_phys_ack", self.costs.gic_phys_ack, "irq")
        return ("apic_phys_ack", self.costs.apic_phys_ack, "irq")

    def _inject_arg(self, virq):
        return virq

    def _guest_handles_virq(self, vcpu, virq):
        result = yield from super()._guest_handles_virq(vcpu, virq)
        if not self.machine.is_arm:
            # Model delivery through the LAPIC so EOI bookkeeping works.
            lapic = self.machine.apic.lapic(vcpu.pcpu.index)
            lapic.request(virq)
            lapic.deliver_highest()
        return result

    # --- host-side data path (used by netperf / application models) ------------

    def host_transmit(self, vm, packet):
        """vhost hands a guest packet to the host stack + physical NIC.

        Zero copy: the host addresses the guest buffer directly.
        """
        worker = self.vhost_workers[vm.name]
        self.engine.spawn(self._host_tx(worker, packet), name="host-tx")

    def _host_tx(self, worker, packet):
        if self.netstack is not None:
            yield worker.pcpu.op("host_bridge_tx", self.netstack.bridge_tx_cycles(), "net")
            yield worker.pcpu.op("host_tx_stack", self.netstack.host_tx_cycles(), "net")
        packet.stamp("host.tx", self.engine.now)
        if self.host_nic is not None:
            self.host_nic.transmit(packet)

    def _on_physical_receive(self, packet):
        """Physical NIC rx: host IRQ + stack, then vhost injects into VM."""
        self.engine.spawn(self._host_rx(packet), name="host-rx")

    def _host_rx(self, packet):
        if not self.vms:
            raise ConfigurationError("received a packet with no VM attached")
        vm = self.vms[0]
        worker = self.vhost_workers[vm.name]
        packet.stamp("host.rx_driver", self.engine.now)
        if self.netstack is not None:
            yield worker.pcpu.op("host_irq_rx_stack", self.netstack.host_rx_cycles(), "net")
            yield worker.pcpu.op("host_bridge_rx", self.netstack.bridge_cycles(), "net")
        packet.stamp("host.rx_done", self.engine.now)
        yield from worker.deliver_rx(packet)
