"""Mutation audit: realistic model bugs, and the gates that catch each.

``CATALOGUE`` lists bugs a change to the model could plausibly bring
in.  Each record names the file (package-relative), an exact source
anchor, its replacement, the bug the edit models, and the gates that
caught it when the audit last ran:

* ``tests``: tier-1 ``tests/`` without the tier-owned files
  (``TIER_OWNED`` below),
* ``paper``: the ``benchmarks/`` paper gate,
* ``sha``: the pinned ``report_sha256`` of ``bench --no-cache``,
* one code per lint rule that fires under ``repro lint``.

DESIGN.md "Mutation audit" holds the full matrix and the verdict rule
that ``sole_catcher_tier`` encodes.  Tier-1 checks that every anchor
still applies exactly once and re-runs, in process, each row that only
lint rules catch, so deleting a rule a row depends on fails here.  The
full audit (every gate, every row) is run by hand: apply one record to a
throwaway copy of the repository, then run the gates there.
"""

import collections
import pathlib
import shutil

import pytest

from repro.analysis import run_analysis
from repro.analysis.config import LintConfig

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: test files that exercise the lint tiers themselves; the ``tests``
#: column runs tier-1 without them
TIER_OWNED = (
    "test_analysis_clean.py",
    "test_analysis_cli.py",
    "test_analysis_rules.py",
    "test_mutation_audit.py",
)

TIER_OF = {
    "CAL001": "line",
    "DET001": "line",
    "COV001": "line",
    "API001": "line",
}
RUNTIME_GATES = ("tests", "paper", "sha")
GATES = RUNTIME_GATES + tuple(TIER_OF)

#: the package directories the lint rows need (model layers + cost model)
MODEL_DIRS = ("sim", "hw", "hv", "os", "workloads", "core", "obs")

Mutation = collections.namedtuple(
    "Mutation", "id file anchor replacement bug caught_by"
)

WS = "hv/kvm/world_switch.py"
KVM = "hv/kvm/kvm.py"
XEN = "hv/xen/xen.py"

CATALOGUE = (
    Mutation(
        "kvm-drop-restore-timer",
        WS,
        "    pcpu.host_context = arch.save_context(ARM_SWITCH_ORDER)\n"
        "    for reg_class in ARM_SWITCH_ORDER:\n",
        "    pcpu.host_context = arch.save_context(ARM_SWITCH_ORDER)\n"
        "    for reg_class in ARM_SWITCH_ORDER:\n"
        "        if reg_class is RegClass.TIMER:\n"
        "            continue\n",
        "split-mode entry skips the timer-class restore",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "kvm-exit-charges-restore",
        WS,
        '        yield pcpu.op(switch_label("save", reg_class), costs.save[reg_class], "save")\n'
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n",
        '        yield pcpu.op(switch_label("save", reg_class), costs.restore[reg_class], "save")\n'
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n",
        "split-mode exit charges the restore column for its saves",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "kvm-double-vgic-save",
        WS,
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n"
        "    arch.disable_virt_features()\n",
        '    yield pcpu.op(switch_label("save", RegClass.VGIC), costs.save[RegClass.VGIC], "save")\n'
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n"
        "    arch.disable_virt_features()\n",
        "split-mode exit charges the VGIC save twice",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "xen-skip-idle-switch",
        XEN,
        "            if pcpu.current_context is IDLE:\n"
        "                yield from self._domain_switch(pcpu, vcpu, inject_virq=virq)\n",
        "            if pcpu.current_context is IDLE:\n"
        "                pcpu.current_context = vcpu\n"
        "                yield from self._inject_into_running(vcpu, virq)\n",
        "event delivery to an idling PCPU injects as if the domain ran, "
        "skipping the idle-to-domain switch",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "det-random-wire",
        "hw/dev/wire.py",
        "        serialize_ns = size_bytes * 8 / self.bandwidth_bps * 1e9\n"
        "        return self.clock.cycles_from_ns(serialize_ns + self.latency_ns)\n",
        "        import random\n"
        "\n"
        "        serialize_ns = size_bytes * 8 / self.bandwidth_bps * 1e9\n"
        "        jitter_ns = random.gauss(0.0, 0.0)\n"
        "        return self.clock.cycles_from_ns(serialize_ns + self.latency_ns + jitter_ns)\n",
        "wire latency draws (zero-amplitude) jitter from the global random module",
        ("DET001",),
    ),
    Mutation(
        "det-time-name",
        "hv/kvm/vhost.py",
        '        self._proc = engine.spawn(self._run(), name="%s.vhost" % vm.name)\n',
        "        import time\n"
        "\n"
        "        self._proc = engine.spawn(\n"
        '            self._run(), name="%s.vhost.%d" % (vm.name, time.monotonic_ns())\n'
        "        )\n",
        "the vhost worker's process name embeds a wall-clock read",
        ("DET001",),
    ),
    Mutation(
        "x86-gets-arm-costs",
        "hw/platform.py",
        "        costs=costs if costs is not None else x86_costs(),\n",
        "        costs=costs if costs is not None else arm_costs(),\n",
        "the x86 platform builds the ARM cost table",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "anyof-leak",
        "sim/engine.py",
        '                state["registered"] = None\n'
        "                for event, losing_callback in registered:\n"
        "                    if losing_callback is not callback:\n"
        "                        event.cancel_on_fire(losing_callback)\n",
        '                state["registered"] = None\n',
        "AnyOf leaves the losing callbacks registered",
        ("tests",),
    ),
    Mutation(
        "xen-dropped-return",
        XEN,
        '        yield from self._xen_entry(vcpu, "hypercall")\n'
        "        yield from self._xen_return(vcpu)\n",
        '        yield from self._xen_entry(vcpu, "hypercall")\n'
        "        self._xen_return(vcpu)\n",
        "the Xen hypercall drops its return half as a bare generator call",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "xen-maint-early-return",
        XEN,
        "                moved = vcpu.vif.refill_from_overflow()\n",
        "                moved = vcpu.vif.refill_from_overflow()\n"
        "                if not moved:\n"
        "                    return\n",
        "Xen's maintenance handler returns without the eret when nothing "
        "moved (a branch no cell runs)",
        ("tests",),
    ),
    Mutation(
        "xen-maint-live-return",
        XEN,
        '                    "virq_inject_lr", costs.virq_inject_lr * max(1, moved), "vgic"\n'
        "                )\n",
        '                    "virq_inject_lr", costs.virq_inject_lr * max(1, moved), "vgic"\n'
        "                )\n"
        "                return\n",
        "Xen's maintenance handler returns after the refill, skipping the "
        "GP restore and the eret",
        ("tests",),
    ),
    Mutation(
        "kvm-x86-kick-uncharged",
        KVM,
        '            yield from self._exit(vcpu, dispatch=False, reason="virtio-kick")\n'
        '            yield pcpu.op("eventfd_signal", costs.eventfd_signal, "io")\n',
        '            yield from self._exit(vcpu, dispatch=False, reason="virtio-kick")\n',
        "the x86 ioeventfd kick no longer charges the eventfd signal",
        ("tests", "sha"),
    ),
    Mutation(
        "xen-cost-typo",
        XEN,
        'yield pcpu.op("eoi_emulate", costs.eoi_emulate_xen, "emul")\n',
        'yield pcpu.op("eoi_emulate", costs.eoi_emulate_xne, "emul")\n',
        "Xen's x86 EOI emulation reads a misspelt cost field",
        ("tests", "paper", "sha", "COV001"),
    ),
    Mutation(
        "hardcode-vgic-literal",
        WS,
        '        yield pcpu.op(switch_label("save", reg_class), costs.save[reg_class], "save")\n'
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n",
        "        cycles = 3250 if reg_class is RegClass.VGIC else costs.save[reg_class]\n"
        '        yield pcpu.op(switch_label("save", reg_class), cycles, "save")\n'
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n",
        "split-mode exit hardcodes the Table III VGIC save instead of "
        "reading the cost table",
        ("tests", "CAL001"),
    ),
    Mutation(
        "vhe-wrong-primitive",
        WS,
        '    yield pcpu.op("save_gp_light", costs.gp_save_light, "save")\n',
        '    yield pcpu.op("save_gp_light", costs.trap_to_el2, "save")\n',
        "the VHE exit charges the trap primitive for its GP push "
        "(both cost 76 cycles)",
        ("tests",),
    ),
    Mutation(
        "xen-no-virt-enable",
        XEN,
        "            arch.load_context(in_vcpu.saved_context)\n"
        "            arch.enable_virt_features(in_vcpu.vm.vmid)\n",
        "            arch.load_context(in_vcpu.saved_context)\n",
        "Xen's ARM domain switch never installs the incoming VMID and Stage-2",
        ("tests",),
    ),
    Mutation(
        "kvm-reorder-disable",
        WS,
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n"
        "    arch.disable_virt_features()\n"
        '    yield pcpu.op("disable_virt_features", costs.virt_feature_toggle, "config")\n',
        "    arch.disable_virt_features()\n"
        '    yield pcpu.op("disable_virt_features", costs.virt_feature_toggle, "config")\n'
        "    vcpu.saved_context = arch.save_context(ARM_SWITCH_ORDER)\n",
        "split-mode exit disables Stage-2 before it snapshots the guest context",
        ("tests",),
    ),
    Mutation(
        "xen-narrow-restore",
        XEN,
        "            for reg_class in ALL_ARM_CLASSES:\n"
        "                yield pcpu.op(\n"
        '                    switch_label("restore", reg_class),\n',
        "            for reg_class in ALL_ARM_CLASSES[:4]:\n"
        "                yield pcpu.op(\n"
        '                    switch_label("restore", reg_class),\n',
        "Xen's domain switch restores only the first four register classes",
        ("tests", "sha"),
    ),
    Mutation(
        "xen-rx-zero-copy",
        "hv/xen/netback.py",
        '        yield from self._grant_copy(packet, "grant_copy_rx", GRANT_RX_BASE_GPA)\n'
        "        self.processed_rx += 1\n",
        "        self.processed_rx += 1\n",
        "netback receive skips the grant copy, as if Dom0 had zero copy",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "raw-gicd-address",
        "hv/base.py",
        "            vcpu.vm.stage2.walk(GICD_BASE_GPA, write=True)\n",
        "            vcpu.vm.stage2.walk(0x0800_0000, write=True)\n",
        "the distributor fault walks a raw hex address, not GICD_BASE_GPA",
        ("API001", "CAL001"),
    ),
    Mutation(
        "kvm-exit-state-stale",
        WS,
        '    yield pcpu.op("eret_to_host", costs.eret_to_el1, "trap")\n'
        "    if dispatch:\n"
        '        yield pcpu.op("kvm_exit_dispatch", costs.kvm_exit_dispatch, "host")\n'
        "    vcpu.state = VcpuState.HOST\n",
        '    yield pcpu.op("eret_to_host", costs.eret_to_el1, "trap")\n'
        "    if dispatch:\n"
        '        yield pcpu.op("kvm_exit_dispatch", costs.kvm_exit_dispatch, "host")\n',
        "split-mode exit leaves the VCPU marked GUEST",
        ("tests",),
    ),
    Mutation(
        "vhost-zero-wire",
        "hv/kvm/vhost.py",
        '            yield self.pcpu.op("vhost_wakeup", self.hypervisor.machine.costs.ipi_wire, "io")\n',
        '            yield self.pcpu.op("vhost_wakeup", 0, "io")\n',
        "the vhost worker's wakeup IPI is charged zero cycles",
        ("tests", "sha"),
    ),
    Mutation(
        "dead-primitive",
        "hw/costs.py",
        "    guest_irq_entry: int = 150\n",
        "    guest_irq_entry: int = 150\n"
        "    #: guest exception return from its IRQ handler\n"
        "    guest_irq_return: int = 120\n",
        "a new ARM primitive is calibrated but no path charges it",
        ("COV001",),
    ),
    Mutation(
        "xen-x86-return-uncharged",
        XEN,
        '            yield pcpu.op("vmentry_hw", costs.vmentry_hw, "hw-switch")\n'
        "            pcpu.arch.vmentry()\n"
        "\n"
        "    # --- the generic domain switch",
        "            pcpu.arch.vmentry()\n"
        "\n"
        "    # --- the generic domain switch",
        "Xen's x86 trap return no longer charges the VM entry",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "xen-dom0rx-arm-uncharged",
        XEN,
        '                pcpu.arch.trap_to_el2("nic-irq")\n'
        '                yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")\n'
        '            yield pcpu.op("gic_phys_ack", costs.gic_phys_ack, "irq")\n',
        '                pcpu.arch.trap_to_el2("nic-irq")\n'
        '                yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")\n',
        "Dom0's ARM receive path no longer charges the physical IRQ ack",
        ("tests", "sha"),
    ),
    Mutation(
        "xen-domswitch-early-return",
        XEN,
        "            outgoing = arch.save_context(ALL_ARM_CLASSES)\n",
        "            outgoing = arch.save_context(ALL_ARM_CLASSES)\n"
        "            if out is in_vcpu:\n"
        "                return\n",
        "Xen's ARM switch to the domain already running returns after the "
        "save sweep, without restore or eret (a branch no cell runs)",
        ("tests",),
    ),
    Mutation(
        "vhe-extra-save-class",
        WS,
        "VHE_DEFERRED_CLASSES = [c for c in ARM_SWITCH_ORDER if c is not RegClass.GP]\n",
        "VHE_DEFERRED_CLASSES = list(ARM_SWITCH_ORDER)\n",
        "the VHE lazy switch also moves the GP bank the trap already saved",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "kvm-notify-ipi-before-wakeup",
        KVM,
        '            yield pcpu.op("sched_wakeup", costs.sched_wakeup, "sched")\n'
        "            self.machine.ipi.send(\n"
        '                dst.pcpu, HOST_WAKE_IRQ, {"kind": "wake_enter", "vcpu": dst, "done": done}\n'
        "            )\n",
        "            self.machine.ipi.send(\n"
        '                dst.pcpu, HOST_WAKE_IRQ, {"kind": "wake_enter", "vcpu": dst, "done": done}\n'
        "            )\n"
        '            yield pcpu.op("sched_wakeup", costs.sched_wakeup, "sched")\n',
        "KVM sends the wake IPI before the host scheduler's wakeup work",
        ("tests", "paper", "sha"),
    ),
    Mutation(
        "wire-zero-latency",
        "hw/dev/wire.py",
        "        return self.clock.cycles_from_ns(serialize_ns + self.latency_ns)\n",
        "        return self.clock.cycles_from_ns(serialize_ns)\n",
        "the wire's transfer time drops the propagation latency",
        ("tests", "sha"),
    ),
    Mutation(
        "xen-evtchn-local-raise",
        XEN,
        "        self.machine.ipi.send(\n"
        "            dst_vcpu.pcpu,\n"
        "            EVTCHN_IPI_IRQ,\n"
        "            {\n"
        '                "kind": "evtchn_deliver",\n',
        "        dst_vcpu.pcpu.raise_physical_irq(\n"
        "            EVTCHN_IPI_IRQ,\n"
        "            {\n"
        '                "kind": "evtchn_deliver",\n',
        "Xen raises the event-channel IRQ on the target PCPU directly, "
        "skipping the IPI wire",
        ("tests", "sha"),
    ),
    Mutation(
        "kvm-maint-dropped-enter",
        KVM,
        "                yield from self._enter(vcpu)\n"
        "        elif self.machine.platform.vapic_enabled:\n",
        "                self._enter(vcpu)\n"
        "        elif self.machine.platform.vapic_enabled:\n",
        "KVM's maintenance refill never re-enters the guest (a bare call "
        "of _enter, a plain function that returns a generator)",
        ("tests",),
    ),
    Mutation(
        "xen-x86-eoi-dropped-op",
        XEN,
        '            yield pcpu.op("eoi_emulate", costs.eoi_emulate_xen, "emul")\n',
        '            pcpu.op("eoi_emulate", costs.eoi_emulate_xen, "emul")\n',
        "Xen's x86 EOI emulation step is built but never yielded",
        ("tests", "sha"),
    ),
    Mutation(
        "runahead-tie",
        "sim/engine.py",
        "        if queue and queue[0][0] <= time:\n",
        "        if queue and queue[0][0] < time:\n",
        "a Timeout that ties the queue head runs ahead of it, breaking "
        "same-time FIFO order",
        ("tests",),
    ),
    Mutation(
        "runahead-past-stop",
        "sim/engine.py",
        "        stop = self._stop\n"
        "        if stop is not None and stop.fired:\n"
        "            return False\n",
        "",
        "a process that fired run_until_fired's event runs ahead past it, "
        "so the call returns late",
        ("tests",),
    ),
)

BY_ID = {mutation.id: mutation for mutation in CATALOGUE}


def lint_only(mutation):
    """Did no runtime gate catch ``mutation``?"""
    return not set(mutation.caught_by) & set(RUNTIME_GATES)


LINT_ONLY = [mutation for mutation in CATALOGUE if lint_only(mutation)]


def sole_catcher_tier(mutation):
    """The lint tier that alone catches ``mutation``, or None."""
    if not lint_only(mutation):
        return None
    tiers = {TIER_OF[rule] for rule in mutation.caught_by}
    return tiers.pop() if len(tiers) == 1 else None


def make_tree(tmp_path):
    """A self-contained copy of the model layers."""
    tree = tmp_path / "tree"
    for name in MODEL_DIRS:
        shutil.copytree(
            SRC / name, tree / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    return tree


def apply(tree, mutation):
    target = tree / mutation.file
    text = target.read_text()
    assert text.count(mutation.anchor) == 1, mutation.id
    target.write_text(text.replace(mutation.anchor, mutation.replacement))
    return target


# --- the catalogue ----------------------------------------------------------


def test_catalogue_ids_are_unique():
    assert len(BY_ID) == len(CATALOGUE)


@pytest.mark.parametrize("mutation", CATALOGUE, ids=lambda m: m.id)
def test_anchor_applies_exactly_once(mutation):
    text = (SRC / mutation.file).read_text()
    assert text.count(mutation.anchor) == 1, (
        "%s: the anchor in %s no longer matches exactly once; update the "
        "record to the code's new shape" % (mutation.id, mutation.file)
    )
    assert mutation.replacement != mutation.anchor
    assert mutation.bug
    assert set(mutation.caught_by) <= set(GATES)


def test_each_lint_tier_is_the_only_catcher_of_some_row():
    """The verdict rule: a tier that alone catches no row goes."""
    tiers = {sole_catcher_tier(mutation) for mutation in CATALOGUE}
    assert set(TIER_OF.values()) == {"line"}
    assert "line" in tiers


@pytest.fixture(scope="module")
def lint_tree(tmp_path_factory):
    return make_tree(tmp_path_factory.mktemp("audit"))


@pytest.mark.parametrize("mutation", LINT_ONLY, ids=lambda m: m.id)
def test_lint_only_row_still_fires(lint_tree, mutation):
    """Rows that no runtime gate catches must still trip their rules."""
    target = lint_tree / mutation.file
    original = target.read_text()
    try:
        apply(lint_tree, mutation)
        findings = run_analysis(
            [lint_tree],
            config=LintConfig.load(REPO / "pyproject.toml"),
            select=list(mutation.caught_by),
        )
    finally:
        target.write_text(original)
    assert {v.rule for v in findings} == set(mutation.caught_by), "\n".join(
        v.format() for v in findings
    )

