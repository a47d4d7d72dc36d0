"""Testbed construction: the paper's Section III experimental setup.

Each benchmarked configuration is a 4-VCPU / 12 GB VM on an 8-core server,
every VCPU pinned to its own PCPU, host/Dom0 work kept on a disjoint set
of PCPUs:

* KVM: host owns PCPUs 0-3 (device IRQs + vhost there), VM on PCPUs 4-7.
* Xen: Dom0 (4 VCPUs, 4 GB) on PCPUs 0-3, DomU on PCPUs 4-7.

A second VM pinned to the *same* PCPUs as the first supports the VM
Switch microbenchmark (oversubscription scenario).
"""

import dataclasses

from repro.errors import ConfigurationError
from repro.hv import build_hypervisor
from repro.hv.blockio import BlockIoPath
from repro.hw.dev.block import raid5_hd, sata_ssd
from repro.hw.dev.nic import Nic
from repro.hw.dev.wire import Wire
from repro.hw.platform import Machine, arm_m400, x86_r320
from repro.os.drivers.virtio_net import VirtioNetFrontend
from repro.os.drivers.xen_netfront import XenNetfront
from repro.os.kernel import KernelModel
from repro.os.netstack import NetstackModel

#: The paper's four platform columns, plus the ARMv8.1 VHE projection.
PLATFORM_KEYS = ["kvm-arm", "xen-arm", "kvm-x86", "xen-x86"]
ALL_KEYS = PLATFORM_KEYS + ["kvm-vhe-arm"]

VM_PCPUS = [4, 5, 6, 7]
HOST_PCPUS = [0, 1, 2, 3]
#: paper Section III: each VM is configured with 12 GB of RAM
VM_MEMORY_MB = 12288
#: physical IRQ line the server NIC raises (SPI number on the GIC)
SERVER_NIC_IRQ = 64


@dataclasses.dataclass
class Testbed:
    """One booted, configured server + hypervisor + VM(s) + network."""

    key: str
    machine: object
    hypervisor: object
    vm: object
    vm2: object
    netstack: object
    kernel: object
    frontend: object
    server_nic: object
    client_nic: object
    wire: object
    block_device: object = None
    block_path: object = None

    @property
    def clock(self):
        return self.machine.clock

    @property
    def engine(self):
        return self.machine.engine


def parse_key(key):
    """'kvm-arm' -> (hv_kind, arch, vhe)."""
    if key == "kvm-vhe-arm":
        return "kvm", "arm", True
    parts = key.rsplit("-", 1)
    if len(parts) != 2 or parts[0] not in ("kvm", "xen") or parts[1] not in ("arm", "x86"):
        raise ConfigurationError("unknown platform key %r" % (key,))
    return parts[0], parts[1], False


def build_platform(key, vapic=False, costs=None):
    """The static platform description of one platform key."""
    _hv_kind, arch, vhe = parse_key(key)
    if arch == "arm":
        return arm_m400(vhe_capable=vhe, costs=costs)
    return x86_r320(vapic_enabled=vapic, costs=costs)


def build_testbed(key, seed=2016, vapic=False, costs=None):
    """Build the full testbed for one platform column of Table II."""
    hv_kind, arch, vhe = parse_key(key)
    machine = Machine(build_platform(key, vapic, costs), seed=seed)
    hypervisor = build_hypervisor(hv_kind, machine, vhe=vhe)

    if hv_kind == "xen":
        hypervisor.boot_dom0(num_vcpus=4, pcpu_indices=HOST_PCPUS)
    vm = hypervisor.create_vm("vm0", 4, VM_PCPUS, memory_mb=VM_MEMORY_MB)
    vm2 = hypervisor.create_vm("vm1", 4, VM_PCPUS, memory_mb=VM_MEMORY_MB)

    netstack = NetstackModel(machine.clock)
    kernel = KernelModel(machine.clock)
    frontend = (
        XenNetfront(machine.clock) if hv_kind == "xen" else VirtioNetFrontend(machine.clock)
    )

    server_nic = Nic(machine.engine, "server", irq=SERVER_NIC_IRQ)
    client_nic = Nic(machine.engine, "client")
    wire = Wire(machine.engine, machine.clock)
    server_nic.attach(wire)
    client_nic.attach(wire)
    hypervisor.attach_network(server_nic, netstack)

    # The paper's storage: SATA SSD on the m400, RAID5 HDs on the r320.
    block_device = (
        sata_ssd(machine.engine, machine.clock)
        if arch == "arm"
        else raid5_hd(machine.engine, machine.clock)
    )
    block_path = BlockIoPath(hypervisor, block_device)

    return Testbed(
        key=key,
        machine=machine,
        hypervisor=hypervisor,
        vm=vm,
        vm2=vm2,
        netstack=netstack,
        kernel=kernel,
        frontend=frontend,
        server_nic=server_nic,
        client_nic=client_nic,
        wire=wire,
        block_device=block_device,
        block_path=block_path,
    )


def native_testbed(arch, seed=2016):
    """A machine with no hypervisor — the native baseline runs here."""
    platform = arm_m400() if arch == "arm" else x86_r320()
    machine = Machine(platform, seed=seed)
    netstack = NetstackModel(machine.clock)
    kernel = KernelModel(machine.clock)
    server_nic = Nic(machine.engine, "server", irq=SERVER_NIC_IRQ)
    client_nic = Nic(machine.engine, "client")
    wire = Wire(machine.engine, machine.clock)
    server_nic.attach(wire)
    client_nic.attach(wire)
    return Testbed(
        key="native-%s" % arch,
        machine=machine,
        hypervisor=None,
        vm=None,
        vm2=None,
        netstack=netstack,
        kernel=kernel,
        frontend=None,
        server_nic=server_nic,
        client_nic=client_nic,
        wire=wire,
        block_device=(
            sata_ssd(machine.engine, machine.clock)
            if arch == "arm"
            else raid5_hd(machine.engine, machine.clock)
        ),
    )
