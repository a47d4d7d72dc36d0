"""Platform descriptions and the assembled Machine.

Two platforms mirror the paper's testbeds:

* ``arm_m400``  — HP Moonshot m400: 8-core ARMv8 (APM X-Gene) @ 2.4 GHz
* ``x86_r320``  — Dell PowerEdge r320: 8-core Xeon E5-2450 @ 2.1 GHz

A :class:`Machine` is one booted server: engine + clock + PCPUs +
interrupt hardware + IPI fabric, onto which a hypervisor model installs
itself.
"""

import dataclasses

from repro.errors import ConfigurationError, HardwareFault
from repro.hw.costs import arm_costs, x86_costs
from repro.hw.cpu.arm import ArmCpu
from repro.hw.cpu.x86 import X86Cpu
from repro.hw.irq.apic import Apic
from repro.hw.irq.gic import Gic
from repro.hw.irq.ipi import IpiFabric
from repro.obs import Observability
from repro.sim import Clock, Engine, Timeout

ARM = "arm"
X86 = "x86"


@dataclasses.dataclass
class Platform:
    """Static description of a server platform."""

    name: str
    arch: str
    frequency_hz: float
    num_cores: int
    costs: object
    vhe_capable: bool = False
    vapic_enabled: bool = False

    def __post_init__(self):
        if self.arch not in (ARM, X86):
            raise ConfigurationError("unknown arch %r" % (self.arch,))
        if self.num_cores < 1:
            raise ConfigurationError("need at least one core")


def arm_m400(vhe_capable=False, costs=None):
    """The paper's ARM testbed (optionally ARMv8.1 VHE-capable silicon)."""
    return Platform(
        name="arm_m400",
        arch=ARM,
        frequency_hz=2.4e9,
        num_cores=8,
        costs=costs if costs is not None else arm_costs(),
        vhe_capable=vhe_capable,
    )


def x86_r320(vapic_enabled=False, costs=None):
    """The paper's x86 testbed (optionally with APICv, see Section IV)."""
    return Platform(
        name="x86_r320",
        arch=X86,
        frequency_hz=2.1e9,
        num_cores=8,
        costs=costs if costs is not None else x86_costs(),
        vapic_enabled=vapic_enabled,
    )


class Pcpu:
    """One physical CPU at runtime: arch state + costed execution helper."""

    def __init__(self, machine, index, arch_cpu):
        self.machine = machine
        self.index = index
        self.arch = arch_cpu
        #: installed by the hypervisor: f(pcpu, irq, payload) -> generator
        self.irq_handler = None
        #: what is currently scheduled here (a VCPU, a host thread, ...)
        self.current_context = None

    def op(self, label, cycles, category=""):
        """A costed step: returns its Timeout.

        Hypervisor paths use ``yield pcpu.op("save_vgic", 3250, "save")``.
        When span recording is on the step is also recorded as a leaf
        span at the current engine time (see :mod:`repro.obs`).
        """
        spans = self.machine.obs.spans
        if spans.enabled:
            spans.step(label, cycles, category, pcpu=self.index)
        return Timeout(cycles)

    def raise_physical_irq(self, irq, payload=None):
        """Hardware raises ``irq`` here; the installed handler runs."""
        if self.irq_handler is None:
            raise HardwareFault(
                "physical irq %r on pcpu %d with no handler installed" % (irq, self.index)
            )
        self.machine.engine.spawn(
            self.irq_handler(self, irq, payload), name="irq%d@pcpu%d" % (irq, self.index)
        )

    def __repr__(self):
        return "Pcpu(#%d of %s)" % (self.index, self.machine.platform.name)


class Machine:
    """A booted server: the simulation context everything else plugs into."""

    def __init__(self, platform):
        self.platform = platform
        self.engine = Engine()
        self.clock = Clock(platform.frequency_hz)
        #: structured observability (spans + metrics), disabled by default
        self.obs = Observability(self.engine)
        self.costs = platform.costs
        if platform.arch == ARM:
            cpus = [
                ArmCpu(i, vhe_capable=platform.vhe_capable)
                for i in range(platform.num_cores)
            ]
            self.gic = Gic()
            self.apic = None
        else:
            cpus = [
                X86Cpu(i, vapic_capable=platform.vapic_enabled)
                for i in range(platform.num_cores)
            ]
            self.gic = None
            self.apic = Apic(platform.num_cores)
        self.pcpus = [Pcpu(self, i, cpu) for i, cpu in enumerate(cpus)]
        self.ipi = IpiFabric(
            self.engine, wire_cycles=platform.costs.ipi_wire, metrics=self.obs.metrics
        )

    @property
    def is_arm(self):
        return self.platform.arch == ARM

    def pcpu(self, index):
        if not 0 <= index < len(self.pcpus):
            raise ConfigurationError("no pcpu %d on %s" % (index, self.platform.name))
        return self.pcpus[index]

    def run(self, until=None):
        self.engine.run(until)

    def __repr__(self):
        return "Machine(%s, %d cores)" % (self.platform.name, len(self.pcpus))
