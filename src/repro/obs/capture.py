"""Trace capture: run an instrumented operation with observability on.

This is the machinery behind ``python -m repro trace``: build a fresh
testbed, enable ``machine.obs``, execute one Table I operation (or the
Table III breakdown run), and hand back the populated recorder plus —
for ``table3`` — the breakdown object read from those same spans.

Imports run downward only (obs.capture -> core -> hv/hw -> obs), and
this module is *not* pulled in by ``repro.obs`` itself, so the base
observability layer stays import-light.
"""

import dataclasses

from repro.core.breakdown import hypercall_breakdown
from repro.core.microbench import MicrobenchmarkSuite
from repro.core.testbed import build_testbed
from repro.errors import ConfigurationError

#: CLI trace target -> MicrobenchmarkSuite method name.
MICROBENCH_TARGETS = {
    "hypercall": "hypercall",
    "intc-trap": "interrupt_controller_trap",
    "virtual-ipi": "virtual_ipi",
    "virq-complete": "virtual_irq_completion",
    "vm-switch": "vm_switch",
    "io-out": "io_latency_out",
    "io-in": "io_latency_in",
}

#: Everything ``python -m repro trace`` accepts.
ALL_TARGETS = ["table3"] + sorted(MICROBENCH_TARGETS)


@dataclasses.dataclass
class Capture:
    """One traced run: the machine's populated observability bundle."""

    key: str
    target: str
    cycles: int
    obs: object
    machine: object
    breakdown: object = None


def capture_table3(trace_resume=False):
    """Run the Table III breakdown (KVM ARM hypercall) with spans on."""
    testbed = build_testbed("kvm-arm")
    machine = testbed.machine
    machine.obs.enable(trace_resume=trace_resume)
    breakdown = hypercall_breakdown(testbed)
    machine.obs.disable()
    return Capture(
        key="kvm-arm",
        target="table3",
        cycles=breakdown.total_cycles,
        obs=machine.obs,
        machine=machine,
        breakdown=breakdown,
    )


def capture_microbench(target, key="kvm-arm", trace_resume=False):
    """Run one Table I microbenchmark traced on platform ``key``."""
    if target not in MICROBENCH_TARGETS:
        raise ConfigurationError(
            "unknown trace target %r (choose from %s)" % (target, ", ".join(ALL_TARGETS))
        )
    testbed = build_testbed(key)
    machine = testbed.machine
    machine.obs.enable(trace_resume=trace_resume)
    suite = MicrobenchmarkSuite(testbed, iterations=1)
    result = getattr(suite, MICROBENCH_TARGETS[target])()
    machine.obs.disable()
    return Capture(
        key=key,
        target=target,
        cycles=result.cycles,
        obs=machine.obs,
        machine=machine,
    )


def capture(target, key="kvm-arm", trace_resume=False):
    """Dispatch on ``target`` (``table3`` or a microbenchmark name)."""
    if target == "table3":
        return capture_table3(trace_resume=trace_resume)
    return capture_microbench(target, key=key, trace_resume=trace_resume)
