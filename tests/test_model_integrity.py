"""Model integrity, checked by running the model.

The report is only as good as the paths that produce it: a composed
result must come from executing hypervisor paths that charge calibrated
primitives, with no ambient entropy on the way.  Each test here runs
those paths and watches what they touch:

* the full report leaves the global ``random`` state alone and never
  reads a wall clock from a model layer;
* the Interrupt Controller Trap faults on whatever address
  ``GICD_BASE_GPA`` names, not on a copy of its value;
* every calibrated primitive is read by some golden cell, so no
  calibration is dead.
"""

import dataclasses
import random
import sys
import time

import pytest

from repro.core import suite
from repro.core.microbench import MicrobenchmarkSuite
from repro.core.testbed import build_testbed
from repro.hv import base
from repro.hw import costs as hw_costs
from repro.hw.mem.stage2 import Stage2Tables
from repro.runner import cells
from repro.runner.readsets_golden import READ_SETS

#: the packages that simulate; none of them may read a wall clock
MODEL_PACKAGES = ("sim", "hw", "hv", "os", "workloads", "core")

WALL_CLOCKS = (
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
)

#: calibrated primitives that no golden cell reads, each with the reason
UNREAD_BY_GOLDEN = {
    ("x86", "virq_complete_vapic"): (
        "read only with the vAPIC enabled, which no golden cell configures"
    ),
}


def _in_model(module_name):
    return any(
        module_name == "repro." + package
        or module_name.startswith("repro.%s." % package)
        for package in MODEL_PACKAGES
    )


def _model_may_not_call(name, clock):
    def guarded(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if _in_model(caller):
            raise AssertionError("%s read the wall clock (time.%s)" % (caller, name))
        return clock(*args, **kwargs)

    return guarded


class TestDeterminism:
    def test_full_report_leaves_the_global_random_state_alone(self):
        before = random.getstate()
        suite.full_report()
        assert random.getstate() == before, (
            "the model drew from the global random module; the model is "
            "deterministic and draws no random numbers"
        )

    def test_model_layers_never_read_a_wall_clock(self, monkeypatch):
        for name in WALL_CLOCKS:
            monkeypatch.setattr(time, name, _model_may_not_call(name, getattr(time, name)))
        suite.full_report()


class TestNamedAddresses:
    def test_intc_trap_faults_on_the_named_distributor_address(self, monkeypatch):
        relocated = base.GICD_BASE_GPA + 0x0100_0000
        monkeypatch.setattr(base, "GICD_BASE_GPA", relocated)
        walked = []
        walk = Stage2Tables.walk

        def spy(self, gpa, write=False):
            walked.append(int(gpa))
            return walk(self, gpa, write)

        monkeypatch.setattr(Stage2Tables, "walk", spy)
        MicrobenchmarkSuite(build_testbed("kvm-arm")).interrupt_controller_trap()
        assert walked, "the trap took no Stage-2 walk"
        assert set(walked) == {relocated}, [hex(gpa) for gpa in sorted(set(walked))]


def _primitives(prototype):
    """Every field of a cost table, each ``save``/``restore`` register
    class on its own, named as the read sets name them."""
    names = set()
    for field in dataclasses.fields(prototype):
        value = getattr(prototype, field.name)
        if isinstance(value, dict):
            names.update("%s.%s" % (field.name, reg_class.name) for reg_class in value)
        else:
            names.add(field.name)
    return names


def _golden_reads(arch):
    reads = set()
    for spec in cells.bench_cells():
        if cells.cell_arch(spec) == arch:
            reads.update(READ_SETS[spec.id])
    return reads


class TestCalibrationCoverage:
    @pytest.mark.parametrize(
        "arch, prototype",
        [("arm", hw_costs.ArmCosts()), ("x86", hw_costs.X86Costs())],
        ids=["arm", "x86"],
    )
    def test_every_primitive_is_read_by_a_golden_cell(self, arch, prototype):
        exempt = {field for (table, field) in UNREAD_BY_GOLDEN if table == arch}
        primitives = _primitives(prototype)
        assert exempt <= primitives, "an exemption names no field"
        reads = _golden_reads(arch)
        assert not exempt & reads, "an exempt field is now read; drop its exemption"
        assert primitives - exempt <= reads, (
            "calibrated but read by no golden cell: %s"
            % sorted(primitives - exempt - reads)
        )
