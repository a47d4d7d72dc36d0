"""Tests for the microbenchmark harness and the oversubscription model."""

import pytest

from repro.core.microbench import MicrobenchmarkSuite
from repro.core.oversubscription import OversubscriptionExperiment, sweep
from repro.core.testbed import build_testbed
from repro.errors import ConfigurationError, SimulationError


class TestMicrobenchHarness:
    def test_collapse_rejects_jitter(self):
        suite = MicrobenchmarkSuite(build_testbed("kvm-arm"))
        with pytest.raises(SimulationError):
            suite._collapse([100, 101])

    def test_iterations_parameter_respected(self):
        suite = MicrobenchmarkSuite(build_testbed("kvm-arm"), iterations=5)
        result = suite.hypercall()
        assert result.iterations == 5

    def test_results_independent_of_benchmark_order(self):
        forward = MicrobenchmarkSuite(build_testbed("kvm-arm"))
        ordered = [forward.hypercall().cycles, forward.vm_switch().cycles]

        reverse = MicrobenchmarkSuite(build_testbed("kvm-arm"))
        reversed_ = [reverse.vm_switch().cycles, reverse.hypercall().cycles]
        assert ordered[0] == reversed_[1]
        assert ordered[1] == reversed_[0]

    def test_io_latency_in_repeats_identically(self):
        suite = MicrobenchmarkSuite(build_testbed("xen-arm"), iterations=4)
        result = suite.io_latency_in()
        assert result.cycles > 0  # determinism asserted inside _collapse


class TestOversubscription:
    def test_invalid_timeslice_rejected(self):
        with pytest.raises(ConfigurationError):
            OversubscriptionExperiment("kvm-arm", timeslice_us=0)

    def test_efficiency_between_zero_and_one(self):
        point = OversubscriptionExperiment("kvm-arm", 200.0, interval_ms=1.0).run()
        assert 0.5 < point.efficiency < 1.0
        assert point.switches > 0

    def test_sweep_structure(self):
        results = sweep(["kvm-arm"], timeslices_us=(100.0, 400.0))
        assert len(results["kvm-arm"]) == 2

    def test_cheaper_switches_mean_higher_efficiency(self):
        """The Table II relation carried through: Xen x86's 2x-costlier
        switch yields measurably lower efficiency than KVM x86's."""
        kvm = OversubscriptionExperiment("kvm-x86", 100.0, interval_ms=1.0).run()
        xen = OversubscriptionExperiment("xen-x86", 100.0, interval_ms=1.0).run()
        assert kvm.efficiency > xen.efficiency
