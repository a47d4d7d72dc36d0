"""Unit tests for the OS layer: netstack, kernel, drivers."""

import pytest

from repro.errors import ConfigurationError
from repro.os import KernelModel, NetstackModel
from repro.os.drivers import VirtioNetFrontend, XenNetfront
from repro.sim import Clock

ARM_CLOCK = Clock(2.4e9)
X86_CLOCK = Clock(2.1e9)


class TestNetstack:
    def test_native_recv_to_send_matches_table5_anchor(self):
        """14.5 us on the 2.4 GHz ARM platform (paper Table V native)."""
        model = NetstackModel(ARM_CLOCK)
        us = ARM_CLOCK.us_from_cycles(model.native_recv_to_send_cycles())
        assert us == pytest.approx(14.5, rel=0.01)

    def test_costs_are_time_constant_across_platforms(self):
        """Same nanosecond work -> different cycle counts per frequency."""
        arm = NetstackModel(ARM_CLOCK)
        x86 = NetstackModel(X86_CLOCK)
        assert arm.host_rx_cycles() > x86.host_rx_cycles()
        assert ARM_CLOCK.us_from_cycles(arm.host_rx_cycles()) == pytest.approx(
            X86_CLOCK.us_from_cycles(x86.host_rx_cycles()), rel=0.01
        )

    def test_requires_clock(self):
        with pytest.raises(ConfigurationError):
            NetstackModel(None)

    def test_guest_stack_same_as_host_stack(self):
        """Same kernel runs in the guest; same per-packet work."""
        model = NetstackModel(ARM_CLOCK)
        assert model.guest_rx_cycles() == model.host_rx_cycles()
        assert model.guest_tx_cycles() == model.host_tx_cycles()


class TestKernel:
    def test_costs_positive_and_ordered(self):
        kernel = KernelModel(ARM_CLOCK)
        assert 0 < kernel.syscall_cycles() < kernel.local_wakeup_cycles()

    def test_resched_ipi_under_microseconds(self):
        kernel = KernelModel(ARM_CLOCK)
        assert ARM_CLOCK.us_from_cycles(kernel.resched_ipi_cycles()) < 1.0


class TestDrivers:
    def test_netfront_heavier_than_virtio(self):
        """Grant bookkeeping makes the Xen frontend cost more per packet
        (Table V: +2.9 us VM-internal vs +2.4 us)."""
        virtio = VirtioNetFrontend(ARM_CLOCK)
        netfront = XenNetfront(ARM_CLOCK)
        assert netfront.tx_cycles() > virtio.tx_cycles()
        assert netfront.rx_cycles() > virtio.rx_cycles()

    def test_counters_track_usage(self):
        driver = VirtioNetFrontend(ARM_CLOCK)
        driver.tx_cycles()
        driver.tx_cycles()
        driver.rx_cycles()
        assert (driver.tx_count, driver.rx_count) == (2, 1)

    def test_vm_internal_delta_matches_table5(self):
        """Driver extras ~= the VM-internal time above native: virtio
        2.4 us, netfront 2.9 us per transaction (one rx + one tx)."""
        virtio = VirtioNetFrontend(ARM_CLOCK)
        netfront = XenNetfront(ARM_CLOCK)
        virtio_us = ARM_CLOCK.us_from_cycles(virtio.rx_cycles() + virtio.tx_cycles())
        netfront_us = ARM_CLOCK.us_from_cycles(netfront.rx_cycles() + netfront.tx_cycles())
        assert virtio_us == pytest.approx(2.4, rel=0.01)
        assert netfront_us == pytest.approx(2.9, rel=0.01)
