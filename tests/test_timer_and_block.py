"""Tests for the paravirtual block I/O paths."""

import pytest

from repro.core.testbed import build_testbed
from repro.errors import ConfigurationError
from repro.hv.blockio import BlockIoPath, native_block_cycles


class TestBlockIo:
    def _round_trip(self, key, nbytes=4096):
        testbed = build_testbed(key)
        hv = testbed.hypervisor
        vcpu = testbed.vm.vcpu(0)
        hv.install_guest(vcpu)
        if hv.design == "type1":
            hv.park_vcpu(hv.dom0.vcpu(0))
        start = testbed.engine.now
        done = testbed.block_path.submit(vcpu, nbytes)
        finished = testbed.engine.run_until_fired(done)
        testbed.engine.run()
        return testbed, finished - start

    def test_requires_device(self):
        testbed = build_testbed("kvm-arm")
        with pytest.raises(ConfigurationError):
            BlockIoPath(testbed.hypervisor, None)

    def test_kvm_round_trip_exceeds_native(self):
        testbed, cycles = self._round_trip("kvm-arm")
        native = native_block_cycles(testbed.block_device, 4096, testbed.kernel)
        assert cycles > native

    def test_xen_pays_grant_map_unmap(self):
        testbed = build_testbed("xen-arm")
        hv = testbed.hypervisor
        vcpu = testbed.vm.vcpu(0)
        hv.install_guest(vcpu)
        hv.park_vcpu(hv.dom0.vcpu(0))
        grants = hv.grant_tables[testbed.vm.name]
        done = testbed.block_path.submit(vcpu, 8192)
        testbed.engine.run_until_fired(done)
        testbed.engine.run()
        assert grants.maps == 2  # two 4K pages mapped for DMA
        assert grants.unmaps == 2
        assert grants.active_mappings() == 0

    def test_xen_slower_than_kvm_per_request(self):
        _tb, kvm_cycles = self._round_trip("kvm-arm")
        _tb, xen_cycles = self._round_trip("xen-arm")
        assert xen_cycles > kvm_cycles

    def test_larger_requests_take_longer(self):
        _tb, small = self._round_trip("kvm-arm", 4096)
        _tb, large = self._round_trip("kvm-arm", 1 << 20)
        assert large > small

    def test_completion_counter(self):
        testbed, _cycles = self._round_trip("kvm-arm")
        assert testbed.block_path.completed == 1

    def test_ssd_beats_raid_hd_for_guests_too(self):
        _tb, arm = self._round_trip("kvm-arm")
        tb_x86, x86 = self._round_trip("kvm-x86")
        # The r320's RAID5 HD access latency dominates (4.2 ms vs 80 us),
        # dwarfing any hypervisor difference.
        assert x86 > arm
