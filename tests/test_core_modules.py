"""Integration tests for testbed construction, derived costs, ablation,
VHE comparison, and reporting."""

import pytest

from repro.core.derived import measure_derived_costs
from repro.core.irqbalance import run_irq_distribution_ablation
from repro.core.testbed import build_testbed, native_testbed, parse_key
from repro.core.vhe_projection import run_vhe_comparison
from repro.core import reporting
from repro.errors import ConfigurationError


class TestTestbed:
    def test_parse_keys(self):
        assert parse_key("kvm-arm") == ("kvm", "arm", False)
        assert parse_key("xen-x86") == ("xen", "x86", False)
        assert parse_key("kvm-vhe-arm") == ("kvm", "arm", True)

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            parse_key("hyperv-arm")
        with pytest.raises(ConfigurationError):
            parse_key("kvm-mips")

    def test_paper_pinning_configuration(self):
        """Section III: VM VCPUs on their own PCPUs, host work disjoint."""
        testbed = build_testbed("xen-arm")
        domu_pcpus = {vcpu.pcpu.index for vcpu in testbed.vm.vcpus}
        dom0_pcpus = {vcpu.pcpu.index for vcpu in testbed.hypervisor.dom0.vcpus}
        assert domu_pcpus == {4, 5, 6, 7}
        assert dom0_pcpus == {0, 1, 2, 3}

    def test_vm_memory_configuration(self):
        testbed = build_testbed("kvm-arm")
        assert testbed.vm.memory_mb == 12288  # 12 GB per the paper
        assert len(testbed.vm.vcpus) == 4

    def test_native_testbed_has_no_hypervisor(self):
        testbed = native_testbed("arm")
        assert testbed.hypervisor is None
        assert testbed.server_nic.wire is testbed.wire

    def test_network_is_10gbe(self):
        testbed = build_testbed("kvm-arm")
        assert testbed.wire.bandwidth_bps == 10e9

    def test_distinct_testbeds_are_isolated(self):
        a = build_testbed("kvm-arm")
        b = build_testbed("kvm-arm")
        assert a.engine is not b.engine
        assert a.machine.costs is not b.machine.costs


class TestDerivedCosts:
    @pytest.fixture(scope="class")
    def kvm(self):
        return measure_derived_costs("kvm-arm")

    @pytest.fixture(scope="class")
    def xen(self):
        return measure_derived_costs("xen-arm")

    def test_notify_running_cheaper_than_blocked(self, kvm):
        """No scheduler wakeup when the VCPU is on core."""
        assert kvm.io_notify_running < kvm.io_notify_blocked

    def test_occupancy_less_than_total(self, kvm):
        assert 0 < kvm.delivery_occupancy <= kvm.io_notify_running

    @pytest.mark.parametrize(
        "key, occupancy",
        [
            ("kvm-arm", 6939),
            ("xen-arm", 2425),
            ("kvm-x86", 3856),
            ("xen-x86", 3764),
            ("kvm-vhe-arm", 1025),
        ],
    )
    def test_delivery_occupancy_pinned(self, key, occupancy):
        """Leaf-span cycles on the target VCPU's pcpu per delivery to a
        running VM; the application models consume this number."""
        assert measure_derived_costs(key).delivery_occupancy == occupancy

    def test_grant_costs_zero_for_kvm(self, kvm, xen):
        assert kvm.grant_copy_mtu == 0
        assert xen.grant_copy_mtu > 0
        assert xen.grant_copy_mtu_batched < xen.grant_copy_mtu

    def test_us_conversion(self, kvm):
        assert kvm.us(2400) == pytest.approx(1.0)  # 2.4 GHz

    def test_grant_copy_exceeds_3us_paper_anchor(self, xen):
        assert xen.us(xen.grant_copy_mtu) > 2.9


class TestAblation:
    def test_results_cover_requested_grid(self):
        results = run_irq_distribution_ablation(keys=("kvm-arm",))
        assert set(results) == {("kvm-arm", "Apache"), ("kvm-arm", "Memcached")}
        for point in results.values():
            assert point.improvement_pct > 0


class TestVheComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.workloads import Apache, Memcached

        return run_vhe_comparison(app_workloads=[Apache(), Memcached()])

    def test_every_microbenchmark_compared(self, comparison):
        assert len(comparison.microbench) == 7
        for _split, _vhe, speedup in comparison.microbench.values():
            assert speedup >= 0.95  # VHE never loses

    def test_io_apps_improve(self, comparison):
        assert comparison.app_improvement("Apache") > 8.0
        assert comparison.app_improvement("Memcached") > 8.0


class TestReporting:
    def test_render_table_alignment(self):
        table = reporting.render_table(["a", "bbb"], [["x", "1"], ["yy", "22"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # rectangular

    def test_architecture_figures_available(self):
        for name in ("figure1", "figure2", "figure3", "figure5"):
            text = reporting.describe_architecture(name)
            assert "EL" in text or "Hypervisor" in text

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            reporting.describe_architecture("figure9")

    def test_render_figure4_handles_missing_paper_value(self):
        from repro.core.appbench import run_figure4
        from repro.workloads import Apache

        grid = run_figure4(["xen-x86"], workloads=[Apache()])
        text = reporting.render_figure4(grid, ["xen-x86"])
        assert "n/a" in text  # Apache on Xen x86 crashed in the paper

    @pytest.mark.parametrize("keys", [["kvm-arm"], ["kvm-vhe-arm"]])
    def test_render_table2_renders_the_keys_it_was_given(self, keys):
        from repro.paperdata import TABLE2
        from repro.service import queries

        text = queries.render(*queries.run_local("table2", {"keys": keys}))
        header, _rule, *rows = text.splitlines()[1:]
        assert [cell.strip() for cell in header.split("|")] == [
            "Microbenchmark", "%s sim" % keys[0], "paper", "err%"
        ]
        assert len(rows) == len(TABLE2)
        for row in rows:
            name, _sim, paper, err = [cell.strip() for cell in row.split("|")]
            if keys[0] in TABLE2[name]:
                assert paper == "%d" % TABLE2[name][keys[0]]
            else:
                assert (paper, err) == ("n/a", "-")
