"""Cheap testbed construction, and the cells that build fewer testbeds.

A cell's host time is mostly set-up, so construction takes shortcuts:
register banks and saved images copy per-class zero templates,
``identity_map`` fills a leaf table at a time, the virtio rx ring makes
its empty buffers when the backend pops them, ``make_context`` builds
no testbed, and the derived-cost probes share one testbed.  Each
shortcut is checked here against the long way round.
"""

import pytest

from repro.core import derived
from repro.core.appbench import AppBenchContext, make_context
from repro.core.microbench import MicrobenchmarkSuite
from repro.core.testbed import ALL_KEYS, build_testbed
from repro.errors import ProtocolError
from repro.hv.kvm.virtio import VirtioQueue
from repro.hw import costs as hw_costs
from repro.hw.cpu.registers import ALL_CLASSES, RegClass, RegisterFile
from repro.hw.mem.stage2 import Stage2Tables, identity_map
from repro.runner import cells, pool

#: two rescaled what-if documents (both arches) next to the default
DOCUMENTS = (
    None,
    {
        "arm": {"trap_to_el2": 152, "save.VGIC": 1625, "ipi_wire": 860},
        "x86": {"vmexit_hw": 1040, "sched_wakeup": 6500},
    },
    {
        "arm": {"sched_wakeup": 15600, "gic_dist_access": 310, "evtchn_send": 800},
        "x86": {"vmentry_hw": 305, "xen_ctx_extra": 15800, "apic_access_kvm": 2080},
    },
)


class TestIdentityMap:
    @pytest.mark.parametrize(
        "base_page, num_pages",
        [(0, 1), (0, 512), (510, 5), (511, 1025), (0x4_0000, 64), (0x3_FF00, 0x300)],
    )
    def test_matches_a_per_page_map(self, base_page, num_pages):
        bulk = identity_map(Stage2Tables(1), base_page, num_pages, writable=False)
        reference = Stage2Tables(1)
        for page in range(base_page, base_page + num_pages):
            reference.map_page(page, page, writable=False)
        assert bulk._root == reference._root
        assert bulk.mapped_page_count() == num_pages

    def test_extends_an_existing_leaf_table(self):
        tables = Stage2Tables(1)
        tables.map_page(3, 99)
        identity_map(tables, 4, 600)
        assert tables.walk(3 << 12)[0].page == 99
        assert tables.mapped_page_count() == 601


class TestRegisterImages:
    def test_vcpu_images_share_no_state(self):
        testbed = build_testbed("kvm-arm")
        vcpus = testbed.vm.vcpus + testbed.vm2.vcpus
        vcpus[0].saved_context[RegClass.GP]["x0"] = 7
        vcpus[0].saved_context[RegClass.VGIC]["gich_lr0"] = 9
        for vcpu in vcpus[1:]:
            assert vcpu.saved_context[RegClass.GP]["x0"] == 0
            assert vcpu.saved_context[RegClass.VGIC]["gich_lr0"] == 0
        assert build_testbed("kvm-arm").vm.vcpu(0).saved_context[RegClass.GP]["x0"] == 0

    def test_register_files_share_no_state(self):
        first, second = RegisterFile(), RegisterFile()
        for reg_class in ALL_CLASSES:
            name = first.banks[reg_class].names()[0]
            first.write(reg_class, name, 5)
            assert second.read(reg_class, name) == 0
        assert RegisterFile().snapshot() == second.snapshot()


class TestLazyVirtioFill:
    def test_popped_buffers_are_distinct(self):
        queue = VirtioQueue("q", size=4)
        queue.guest_fill()
        assert queue.avail_count == 4
        buffers = [queue.backend_pop() for _ in range(4)]
        assert all(buffer == {"empty": True} for buffer in buffers)
        assert len({id(buffer) for buffer in buffers}) == 4
        with pytest.raises(ProtocolError):
            queue.backend_pop()

    def test_post_queues_behind_the_filled_buffers(self):
        queue = VirtioQueue("q", size=3)
        queue.guest_post({"tag": "first"})
        queue.guest_fill()
        with pytest.raises(ProtocolError):
            queue.guest_post({"tag": "over"})
        assert queue.backend_pop() == {"tag": "first"}
        queue.guest_post({"tag": "last"})
        popped = [queue.backend_pop() for _ in range(3)]
        assert popped == [{"empty": True}, {"empty": True}, {"tag": "last"}]


def _model_outputs(context):
    netstack, kernel = context.netstack, context.kernel
    return (
        context.costs,
        context.clock.frequency_hz,
        netstack.ns,
        kernel.ns,
        [getattr(netstack, name)() for name in dir(netstack) if name.endswith("_cycles")],
        [getattr(kernel, name)() for name in dir(kernel) if name.endswith("_cycles")],
    )


@pytest.mark.parametrize("key", ALL_KEYS)
def test_make_context_matches_a_built_testbed(key):
    testbed = build_testbed(key)
    built = AppBenchContext(
        costs=testbed.machine.costs,
        clock=testbed.machine.clock,
        netstack=testbed.netstack,
        kernel=testbed.kernel,
    )
    assert _model_outputs(make_context(key)) == _model_outputs(built)


def _probes(key, order, fresh):
    """Run the three derived probes in ``order``, on one testbed or on a
    fresh testbed each."""
    shared = None if fresh else build_testbed(key)
    runners = {
        "micro": lambda testbed: MicrobenchmarkSuite(testbed).run_all(),
        "notify": derived._measure_notify_running,
        "block": derived._measure_block_io,
    }
    return {
        name: runners[name](shared if shared is not None else build_testbed(key))
        for name in order
    }


@pytest.mark.parametrize("document", DOCUMENTS, ids=("default", "rescaled1", "rescaled2"))
@pytest.mark.parametrize("key", ALL_KEYS)
def test_derived_probes_do_not_depend_on_sharing_or_order(key, document):
    with hw_costs.overriding(document):
        fresh = _probes(key, ("micro", "notify", "block"), fresh=True)
        shared = _probes(key, ("micro", "notify", "block"), fresh=False)
        reversed_ = _probes(key, ("block", "notify", "micro"), fresh=False)
        measured = derived.measure_derived_costs(key)
    assert shared == fresh
    assert reversed_ == fresh
    assert (measured.io_notify_running, measured.delivery_occupancy) == fresh["notify"]
    assert measured.block_io_overhead == fresh["block"]
    assert measured.hypercall == fresh["micro"]["Hypercall"]


def test_testbeds_built_per_default_cell_kind():
    """One engine per testbed: the ablation column builds one (the
    derived probes), an appcol three (the probes plus TCP_RR's native
    and virtualized runs), every other kind one."""
    expected = {
        "micro": 1,
        "breakdown": 1,
        "tcprr": 1,
        "appcol": 3,
        "ablation": 1,
        "oversub": 1,
    }
    engines = {}
    for spec in cells.bench_cells():
        engines.setdefault(spec.kind, set()).add(pool.execute_cell(spec).engines)
    assert engines == {kind: {count} for kind, count in expected.items()}
