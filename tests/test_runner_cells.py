"""Read-set-scoped what-if cells.

A cell simulates exactly one architecture, and a golden cell (the bench
grid) reads only the cost fields of its committed read set, so
``with_cost_overrides`` embeds only the overrides inside it, and a
document that touches none of them leaves the cell at its default
identity.  The soundness tests are the oracle for that cut: they run
every golden cell the old way — the whole document installed, nothing
stripped — under a document that rescales every primitive the cell is
said not to read, and demand the default payload back.  The guard tests
show that a cell reading outside its read set fails instead of
returning bytes some stripped query would share.
"""

import dataclasses
import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.hw import costs as hw_costs
from repro.runner import cache, cells, merge, pool, readsets
from repro.runner.readsets_golden import READ_SETS
from repro.runner.resilience import CellFailure
from repro.service import queries

ALL_CELLS = cells.dedupe(cells.bench_cells() + cells.vhe_cells())

OTHER_ARCH = {"arm": "x86", "x86": "arm"}


def _rescaled_document(arch, keep=frozenset()):
    """Every scalar and ``save.*``/``restore.*`` primitive of ``arch``
    except those in ``keep``, each moved off its default (``2v + 1``
    also moves a zero)."""
    prototype = hw_costs.ArmCosts() if arch == "arm" else hw_costs.X86Costs()
    section = {}
    for field in dataclasses.fields(prototype):
        value = getattr(prototype, field.name)
        if isinstance(value, dict):
            for reg_class, cost in value.items():
                section["%s.%s" % (field.name, reg_class.name)] = 2 * cost + 1
        elif isinstance(value, int) and not isinstance(value, bool):
            section[field.name] = 2 * value + 1
    return {arch: {f: v for f, v in section.items() if f not in keep}}


def _run_unstripped(spec, document=None):
    """The cell's executor with the whole document installed, unscoped."""
    executor = cells.CELL_KINDS[spec.kind]
    if document is None:
        return executor(spec.params_dict())
    with hw_costs.overriding(document):
        return executor(spec.params_dict())


class TestDeclaredArchitecture:
    def test_every_kind_declares_one(self):
        assert {spec.kind for spec in ALL_CELLS} == set(cells.CELL_KINDS)
        for spec in ALL_CELLS:
            assert cells.cell_arch(spec) in ("arm", "x86"), spec.id

    @pytest.mark.parametrize(
        "spec,arch",
        [
            (cells.micro("kvm-x86"), "x86"),
            (cells.micro("kvm-vhe-arm"), "arm"),
            (cells.appcol("xen-x86"), "x86"),
            (cells.ablation("xen-arm", ["Apache"]), "arm"),
            (cells.oversub("kvm-x86", 100.0), "x86"),
            (cells.breakdown(), "arm"),
            (cells.tcprr("native"), "arm"),
            (cells.CellSpec("keyless"), None),
        ],
    )
    def test_arch_per_kind(self, spec, arch):
        assert cells.cell_arch(spec) == arch


class TestDroppingTheOtherSectionIsExact:
    @pytest.mark.parametrize("spec", ALL_CELLS, ids=lambda spec: spec.id)
    def test_other_arch_document_leaves_the_payload_alone(self, spec):
        document = _rescaled_document(OTHER_ARCH[cells.cell_arch(spec)])
        assert hw_costs.validate_overrides(document) == document
        assert _run_unstripped(spec, document) == _run_unstripped(spec)
        assert cells.with_cost_overrides(spec, document) is spec

    def test_own_arch_section_still_bites(self):
        spec = cells.micro("kvm-x86")
        document = {"arm": {"trap_to_el2": 1}, "x86": {"vmexit_hw": 1040}}
        what_if = cells.with_cost_overrides(spec, document)
        assert what_if.params_dict()[cells.COSTS_PARAM] == (
            '{"x86":{"vmexit_hw":1040}}'
        )
        assert cells.run_cell(what_if) != cells.run_cell(spec)


class TestArchitectureGuard:
    def test_wrong_declaration_fails_the_cell_naming_both(self, monkeypatch):
        def builds_x86(_params):
            hw_costs.x86_costs()
            return {}

        monkeypatch.setitem(cells.CELL_KINDS, "micro", builds_x86)
        with pytest.raises(CellFailure) as failure:
            pool.run_cells([cells.micro("kvm-arm")])
        message = str(failure.value)
        assert "ConfigurationError" in message
        assert "simulates arm" in message and "x86 cost table" in message

    def test_guard_holds_for_what_if_cells_too(self, monkeypatch):
        def builds_arm(_params):
            hw_costs.arm_costs()
            return {}

        monkeypatch.setitem(cells.CELL_KINDS, "micro", builds_arm)
        spec = cells.with_cost_overrides(
            cells.micro("xen-x86"), {"x86": {"vmexit_hw": 1040}}
        )
        with pytest.raises(ConfigurationError, match="simulates x86"):
            cells.run_cell(spec)

    def test_guard_is_lifted_after_the_cell(self):
        cells.run_cell(cells.breakdown())
        hw_costs.x86_costs()  # no scope outside a cell

    def test_guard_binds_only_the_cell_thread(self):
        # a cache key derived on another thread builds both tables
        built = []
        with hw_costs.scoped_to("arm"):
            thread = threading.Thread(
                target=lambda: built.append(cache.live_costs())
            )
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
            with pytest.raises(ConfigurationError):
                hw_costs.x86_costs()
        assert built and set(built[0]) == {"arm", "x86"}

    def test_cell_without_costs_param_sees_an_outer_document(self):
        spec = cells.micro("kvm-arm")
        document = {"arm": {"trap_to_el2": 760}}
        default = cells.run_cell(spec)
        with hw_costs.overriding(document):
            under_outer = cells.run_cell(spec)
        assert under_outer != default
        assert under_outer == cells.run_cell(
            cells.with_cost_overrides(spec, document)
        )

    def test_keyless_kind_keeps_the_whole_document(self, monkeypatch):
        def reads_both(_params):
            return [
                hw_costs.arm_costs().trap_to_el2,
                hw_costs.x86_costs().vmexit_hw,
            ]

        monkeypatch.setitem(cells.CELL_KINDS, "keyless", reads_both)
        document = {"arm": {"trap_to_el2": 7}, "x86": {"vmexit_hw": 9}}
        spec = cells.with_cost_overrides(cells.CellSpec("keyless"), document)
        assert spec.params_dict()[cells.COSTS_PARAM] == (
            '{"arm":{"trap_to_el2":7},"x86":{"vmexit_hw":9}}'
        )
        assert cells.run_cell(spec) == [7, 9]


class TestReadSetGolden:
    def test_committed_read_sets_match_a_regeneration(self):
        committed = readsets.GOLDEN_PATH.read_text(encoding="utf-8")
        regenerated = readsets.render(readsets.generate())
        assert regenerated == committed, (
            "the committed read sets are stale; regenerate them with\n    %s"
            % readsets.REGENERATE
        )

    def test_every_golden_cell_has_one(self):
        assert set(READ_SETS) == {spec.id for spec in ALL_CELLS}
        for spec in ALL_CELLS:
            assert cells.read_set(spec), spec.id

    def test_what_if_cells_share_their_base_read_set(self):
        spec = cells.micro("kvm-arm")
        what_if = cells.with_cost_overrides(spec, {"arm": {"trap_to_el2": 152}})
        assert what_if != spec
        assert cells.read_set(what_if) == cells.read_set(spec)


class TestDroppingUnreadFieldsIsExact:
    @pytest.mark.parametrize("spec", ALL_CELLS, ids=lambda spec: spec.id)
    def test_unread_fields_leave_the_payload_alone(self, spec):
        document = _rescaled_document(cells.cell_arch(spec), cells.read_set(spec))
        assert _run_unstripped(spec, document) == _run_unstripped(spec)
        assert cells.with_cost_overrides(spec, document) is spec

    def test_only_read_fields_travel(self):
        spec = cells.micro("kvm-x86")
        assert "virq_complete_vapic" not in cells.read_set(spec)
        document = {"x86": {"vmexit_hw": 1040, "virq_complete_vapic": 1}}
        what_if = cells.with_cost_overrides(spec, document)
        assert what_if.params_dict()[cells.COSTS_PARAM] == (
            '{"x86":{"vmexit_hw":1040}}'
        )
        assert cells.run_cell(what_if) != cells.run_cell(spec)

    def test_a_field_no_cell_reads_plans_every_target_at_base_identity(self):
        for target in queries.TARGETS:
            query, _ = queries.canonicalize(
                {"target": target, "costs": {"x86": {"virq_complete_vapic": 1}}}
            )
            assert query.costs == {"x86": {"virq_complete_vapic": 1}}
            base, execs = queries.plan(query)
            assert execs == base, target


#: a golden cell that reads one ARM field only (``ipi_wire``)
NARROW = cells.tcprr("native")


def _reads_trap_to_el2(_params):
    return hw_costs.arm_costs().trap_to_el2


def _sums_the_save_table(_params):
    return hw_costs.arm_costs().full_save_cycles()


class TestFieldGuard:
    @pytest.mark.parametrize(
        "executor,field",
        [(_reads_trap_to_el2, "arm.trap_to_el2"), (_sums_the_save_table, "arm.save.GP")],
    )
    @pytest.mark.parametrize("what_if", [False, True], ids=["default", "what-if"])
    def test_an_undeclared_read_fails_the_cell_naming_the_field(
        self, monkeypatch, executor, field, what_if
    ):
        assert field.split(".", 1)[1] not in cells.read_set(NARROW)
        spec = NARROW
        if what_if:
            spec = cells.with_cost_overrides(NARROW, {"arm": {"ipi_wire": 860}})
            assert spec != NARROW
        monkeypatch.setitem(cells.CELL_KINDS, "tcprr", executor)
        with pytest.raises(CellFailure) as failure:
            pool.run_cells([spec])
        message = str(failure.value)
        assert "ConfigurationError" in message
        assert "read %s, which is not in its read set" % field in message

    def test_guard_is_lifted_after_the_cell(self):
        cells.run_cell(NARROW)
        costs = hw_costs.arm_costs()
        assert costs.full_save_cycles() == hw_costs.ArmCosts().full_save_cycles()
        assert costs.trap_to_el2 == hw_costs.ArmCosts().trap_to_el2

    def test_guard_binds_only_the_cell_thread(self):
        # a cache key derived on another thread builds both full tables
        built = []
        with hw_costs.scoped_to("arm", cells.read_set(NARROW)):
            thread = threading.Thread(target=lambda: built.append(cache.live_costs()))
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
            costs = hw_costs.arm_costs()
            assert costs.ipi_wire == hw_costs.ArmCosts().ipi_wire
            with pytest.raises(ConfigurationError, match="arm.trap_to_el2"):
                costs.trap_to_el2
            with pytest.raises(ConfigurationError, match="arm.save.GP"):
                costs.full_save_cycles()
        assert built == [cache.live_costs()]


class TestCellsOutsideTheGolden:
    @pytest.mark.parametrize(
        "spec",
        [
            cells.tcprr("kvm", 41),
            cells.appcol("kvm-arm", 2),
            cells.oversub("kvm-x86", 250.0),
            cells.ablation("xen-arm", ["Apache"]),
        ],
        ids=lambda spec: spec.id,
    )
    def test_keep_the_whole_section_and_run_unguarded(self, monkeypatch, spec):
        assert cells.read_set(spec) is None
        arch = cells.cell_arch(spec)
        document = _rescaled_document(arch)
        what_if = cells.with_cost_overrides(spec, document)
        assert json.loads(what_if.params_dict()[cells.COSTS_PARAM]) == document

        def reads_everything(_params):
            costs = hw_costs.arm_costs() if arch == "arm" else hw_costs.x86_costs()
            return dataclasses.asdict(costs) != {}

        monkeypatch.setitem(cells.CELL_KINDS, spec.kind, reads_everything)
        assert cells.run_cell(spec) is True
        assert cells.run_cell(what_if) is True


class TestAblationColumn:
    """One ablation cell per platform runs every workload on one
    derived-cost measurement; the payload is keyed by workload."""

    def test_one_cell_per_key_whatever_the_workload_order(self):
        assert [spec.id for spec in cells.ablation_cells()] == [
            "ablation[key=kvm-arm,workloads=Apache+Memcached]",
            "ablation[key=xen-arm,workloads=Apache+Memcached]",
        ]
        assert cells.ablation("kvm-arm", ["Memcached", "Apache"]) == cells.ablation(
            "kvm-arm"
        )

    def test_grid_follows_the_requested_workload_order(self):
        results = pool.run_cells(cells.ablation_cells(("kvm-arm",)))
        (result,) = results.values()
        assert list(result.payload) == ["Apache", "Memcached"]
        grid = merge.ablation_grid(results, ("kvm-arm",), ("Memcached", "Apache"))
        assert list(grid) == [("kvm-arm", "Memcached"), ("kvm-arm", "Apache")]
        assert grid["kvm-arm", "Apache"].workload == "Apache"

    def test_unknown_workload_fails_the_cell(self):
        with pytest.raises(ConfigurationError, match="NoSuchWorkload"):
            cells.run_cell(cells.ablation("kvm-arm", ["Apache", "NoSuchWorkload"]))
