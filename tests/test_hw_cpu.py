"""Unit tests for the ARM and x86 CPU models."""

import pickle

import pytest

from repro.errors import HardwareFault
from repro.hw.cpu import ArmCpu, ExceptionLevel, RegClass, RegisterFile, Vmcs, X86Cpu
from repro.hw.cpu.registers import REGISTER_NAMES, RegisterBank, fresh_context_image


class TestRegisterBank:
    def test_default_zero(self):
        bank = RegisterBank(RegClass.GP)
        assert bank.read("x0") == 0

    def test_write_read_round_trip(self):
        bank = RegisterBank(RegClass.GP)
        bank.write("x3", 0xDEAD)
        assert bank.read("x3") == 0xDEAD

    def test_unknown_register_rejected(self):
        bank = RegisterBank(RegClass.GP)
        with pytest.raises(HardwareFault):
            bank.read("ttbr0_el1")
        with pytest.raises(HardwareFault):
            bank.write("nope", 1)

    def test_snapshot_is_a_copy(self):
        bank = RegisterBank(RegClass.TIMER)
        image = bank.snapshot()
        image["cntv_ctl_el0"] = 99
        assert bank.read("cntv_ctl_el0") == 0

    def test_load_validates_shape(self):
        bank = RegisterBank(RegClass.TIMER)
        with pytest.raises(HardwareFault):
            bank.load({"wrong": 1})

    def test_all_table3_classes_have_registers(self):
        for reg_class in RegClass:
            assert REGISTER_NAMES[reg_class], reg_class


class TestRegisterFile:
    def test_snapshot_selected_classes(self):
        regs = RegisterFile()
        regs.write(RegClass.GP, "x0", 7)
        image = regs.snapshot([RegClass.GP])
        assert list(image) == [RegClass.GP]
        assert image[RegClass.GP]["x0"] == 7

    def test_load_round_trip(self):
        regs = RegisterFile()
        regs.write(RegClass.EL1_SYS, "ttbr1_el1", 0x1000)
        image = regs.snapshot()
        regs.write(RegClass.EL1_SYS, "ttbr1_el1", 0x2000)
        regs.load(image)
        assert regs.read(RegClass.EL1_SYS, "ttbr1_el1") == 0x1000

    def test_missing_bank_rejected(self):
        regs = RegisterFile([RegClass.GP])
        with pytest.raises(HardwareFault):
            regs.read(RegClass.VGIC, "gich_hcr")

    def test_fresh_context_image_is_zeroed(self):
        image = fresh_context_image([RegClass.GP])
        assert all(value == 0 for value in image[RegClass.GP].values())


def _distinct_image(regs):
    """Write a distinct non-zero value into every register of ``regs``."""
    value = 1
    for reg_class, bank in regs.banks.items():
        for name in bank.names():
            regs.write(reg_class, name, value)
            value += 1
    return regs.snapshot()


class TestRegisterFileHotPaths:
    """The plain-data snapshot/load paths keep every shape check."""

    @pytest.mark.parametrize("reg_class", list(RegClass), ids=lambda c: c.name)
    def test_snapshot_load_round_trips_each_class(self, reg_class):
        regs = RegisterFile()
        image = _distinct_image(regs)
        saved = regs.snapshot([reg_class])
        assert list(saved) == [reg_class]
        assert saved[reg_class] == image[reg_class]
        for name in REGISTER_NAMES[reg_class]:
            regs.write(reg_class, name, 0)
        regs.load(saved)
        assert regs.snapshot() == image

    @pytest.mark.parametrize("reg_class", list(RegClass), ids=lambda c: c.name)
    def test_load_with_missing_name_rejected(self, reg_class):
        regs = RegisterFile()
        bank_image = regs.snapshot([reg_class])[reg_class]
        del bank_image[REGISTER_NAMES[reg_class][0]]
        with pytest.raises(HardwareFault):
            regs.load({reg_class: bank_image})

    @pytest.mark.parametrize("reg_class", list(RegClass), ids=lambda c: c.name)
    def test_load_with_extra_name_rejected(self, reg_class):
        regs = RegisterFile()
        bank_image = regs.snapshot([reg_class])[reg_class]
        bank_image["not_a_register"] = 1
        with pytest.raises(HardwareFault):
            regs.load({reg_class: bank_image})

    def test_snapshot_of_absent_class_is_a_hardware_fault(self):
        regs = RegisterFile([RegClass.GP])
        with pytest.raises(HardwareFault) as info:
            regs.snapshot([RegClass.GP, RegClass.VGIC])
        assert not isinstance(info.value, KeyError)

    def test_load_of_absent_class_is_a_hardware_fault(self):
        regs = RegisterFile([RegClass.GP])
        image = fresh_context_image([RegClass.VGIC])
        with pytest.raises(HardwareFault):
            regs.load(image)

    def test_fresh_context_images_share_no_inner_dict(self):
        first, second = fresh_context_image(), fresh_context_image()
        assert list(first) == list(second) == list(RegClass)
        for reg_class in RegClass:
            assert first[reg_class] is not second[reg_class]
            assert first[reg_class] == dict.fromkeys(REGISTER_NAMES[reg_class], 0)
        first[RegClass.GP]["x0"] = 1
        assert second[RegClass.GP]["x0"] == 0

    def test_fresh_context_image_loads_into_a_register_file(self):
        regs = RegisterFile()
        _distinct_image(regs)
        regs.load(fresh_context_image())
        assert all(
            value == 0 for bank in regs.snapshot().values() for value in bank.values()
        )

    def test_register_class_survives_pickling_as_a_dict_key(self):
        # identity hashing is only sound because members are singletons
        # that unpickle to themselves
        for reg_class in RegClass:
            assert pickle.loads(pickle.dumps(reg_class)) is reg_class
        image = pickle.loads(pickle.dumps(fresh_context_image()))
        RegisterFile().load(image)


class TestArmCpu:
    def test_starts_in_el1(self):
        assert ArmCpu().current_el == ExceptionLevel.EL1

    def test_trap_and_eret(self):
        cpu = ArmCpu()
        cpu.trap_to_el2("hvc")
        assert cpu.current_el == ExceptionLevel.EL2
        cpu.eret(ExceptionLevel.EL1)
        assert cpu.current_el == ExceptionLevel.EL1

    def test_double_trap_rejected(self):
        cpu = ArmCpu()
        cpu.trap_to_el2()
        with pytest.raises(HardwareFault):
            cpu.trap_to_el2()

    def test_eret_from_el1_rejected(self):
        with pytest.raises(HardwareFault):
            ArmCpu().eret(ExceptionLevel.EL0)

    def test_eret_to_el2_rejected(self):
        cpu = ArmCpu()
        cpu.trap_to_el2()
        with pytest.raises(HardwareFault):
            cpu.eret(ExceptionLevel.EL2)

    def test_virt_feature_toggle(self):
        cpu = ArmCpu()
        cpu.enable_virt_features(vmid=5)
        assert cpu.virt_features_enabled
        assert cpu.current_vmid == 5
        cpu.disable_virt_features()
        assert not cpu.virt_features_enabled
        assert cpu.current_vmid == 0

    def test_e2h_requires_vhe_silicon(self):
        with pytest.raises(HardwareFault):
            ArmCpu(vhe_capable=False).set_e2h(True)
        cpu = ArmCpu(vhe_capable=True)
        cpu.set_e2h(True)
        assert cpu.e2h

    def test_sysreg_access_without_vhe_hits_el1(self):
        cpu = ArmCpu()
        cpu.write_sysreg("ttbr1_el1", 0xAA)
        assert cpu.regs.read(RegClass.EL1_SYS, "ttbr1_el1") == 0xAA

    def test_vhe_redirection_in_el2(self):
        """The paper's example: with E2H set, `mrs x1, ttbr1_el1` executed
        in EL2 actually accesses TTBR1_EL2."""
        cpu = ArmCpu(vhe_capable=True)
        cpu.set_e2h(True)
        cpu.regs.write(RegClass.EL1_SYS, "ttbr1_el1", 0x111)  # real EL1 reg
        cpu.trap_to_el2()
        cpu.write_sysreg("ttbr1_el1", 0x222)  # redirected to EL2 twin
        assert cpu.read_sysreg("ttbr1_el1") == 0x222
        # The real EL1 register (guest state) is untouched:
        assert cpu.regs.read(RegClass.EL1_SYS, "ttbr1_el1") == 0x111

    def test_vhe_el21_encoding_reaches_real_el1(self):
        cpu = ArmCpu(vhe_capable=True)
        cpu.set_e2h(True)
        cpu.trap_to_el2()
        cpu.write_sysreg_el21("ttbr1_el1", 0x333)
        assert cpu.regs.read(RegClass.EL1_SYS, "ttbr1_el1") == 0x333
        assert cpu.read_sysreg_el21("ttbr1_el1") == 0x333

    def test_el21_requires_vhe_and_el2(self):
        cpu = ArmCpu(vhe_capable=True)
        with pytest.raises(HardwareFault):
            cpu.read_sysreg_el21("ttbr1_el1")  # E2H clear, in EL1

    def test_no_redirection_without_e2h_in_el2(self):
        cpu = ArmCpu(vhe_capable=True)
        cpu.trap_to_el2()
        cpu.write_sysreg("ttbr1_el1", 0x444)
        assert cpu.regs.read(RegClass.EL1_SYS, "ttbr1_el1") == 0x444

    def test_save_load_context(self):
        cpu = ArmCpu()
        cpu.regs.write(RegClass.GP, "x0", 1)
        image = cpu.save_context([RegClass.GP])
        cpu.regs.write(RegClass.GP, "x0", 2)
        cpu.load_context(image)
        assert cpu.regs.read(RegClass.GP, "x0") == 1


class TestX86Cpu:
    def test_starts_in_root_mode(self):
        assert X86Cpu().root_mode

    def test_vmentry_requires_vmcs(self):
        with pytest.raises(HardwareFault):
            X86Cpu().vmentry()

    def test_entry_exit_swaps_state(self):
        cpu = X86Cpu()
        vmcs = Vmcs("vm0")
        vmcs.guest_state[RegClass.GP]["x0"] = 0xBEEF
        cpu.regs.write(RegClass.GP, "x0", 0xCAFE)  # host value
        cpu.load_vmcs(vmcs)
        cpu.vmentry()
        assert not cpu.root_mode
        assert cpu.regs.read(RegClass.GP, "x0") == 0xBEEF
        cpu.regs.write(RegClass.GP, "x0", 0xF00D)  # guest computes
        cpu.vmexit("hypercall")
        assert cpu.root_mode
        assert cpu.regs.read(RegClass.GP, "x0") == 0xCAFE  # host restored
        assert vmcs.guest_state[RegClass.GP]["x0"] == 0xF00D  # guest saved

    def test_vmexit_from_root_rejected(self):
        with pytest.raises(HardwareFault):
            X86Cpu().vmexit()

    def test_double_entry_rejected(self):
        cpu = X86Cpu()
        cpu.load_vmcs(Vmcs())
        cpu.vmentry()
        with pytest.raises(HardwareFault):
            cpu.vmentry()

    def test_vmptrld_from_non_root_rejected(self):
        cpu = X86Cpu()
        cpu.load_vmcs(Vmcs())
        cpu.vmentry()
        with pytest.raises(HardwareFault):
            cpu.load_vmcs(Vmcs())

    def test_event_injection_delivered_once(self):
        cpu = X86Cpu()
        cpu.load_vmcs(Vmcs())
        cpu.inject_on_next_entry(0x31)
        assert cpu.vmentry() == 0x31
        cpu.vmexit()
        assert cpu.vmentry() is None
