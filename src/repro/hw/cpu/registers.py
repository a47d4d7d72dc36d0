"""Architectural register state, organized by the classes of paper Table III.

The world-switch code in the hypervisor models really moves this state
between the CPU register file and per-VCPU memory images, so tests can
assert the *correctness* of a switch (guest state preserved, host state
isolated) independently of its *cost*.
"""

import enum

from repro.errors import HardwareFault


class RegClass(enum.Enum):
    """Register classes context-switched on ARM VM transitions (Table III)."""

    GP = "GP Regs"
    FP = "FP Regs"
    EL1_SYS = "EL1 System Regs"
    VGIC = "VGIC Regs"
    TIMER = "Timer Regs"
    EL2_CONFIG = "EL2 Config Regs"
    EL2_VIRTUAL_MEMORY = "EL2 Virtual Memory Regs"

    # Members are singletons, so identity hashing is exact; the C-level
    # hash keeps the Python-level ``Enum.__hash__`` off every register
    # bank and cost-table lookup.  No output iterates a set of classes,
    # so no byte depends on the hash values.
    __hash__ = object.__hash__


#: Every class, in Table III order.
ALL_CLASSES = tuple(RegClass)

#: Representative register names per class.  The specific names matter for
#: the VHE register-redirection model (TTBR1_EL1 vs TTBR1_EL2 and friends).
REGISTER_NAMES = {
    RegClass.GP: tuple("x%d" % i for i in range(31)) + ("sp", "pc", "pstate"),
    RegClass.FP: tuple("q%d" % i for i in range(32)) + ("fpsr", "fpcr"),
    RegClass.EL1_SYS: (
        "sctlr_el1",
        "ttbr0_el1",
        "ttbr1_el1",
        "tcr_el1",
        "mair_el1",
        "vbar_el1",
        "tpidr_el1",
        "sp_el1",
        "elr_el1",
        "spsr_el1",
        "esr_el1",
        "far_el1",
        "contextidr_el1",
        "csselr_el1",
        "cpacr_el1",
        "par_el1",
        "amair_el1",
        "actlr_el1",
    ),
    RegClass.VGIC: (
        ("gich_hcr", "gich_vmcr", "gich_misr", "gich_eisr", "gich_elrsr", "gich_apr")
        + tuple("gich_lr%d" % i for i in range(4))
    ),
    RegClass.TIMER: ("cntv_ctl_el0", "cntv_cval_el0", "cntkctl_el1"),
    RegClass.EL2_CONFIG: ("hcr_el2", "mdcr_el2", "cptr_el2", "hstr_el2"),
    RegClass.EL2_VIRTUAL_MEMORY: ("vttbr_el2", "vtcr_el2", "vpidr_el2", "vmpidr_el2"),
}


#: the all-zero image of each class; banks and saved images start as
#: copies of these (a dict copy is cheaper than rebuilding it by name)
_ZERO_IMAGES = {
    reg_class: dict.fromkeys(names, 0) for reg_class, names in REGISTER_NAMES.items()
}


class RegisterBank:
    """Named registers of one class with default-zero values."""

    __slots__ = ("reg_class", "_values")

    def __init__(self, reg_class):
        self.reg_class = reg_class
        self._values = _ZERO_IMAGES[reg_class].copy()

    def read(self, name):
        if name not in self._values:
            raise HardwareFault(
                "register %r is not in class %s" % (name, self.reg_class.name)
            )
        return self._values[name]

    def write(self, name, value):
        if name not in self._values:
            raise HardwareFault(
                "register %r is not in class %s" % (name, self.reg_class.name)
            )
        self._values[name] = value

    def names(self):
        return list(self._values)

    def snapshot(self):
        """Copy of all values (a memory image of this bank)."""
        return self._values.copy()

    def load(self, image):
        """Restore all values from a memory image."""
        if image.keys() != self._values.keys():
            raise HardwareFault(
                "image does not match register class %s" % self.reg_class.name
            )
        self._values.update(image)


class RegisterFile:
    """A full set of banks, one per :class:`RegClass`."""

    __slots__ = ("banks",)

    def __init__(self, classes=ALL_CLASSES):
        self.banks = {reg_class: RegisterBank(reg_class) for reg_class in classes}

    def _bank(self, reg_class):
        if reg_class not in self.banks:
            raise HardwareFault("no bank for class %s" % (reg_class,))
        return self.banks[reg_class]

    def read(self, reg_class, name):
        return self._bank(reg_class).read(name)

    def write(self, reg_class, name, value):
        self._bank(reg_class).write(name, value)

    def snapshot(self, classes=None):
        """Memory image {RegClass: {name: value}} of selected classes."""
        banks = self.banks
        if classes is None:
            classes = banks
        try:
            return {reg_class: banks[reg_class].snapshot() for reg_class in classes}
        except KeyError as exc:
            raise HardwareFault("no bank for class %s" % (exc.args[0],)) from None

    def load(self, image):
        banks = self.banks
        for reg_class, bank_image in image.items():
            bank = banks.get(reg_class)
            if bank is None:
                raise HardwareFault("no bank for class %s" % (reg_class,))
            bank.load(bank_image)


def fresh_context_image(classes=ALL_CLASSES):
    """A zeroed saved-context image (what a new VCPU starts from)."""
    return {reg_class: _ZERO_IMAGES[reg_class].copy() for reg_class in classes}
