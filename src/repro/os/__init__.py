"""Operating-system model: the Linux-like kernel both hosts and guests run.

The workloads only exercise the kernel through costed paths (syscalls,
wakeups, network-stack traversals, driver work); this package is the
single home of those costs.
"""

from repro.os.netstack import NetstackModel
from repro.os.kernel import KernelModel

__all__ = ["KernelModel", "NetstackModel"]
