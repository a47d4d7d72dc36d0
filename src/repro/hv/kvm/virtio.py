"""Virtio ring model (the KVM paravirtual I/O transport).

The property the paper leans on: the rings live in *guest memory* that the
host kernel can address directly, so the backend moves payloads with zero
copies — for receive, the device can land data straight into guest-visible
buffers.  Contrast with Xen's grant-mediated copies in
:mod:`repro.hv.xen.netback`.
"""

from collections import deque

from repro.errors import ProtocolError

DEFAULT_QUEUE_SIZE = 256


class VirtioQueue:
    """One virtqueue: guest posts buffers, backend consumes/fills them."""

    def __init__(self, name, size=DEFAULT_QUEUE_SIZE):
        self.name = name
        self.size = size
        self._avail = deque()
        #: empty buffers ``guest_fill`` posted behind ``_avail``; each is
        #: made when the backend pops it, not when the ring is filled
        self._fresh = 0
        self._used = deque()
        self.kicks = 0
        self.notifies = 0

    def guest_post(self, buffer):
        """Guest driver: add a buffer (descriptor chain) to the avail ring."""
        if self.avail_count >= self.size:
            raise ProtocolError("virtqueue %s avail ring full" % self.name)
        # a buffer posted now queues behind the pending empty ones
        self._avail.extend({"empty": True} for _ in range(self._fresh))
        self._fresh = 0
        self._avail.append(buffer)

    def guest_fill(self):
        """Guest driver: post fresh empty buffers until the avail ring is full."""
        self._fresh = self.size - len(self._avail)

    def guest_kick(self):
        """Guest driver: doorbell write (MMIO -> ioeventfd in the host)."""
        self.kicks += 1

    def backend_pop(self):
        """Backend (vhost): take the next posted buffer."""
        if self._avail:
            return self._avail.popleft()
        if not self._fresh:
            raise ProtocolError("virtqueue %s has no available buffers" % self.name)
        self._fresh -= 1
        return {"empty": True}

    def backend_push_used(self, buffer):
        """Backend: return a completed buffer to the used ring."""
        if len(self._used) >= self.size:
            raise ProtocolError("virtqueue %s used ring full" % self.name)
        self._used.append(buffer)
        self.notifies += 1

    def guest_collect_used(self):
        """Guest driver: reap completed buffers."""
        used, self._used = list(self._used), deque()
        return used

    @property
    def avail_count(self):
        return len(self._avail) + self._fresh

    @property
    def used_count(self):
        return len(self._used)


class VirtioNetDevice:
    """A virtio-net device: rx + tx queues bound to one VM."""

    def __init__(self, vm, queue_size=DEFAULT_QUEUE_SIZE):
        self.vm = vm
        self.rx = VirtioQueue("%s.virtio-net.rx" % vm.name, queue_size)
        self.tx = VirtioQueue("%s.virtio-net.tx" % vm.name, queue_size)
        self.refill_rx()

    def refill_rx(self):
        """Guest driver keeps the rx ring stocked with empty buffers."""
        self.rx.guest_fill()
