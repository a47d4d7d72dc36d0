"""Table V: Netperf TCP_RR latency decomposition on ARM.

Reproduces the paper's methodology: run request/response transactions
against the server (native, KVM, or Xen), timestamp each packet at the
data-link layer and inside the VM using the globally-synchronized counter,
and decompose the per-transaction time into:

    send to recv        server tx -> next request at the server driver
                        (wire + client turnaround + pre-driver delay)
    recv to send        server-side driver rx -> driver tx
    recv to VM recv     driver rx -> packet delivered in the VM
    VM recv to VM send  VM-internal processing
    VM send to send     VM tx kick -> physical driver tx

The client, wire, guest processing, hypervisor paths, and backends all
execute on the discrete-event engine; the stamps fall out of the packet
flow.
"""

import dataclasses

from repro.hw.dev.nic import Packet

RR_PACKET_SIZE = 64  # 1-byte payload + headers


@dataclasses.dataclass
class Transaction:
    request: Packet
    response: Packet


@dataclasses.dataclass
class TcpRrResult:
    """Table V column, times in microseconds."""

    config: str
    trans_per_sec: float
    time_per_trans_us: float
    send_to_recv_us: float
    recv_to_send_us: float
    recv_to_vm_recv_us: float
    vm_recv_to_vm_send_us: float
    vm_send_to_send_us: float

    def overhead_us(self, native):
        return self.time_per_trans_us - native.time_per_trans_us

    def as_dict(self):
        return {
            "Trans/s": self.trans_per_sec,
            "Time/trans": self.time_per_trans_us,
            "send to recv": self.send_to_recv_us,
            "recv to send": self.recv_to_send_us,
            "recv to VM recv": self.recv_to_vm_recv_us,
            "VM recv to VM send": self.vm_recv_to_vm_send_us,
            "VM send to send": self.vm_send_to_send_us,
        }


class TcpRrBenchmark:
    """Drives netperf TCP_RR transactions through one testbed."""

    def __init__(self, testbed, transactions=40):
        self.testbed = testbed
        self.transactions = transactions
        self.machine = testbed.machine
        self.engine = testbed.engine
        self._done = []
        self._pending_response = {}
        self._finished = None

    @property
    def virtualized(self):
        return self.testbed.hypervisor is not None

    # --- driving the transaction loop ----------------------------------------

    def run(self):
        hv = self.testbed.hypervisor
        if self.virtualized:
            self.testbed.vm.irq_affinity = [0]
            if hv.design == "type1":
                hv.install_guest(hv.dom0.vcpu(0))
                hv.park_vcpu(hv.dom0.vcpu(0))
            hv.park_vcpu(self.testbed.vm.vcpu(0))
            self.testbed.server_nic.on_receive = hv._on_physical_receive
            self._hook_vm_delivery()
        else:
            self.testbed.server_nic.on_receive = self._native_receive
        self.testbed.client_nic.on_receive = self._client_receive
        self._finished = self.engine.event("rr-finished")
        self._send_request()
        self.engine.run_until_fired(self._finished, deadline=int(1e12))
        self.engine.run()
        return self._collect()

    def _send_request(self):
        request = Packet(RR_PACKET_SIZE, kind="rr-request")
        request.stamp("client.send", self.engine.now)
        self.testbed.client_nic.transmit(request)

    def _client_receive(self, response):
        request = self._pending_response.pop(response.id)
        self._done.append(Transaction(request, response))
        if self.virtualized:
            # The server side quiesces between transactions: the VM blocks
            # in the idle loop and (for Xen) Dom0 goes back to the idle
            # domain — the paper's steady-state RR behavior.
            hv = self.testbed.hypervisor
            hv.park_vcpu(self.testbed.vm.vcpu(0))
            if hv.design == "type1":
                hv.park_vcpu(hv.dom0.vcpu(0))
        if len(self._done) >= self.transactions:
            self._finished.fire()
        else:
            self.engine.schedule(
                self.testbed.netstack.client_turnaround_cycles(), self._send_request
            )

    # --- native server path ------------------------------------------------------

    def _native_receive(self, request):
        self.engine.spawn(self._native_server(request), "native-server")

    def _native_server(self, request):
        netstack = self.testbed.netstack
        pcpu = self.machine.pcpu(4)  # the server runs on the benchmark cores
        request.stamp("host.rx_driver", self.engine.now)
        yield pcpu.op("rx_stack", netstack.host_rx_cycles(), "net")
        yield pcpu.op("app", netstack.app_turnaround_cycles(), "app")
        yield pcpu.op("tx_stack", netstack.host_tx_cycles(), "net")
        response = Packet(RR_PACKET_SIZE, kind="rr-response")
        response.stamp("host.tx", self.engine.now)
        self._pending_response[response.id] = request
        self.testbed.server_nic.transmit(response)

    # --- virtualized guest path ----------------------------------------------------

    def _hook_vm_delivery(self):
        """Arrange for guest-side processing when the VM receives a packet."""
        hv = self.testbed.hypervisor
        original_notify = hv.notify_guest

        def notify_and_process(vm, virq=None, packet=None, **kwargs):
            if virq is None:
                done = original_notify(vm, packet=packet, **kwargs)
            else:
                done = original_notify(vm, virq, packet=packet, **kwargs)
            if packet is not None and packet.kind == "rr-request":
                done.on_fire(lambda _value: self._vm_got_packet(packet))
            return done

        hv.notify_guest = notify_and_process

    def _vm_got_packet(self, request):
        request.stamp("vm.recv", self.engine.now)
        self.engine.spawn(self._guest_server(request), "guest-server")

    def _guest_server(self, request):
        testbed = self.testbed
        netstack, frontend = testbed.netstack, testbed.frontend
        vcpu = testbed.vm.vcpu(0)
        pcpu = vcpu.pcpu
        yield pcpu.op("guest_driver_rx", frontend.rx_cycles(), "guest")
        yield pcpu.op("guest_rx_stack", netstack.guest_rx_cycles(), "guest")
        yield pcpu.op("app", netstack.app_turnaround_cycles(), "app")
        yield pcpu.op("guest_tx_stack", netstack.guest_tx_cycles(), "guest")
        yield pcpu.op("guest_driver_tx", frontend.tx_cycles(), "guest")
        response = Packet(RR_PACKET_SIZE, kind="rr-response")
        response.stamp("vm.send", self.engine.now)
        self._pending_response[response.id] = request
        testbed.hypervisor.kick_backend(vcpu, packet=response)

    # --- decomposition ---------------------------------------------------------------

    def _collect(self):
        clock = self.machine.clock
        # Skip the first transaction (cold start) like the real benchmark's
        # warmup; average the rest.
        steady = self._done[1:]
        us = clock.us_from_cycles

        def mean(values):
            # a plain left fold, not sum(): from Python 3.12 sum() adds
            # floats with compensated summation, so the last bits (and
            # the result bytes) would depend on the interpreter
            total, count = 0, 0
            for value in values:
                total = total + value
                count += 1
            return total / count if count else 0.0

        time_per_trans = mean(
            us(b.request.stamps["client.send"] - a.request.stamps["client.send"])
            for a, b in zip(self._done, self._done[1:])
        )
        send_to_recv = mean(
            us(b.request.stamps["host.rx_driver"] - a.response.stamps["host.tx"])
            for a, b in zip(self._done, self._done[1:])
        )
        recv_to_send = mean(
            us(t.response.stamps["host.tx"] - t.request.stamps["host.rx_driver"])
            for t in steady
        )
        if self.virtualized:
            recv_to_vm_recv = mean(
                us(t.request.stamps["vm.recv"] - t.request.stamps["host.rx_driver"])
                for t in steady
            )
            vm_recv_to_vm_send = mean(
                us(t.response.stamps["vm.send"] - t.request.stamps["vm.recv"])
                for t in steady
            )
            vm_send_to_send = mean(
                us(t.response.stamps["host.tx"] - t.response.stamps["vm.send"])
                for t in steady
            )
        else:
            recv_to_vm_recv = vm_recv_to_vm_send = vm_send_to_send = 0.0
        return TcpRrResult(
            config=self.testbed.key,
            trans_per_sec=1e6 / time_per_trans if time_per_trans else 0.0,
            time_per_trans_us=time_per_trans,
            send_to_recv_us=send_to_recv,
            recv_to_send_us=recv_to_send,
            recv_to_vm_recv_us=recv_to_vm_recv,
            vm_recv_to_vm_send_us=vm_recv_to_vm_send,
            vm_send_to_send_us=vm_send_to_send,
        )


def run_table5(transactions=40):
    """The full Table V: native, KVM, Xen on the ARM platform."""
    from repro.core.testbed import build_testbed, native_testbed

    results = {}
    results["native"] = TcpRrBenchmark(native_testbed("arm"), transactions).run()
    results["kvm"] = TcpRrBenchmark(build_testbed("kvm-arm"), transactions).run()
    results["xen"] = TcpRrBenchmark(build_testbed("xen-arm"), transactions).run()
    return results
