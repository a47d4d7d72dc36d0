"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, Process, Timeout


def test_time_starts_at_zero():
    assert Engine().now == 0


def test_schedule_runs_callback_at_delay():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [10]


def test_schedule_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_same_cycle_callbacks_run_fifo():
    engine = Engine()
    order = []
    engine.schedule(5, lambda: order.append("a"))
    engine.schedule(5, lambda: order.append("b"))
    engine.schedule(5, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock_at_limit():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run(until=40)
    assert engine.now == 40
    engine.run()
    assert engine.now == 100


def test_run_until_advances_clock_when_queue_empty():
    engine = Engine()
    engine.run(until=25)
    assert engine.now == 25


def test_process_timeout_advances_time():
    engine = Engine()
    seen = []

    def proc():
        yield Timeout(7)
        seen.append(engine.now)
        yield Timeout(3)
        seen.append(engine.now)

    engine.spawn(proc())
    engine.run()
    assert seen == [7, 10]


def test_event_wakes_waiter_with_value():
    engine = Engine()
    event = engine.event("ping")
    got = []

    def waiter():
        value = yield event
        got.append((engine.now, value))

    engine.spawn(waiter())
    engine.schedule(30, lambda: event.fire("hello"))
    engine.run()
    assert got == [(30, "hello")]


def test_event_fire_twice_raises():
    engine = Engine()
    event = engine.event()
    event.fire()
    with pytest.raises(SimulationError):
        event.fire()


def test_wait_on_already_fired_event_resumes_immediately():
    engine = Engine()
    event = engine.event()
    event.fire("early")
    got = []

    def waiter():
        yield Timeout(5)
        value = yield event
        got.append((engine.now, value))

    engine.spawn(waiter())
    engine.run()
    assert got == [(5, "early")]


def test_unsupported_yield_raises():
    # The command set is Timeout and SimEvent: a yielded process is no join.
    def proc(command):
        yield command

    for make_command in (
        lambda engine: "not a command",
        lambda engine: engine.spawn(proc(Timeout(1))),
    ):
        engine = Engine()
        engine.spawn(proc(make_command(engine)))
        with pytest.raises(SimulationError):
            engine.run()


def test_run_until_fired_returns_value():
    engine = Engine()
    event = engine.event()
    engine.schedule(50, lambda: event.fire("done"))
    assert engine.run_until_fired(event) == "done"
    assert engine.now == 50


def test_run_until_fired_deadlock_detected():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        engine.run_until_fired(event)


def test_run_until_fired_limit_enforced():
    engine = Engine()
    event = engine.event()
    engine.schedule(1000, lambda: event.fire())
    with pytest.raises(SimulationError):
        engine.run_until_fired(event, deadline=100)


def test_zero_timeout_lets_same_time_events_interleave():
    engine = Engine()
    order = []

    def proc_a():
        order.append("a1")
        yield Timeout(0)
        order.append("a2")

    def proc_b():
        order.append("b1")
        yield Timeout(0)
        order.append("b2")

    engine.spawn(proc_a())
    engine.spawn(proc_b())
    engine.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert engine.now == 0


def test_schedule_float_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(1.5, lambda: None)
    # Even a float that happens to be integral breaks the int-cycle contract.
    with pytest.raises(SimulationError):
        engine.schedule(10.0, lambda: None)


def test_run_until_fired_limit_leaves_queue_intact():
    engine = Engine()
    event = engine.event("late")
    engine.schedule(1000, lambda: event.fire("finally"))
    with pytest.raises(SimulationError):
        engine.run_until_fired(event, deadline=100)
    # The over-limit entry was peeked, not popped: the caller can recover.
    assert engine.run_until_fired(event) == "finally"
    assert engine.now == 1000


def test_run_until_fired_rejects_backwards_time():
    import heapq

    engine = Engine()
    event = engine.event()
    engine.schedule(10, lambda: event.fire())
    engine.run()
    # White box: corrupt the queue with an entry in the past.
    heapq.heappush(engine._queue, (engine.now - 5, 10**9, lambda: None))
    with pytest.raises(SimulationError):
        engine.run_until_fired(engine.event("pending"))


# --- run_until_fired absolute-deadline semantics -------------------------


def test_run_until_fired_deadline_is_absolute_not_relative():
    engine = Engine()
    warmup = engine.event("warmup")
    engine.schedule(1000, lambda: warmup.fire())
    engine.run_until_fired(warmup)
    assert engine.now == 1000
    # A naively-relative "limit" of 500 would allow 500 more cycles; the
    # documented semantics are absolute: the next event at t=1100 lies
    # past deadline=500, so this must raise even though only 100 cycles
    # of additional work are queued.
    event = engine.event("late")
    engine.schedule(100, lambda: event.fire("v"))
    with pytest.raises(SimulationError):
        engine.run_until_fired(event, deadline=500)
    # Recovery with a real absolute deadline past `now`.
    assert engine.run_until_fired(event, deadline=2000) == "v"
    assert engine.now == 1100


def test_run_until_fired_rejects_deadline_and_limit_together():
    # ``limit=`` was a deprecated alias of ``deadline=`` and is gone: a
    # caller still passing it fails loudly instead of running unbounded.
    engine = Engine()
    event = engine.event()
    engine.schedule(1, lambda: event.fire())
    with pytest.raises(TypeError):
        engine.run_until_fired(event, deadline=10, limit=10)


# --- run(until) never rewinds the clock ----------------------------------


def test_run_until_before_now_is_rejected():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run(until=60)
    engine.schedule(100, lambda: None)
    with pytest.raises(SimulationError):
        engine.run(until=30)
    assert engine.now == 60
    engine.run(until=60)  # equal to now is not the past
    assert engine.now == 60


# --- run-ahead: a Timeout that ends before the queue head skips the heap --


class HeapOnlyEngine(Engine):
    """The reference engine: every Timeout takes the heap round-trip."""

    def run_ahead(self, delay):
        return False


class CountingEngine(Engine):
    """Counts heap schedules."""

    def __init__(self):
        super().__init__()
        self.schedules = 0

    def schedule(self, delay, callback):
        self.schedules += 1
        super().schedule(delay, callback)


def test_lone_process_never_touches_the_heap_after_its_start():
    engine = CountingEngine()
    seen = []

    def proc():
        for delay in (3, 0, 5, 7):
            yield Timeout(delay)
            seen.append(engine.now)

    engine.spawn(proc())
    engine.run()
    assert seen == [3, 3, 8, 15]
    assert engine.schedules == 1  # the spawn


def test_run_ahead_keeps_an_equal_time_tie_fifo():
    engine = Engine()
    order = []

    def proc():
        yield Timeout(0)
        engine.schedule(5, lambda: order.append(("callback", engine.now)))
        yield Timeout(5)  # ties the callback scheduled first: it runs first
        order.append(("process", engine.now))

    engine.spawn(proc())
    engine.run()
    assert order == [("callback", 5), ("process", 5)]


def test_run_ahead_stops_at_the_run_until_bound():
    engine = Engine()
    seen = []

    def proc():
        while True:
            yield Timeout(10)
            seen.append(engine.now)

    engine.spawn(proc())
    engine.run(until=35)
    assert seen == [10, 20, 30]
    assert engine.now == 35
    engine.run(until=50)
    assert seen == [10, 20, 30, 40, 50]
    assert engine.now == 50


def test_run_until_fired_returns_at_the_fire_time_of_a_process_that_goes_on():
    engine = Engine()
    done = engine.event("done")
    seen = []

    def proc():
        yield Timeout(4)
        done.fire("v")
        yield Timeout(6)  # must not run ahead past the stop event
        seen.append(engine.now)

    engine.spawn(proc())
    assert engine.run_until_fired(done) == "v"
    assert engine.now == 4
    assert seen == []
    engine.run()
    assert seen == [10]


def test_run_ahead_honours_the_run_until_fired_deadline():
    engine = Engine()
    done = engine.event("done")

    def proc():
        yield Timeout(5)
        yield Timeout(50)
        done.fire()

    engine.spawn(proc())
    with pytest.raises(SimulationError):
        engine.run_until_fired(done, deadline=20)
    assert engine.now == 5
    engine.run_until_fired(done)
    assert engine.now == 55


def test_no_run_ahead_outside_a_run_loop():
    engine = CountingEngine()

    def proc():
        yield Timeout(3)

    process = Process(engine, proc())
    process.resume(None)  # resumed by hand, not by a run loop
    assert engine.now == 0
    assert engine.schedules == 1


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), st.integers(0, 6)),
        st.tuples(st.just("fire"), st.integers(0, 2)),
        st.tuples(st.just("wait"), st.integers(0, 2)),
        st.tuples(st.just("schedule"), st.integers(0, 6)),
        st.tuples(st.just("spawn"), st.integers(0, 6)),
    ),
    max_size=8,
)
_drivers = st.lists(
    st.tuples(
        st.sampled_from(("run", "fired")),
        st.integers(0, 2),
        st.one_of(st.none(), st.integers(0, 20)),
    ),
    max_size=4,
)


def _trace(engine_class, programs, driver):
    """Run random process programs; every step logs ``(now, label)``."""
    engine = engine_class()
    events = [engine.event("e%d" % index) for index in range(3)]
    trace = []

    def proc(name, steps):
        for index, (op, arg) in enumerate(steps):
            label = "%s.%d" % (name, index)
            trace.append((engine.now, label))
            if op == "timeout":
                yield Timeout(arg)
            elif op == "fire":
                if not events[arg].fired:
                    events[arg].fire(label)
            elif op == "wait":
                value = yield events[arg]
                trace.append((engine.now, label, value))
            elif op == "schedule":
                engine.schedule(arg, lambda label=label: trace.append((engine.now, label)))
            else:
                engine.spawn(proc(label, [("timeout", arg), ("timeout", 1)]))
        trace.append((engine.now, name + ".end"))

    for index, steps in enumerate(programs):
        engine.spawn(proc("p%d" % index, steps))
    outcomes = []
    for kind, index, bound in driver:
        limit = None if bound is None else engine.now + bound
        try:
            if kind == "run":
                engine.run(until=limit)
            else:
                outcomes.append(engine.run_until_fired(events[index], deadline=limit))
        except SimulationError as exc:
            outcomes.append(str(exc))
        outcomes.append(engine.now)
    engine.run()
    return trace, outcomes, engine.now


@settings(max_examples=300, deadline=None)
@given(st.lists(_steps, min_size=1, max_size=4), _drivers)
def test_run_ahead_matches_the_heap_only_engine(programs, driver):
    assert _trace(Engine, programs, driver) == _trace(HeapOnlyEngine, programs, driver)
