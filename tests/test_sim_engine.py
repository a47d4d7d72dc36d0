"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Engine, Process, Timeout


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


def test_process_return_value_joinable():
    engine = Engine()
    results = []

    def child():
        yield Timeout(4)
        return "payload"

    def parent():
        value = yield engine.spawn(child())
        results.append((engine.now, value))

    engine.spawn(parent())
    engine.run()
    assert results == [(4, "payload")]


def test_join_already_finished_process():
    engine = Engine()
    results = []

    def child():
        yield Timeout(1)
        return 42

    child_proc = engine.spawn(child())

    def parent():
        yield Timeout(10)
        value = yield child_proc
        results.append(value)

    engine.spawn(parent())
    engine.run()
    assert results == [42]


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


def test_event_reset_allows_refire():
    engine = Engine()
    event = engine.event()
    event.fire(1)
    event.reset()
    event.fire(2)
    assert event.value == 2


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


def test_allof_waits_for_every_event():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    got = []

    def waiter():
        values = yield AllOf(events)
        got.append((engine.now, values))

    engine.spawn(waiter())
    engine.schedule(10, lambda: events[1].fire("b"))
    engine.schedule(20, lambda: events[0].fire("a"))
    engine.schedule(30, lambda: events[2].fire("c"))
    engine.run()
    assert got == [(30, ["a", "b", "c"])]


def test_anyof_returns_first_event():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    got = []

    def waiter():
        index, value = yield AnyOf(events)
        got.append((engine.now, index, value))

    engine.spawn(waiter())
    engine.schedule(15, lambda: events[2].fire("late-win"))
    engine.schedule(25, lambda: events[0].fire("loser"))
    engine.run()
    assert got == [(15, 2, "late-win")]


def test_anyof_with_prefired_event():
    engine = Engine()
    events = [engine.event(), engine.event()]
    events[1].fire("pre")
    got = []

    def waiter():
        got.append((yield AnyOf(events)))

    engine.spawn(waiter())
    engine.run()
    assert got == [(1, "pre")]


def test_unsupported_yield_raises():
    engine = Engine()

    def proc():
        yield "not a command"

    engine.spawn(proc())
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
    event.reset()
    with pytest.raises(SimulationError):
        engine.run_until_fired(event)


def test_event_reset_with_pending_callbacks_raises():
    engine = Engine()
    event = engine.event("armed")
    event.on_fire(lambda value: None)
    with pytest.raises(SimulationError):
        event.reset()


def test_event_reset_after_fire_delivers_callbacks_then_allows_reuse():
    engine = Engine()
    event = engine.event()
    seen = []
    event.on_fire(seen.append)
    event.fire("first")
    event.reset()  # fire() consumed the callback list: reset is legal
    event.fire("second")
    assert seen == ["first"]


def test_anyof_later_index_prefired_among_three():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    events[2].fire("pre")
    got = []

    def waiter():
        got.append((yield AnyOf(events)))

    engine.spawn(waiter())
    engine.schedule(5, lambda: events[0].fire("late"))
    engine.run()
    assert got == [(2, "pre")]


def test_anyof_all_prefired_returns_lowest_index():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    for index, event in enumerate(events):
        event.fire("v%d" % index)
    got = []

    def waiter():
        got.append((yield AnyOf(events)))

    engine.spawn(waiter())
    engine.run()
    assert got == [(0, "v0")]


def test_allof_with_prefired_subset_preserves_event_order():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    events[0].fire("a")
    events[2].fire("c")
    got = []

    def waiter():
        values = yield AllOf(events)
        got.append((engine.now, values))

    engine.spawn(waiter())
    engine.schedule(40, lambda: events[1].fire("b"))
    engine.run()
    # Values come back in event order, not firing order.
    assert got == [(40, ["a", "b", "c"])]


def test_allof_all_prefired_resumes_immediately():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(2)]
    events[0].fire(1)
    events[1].fire(2)
    got = []

    def waiter():
        got.append((engine.now, (yield AllOf(events))))

    engine.spawn(waiter())
    engine.run()
    assert got == [(0, [1, 2])]


def test_join_process_that_finished_long_ago():
    engine = Engine()

    def child():
        yield Timeout(2)
        return "stale ok"

    child_proc = engine.spawn(child())
    engine.run()
    got = []

    def parent():
        got.append((yield child_proc))

    engine.spawn(parent())
    engine.run()
    assert got == ["stale ok"]


# --- AnyOf loser-callback lifecycle (regression: callbacks leaked) -------


def test_anyof_losing_event_can_reset_after_race():
    engine = Engine()
    winner, loser = engine.event("winner"), engine.event("loser")
    got = []

    def waiter():
        got.append((yield AnyOf([winner, loser])))

    engine.spawn(waiter())
    engine.schedule(5, lambda: winner.fire("w"))
    engine.run()
    assert got == [(0, "w")]
    # The losing registration must have been cancelled: a long-lived
    # event that lost a race is still resettable without tripping the
    # pending-callback guard, and reusable afterwards.
    loser.reset()
    assert not loser.fired
    loser.fire("later")
    assert loser.value == "later"


def test_anyof_repeated_waits_do_not_accumulate_callbacks():
    engine = Engine()
    winner, loser = engine.event("winner"), engine.event("loser")
    got = []

    def one_round():
        got.append((yield AnyOf([winner, loser])))

    for round_number in range(5):
        engine.spawn(one_round())
        engine.schedule(1, lambda: winner.fire(engine.now))
        engine.run()
        winner.reset()
        # White box: the loser's callback list must stay empty across
        # rounds — the pre-fix engine accumulated one entry per wait.
        assert len(loser._callbacks) == 0
        assert len(winner._callbacks) == 0
    assert len(got) == 5
    assert [index for index, _ in got] == [0] * 5


def test_anyof_fire_then_reset_mid_wait_reuses_cleanly():
    engine = Engine()
    first, second = engine.event("first"), engine.event("second")
    got = []

    def waiter():
        got.append((yield AnyOf([first, second])))

    def fire_reset_refire():
        first.fire("round1")
        first.reset()

    engine.spawn(waiter())
    engine.schedule(3, fire_reset_refire)
    engine.run()
    # The wait was decided by the fire; the reset afterwards is legal
    # because the race cancelled every registration it made.
    assert got == [(0, "round1")]
    assert not first.fired
    # Both events are reusable for a fresh wait.
    engine.spawn(waiter())
    engine.schedule(4, lambda: second.fire("round2"))
    engine.run()
    assert got == [(0, "round1"), (1, "round2")]
    assert len(first._callbacks) == 0 and len(second._callbacks) == 0


def test_anyof_duplicate_membership_of_winner_wakes_once():
    engine = Engine()
    event = engine.event("dup")
    other = engine.event("other")
    got = []

    def waiter():
        got.append((yield AnyOf([event, other, event])))

    engine.spawn(waiter())
    engine.schedule(2, lambda: event.fire("x"))
    engine.run()
    # Lowest index of the duplicated winner, exactly one wake.
    assert got == [(0, "x")]
    assert len(event._callbacks) == 0 and len(other._callbacks) == 0
    other.fire("later")
    other.reset()


def test_allof_duplicate_membership_counts_each_slot():
    engine = Engine()
    repeated, single = engine.event("repeated"), engine.event("single")
    got = []

    def waiter():
        values = yield AllOf([repeated, single, repeated])
        got.append((engine.now, values))

    engine.spawn(waiter())
    engine.schedule(10, lambda: repeated.fire("r"))
    engine.schedule(20, lambda: single.fire("s"))
    engine.run()
    assert got == [(20, ["r", "s", "r"])]


def test_anyof_prefired_tie_lowest_index_wins_with_duplicates():
    engine = Engine()
    event = engine.event("pre")
    event.fire("v")
    got = []

    def waiter():
        got.append((yield AnyOf([event, event])))

    engine.spawn(waiter())
    engine.run()
    assert got == [(0, "v")]


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
