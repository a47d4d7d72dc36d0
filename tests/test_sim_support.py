"""Unit tests for channels and the clock."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import Channel, Clock, Engine


class TestChannel:
    def test_put_then_get(self):
        engine = Engine()
        channel = Channel(engine, "c")
        got = []

        def consumer():
            item = yield from channel.get()
            got.append((engine.now, item))

        channel.put("x")
        engine.spawn(consumer())
        engine.run()
        assert got == [(0, "x")]

    def test_get_blocks_until_put(self):
        engine = Engine()
        channel = Channel(engine, "c")
        got = []

        def consumer():
            item = yield from channel.get()
            got.append((engine.now, item))

        engine.spawn(consumer())
        engine.schedule(42, lambda: channel.put("late"))
        engine.run()
        assert got == [(42, "late")]

    def test_fifo_ordering_across_getters(self):
        engine = Engine()
        channel = Channel(engine, "c")
        got = []

        def consumer(tag):
            item = yield from channel.get()
            got.append((tag, item))

        engine.spawn(consumer("first"))
        engine.spawn(consumer("second"))
        engine.schedule(1, lambda: channel.put("a"))
        engine.schedule(2, lambda: channel.put("b"))
        engine.run()
        assert got == [("first", "a"), ("second", "b")]


class TestClock:
    def test_round_trip_us(self):
        clock = Clock(2.4e9)
        cycles = clock.cycles_from_us(41.8)
        assert clock.us_from_cycles(cycles) == pytest.approx(41.8, rel=1e-6)

    def test_known_conversion(self):
        clock = Clock(2.4e9)  # ARM m400 frequency from the paper
        assert clock.cycles_from_us(1) == 2400
        assert clock.ns_from_cycles(2400) == pytest.approx(1000.0)

    def test_negative_time_clamps_to_zero(self):
        assert Clock(1e9).cycles_from_ns(-5) == 0

    def test_invalid_frequency(self):
        with pytest.raises(ConfigurationError):
            Clock(0)

