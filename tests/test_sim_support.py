"""Unit tests for channels, clock and RNG."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import Channel, Clock, DeterministicRng, Engine


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

    def test_get_nowait_empty_raises(self):
        channel = Channel(Engine(), "c")
        with pytest.raises(SimulationError):
            channel.get_nowait()

    def test_len_and_peek(self):
        channel = Channel(Engine(), "c")
        channel.put(1)
        channel.put(2)
        assert len(channel) == 2
        assert channel.peek() == 1
        assert channel.get_nowait() == 1


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


class TestRng:
    def test_streams_are_reproducible(self):
        a = DeterministicRng(seed=7)
        b = DeterministicRng(seed=7)
        assert [a.uniform("x", 0, 1) for _ in range(5)] == [
            b.uniform("x", 0, 1) for _ in range(5)
        ]

    def test_streams_are_independent(self):
        rng = DeterministicRng(seed=7)
        first = rng.uniform("x", 0, 1)
        rng2 = DeterministicRng(seed=7)
        rng2.uniform("y", 0, 1)  # draw from another stream first
        assert rng2.uniform("x", 0, 1) == first

    def test_different_seeds_differ(self):
        assert DeterministicRng(1).uniform("x", 0, 1) != DeterministicRng(2).uniform("x", 0, 1)

    def test_randint_bounds(self):
        rng = DeterministicRng()
        for _ in range(100):
            assert 3 <= rng.randint("r", 3, 9) <= 9
