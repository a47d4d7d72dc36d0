"""Metrics registry: counters, gauges, and cycle histograms.

Components register named instruments once and bump them on their hot
paths; a :meth:`MetricsRegistry.snapshot` turns the whole registry into
plain data for exporters.  Instruments are deliberately trivial (no
locking, no label sets) — the simulator is single-threaded and
deterministic, so a metric is just a named number whose final value is
itself reproducible.

Metrics never feed back into the simulation: bumping a counter costs
zero simulated cycles and schedules nothing, which is what keeps table
outputs byte-identical whether or not anyone is watching.
"""

from collections import OrderedDict

from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing count (traps, IPIs, grant ops...)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def snapshot(self):
        return {"kind": self.kind, "value": self.value}

    def __repr__(self):
        return "Counter(%r, %d)" % (self.name, self.value)


class Gauge:
    """A point-in-time value (queue depth, LRs in use...)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def snapshot(self):
        return {"kind": self.kind, "value": self.value}

    def __repr__(self):
        return "Gauge(%r, %r)" % (self.name, self.value)


class CycleHistogram:
    """A histogram of cycle costs in power-of-two buckets.

    Bucket key ``b`` counts observations ``v`` with
    ``2**(b-1) < v <= 2**b`` (``b == 0`` counts zeros), so the
    distribution of e.g. per-trap cycle costs is readable without
    storing every sample.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    kind = "histogram"

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = max(0, int(value) - 1).bit_length() if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0

    def snapshot(self):
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                "<=2^%d" % bucket: count
                for bucket, count in sorted(self.buckets.items())
            },
        }

    def __repr__(self):
        return "CycleHistogram(%r, n=%d)" % (self.name, self.count)


#: every instrument kind a snapshot reports
KINDS = tuple(cls.kind for cls in (Counter, Gauge, CycleHistogram))


class MetricsRegistry:
    """All instruments of one machine, keyed by name (get-or-create)."""

    def __init__(self):
        self._instruments = OrderedDict()

    def _get_or_create(self, name, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ConfigurationError(
                "metric %r already registered as %s" % (name, instrument.kind)
            )
        return instrument

    def counter(self, name):
        return self._get_or_create(name, Counter)

    def gauge(self, name):
        return self._get_or_create(name, Gauge)

    def histogram(self, name):
        return self._get_or_create(name, CycleHistogram)

    def __contains__(self, name):
        return name in self._instruments

    def __iter__(self):
        return iter(self._instruments.values())

    def get(self, name):
        return self._instruments.get(name)

    def snapshot(self):
        """Ordered {name: plain-data snapshot} over all instruments.

        Iterates a shallow copy so a concurrent reader (the service's
        ``/v1/metrics`` handler runs on the asyncio thread while the
        broker worker registers instruments) never sees the dict change
        size mid-iteration.
        """
        return OrderedDict(
            (name, instrument.snapshot())
            for name, instrument in list(self._instruments.items())
        )
