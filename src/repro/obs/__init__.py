"""Structured observability over the simulation: spans, metrics, exports.

One :class:`Observability` instance belongs to each simulated machine
(``machine.obs``) and bundles:

* a :class:`~repro.obs.spans.SpanRecorder` — the model's one
  cycle-recording layer: nested, wall-positioned cycle attribution
  recorded at engine ``now``.  Table III and the delivery occupancy
  are read from its leaf spans;
* a :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  cycle histograms components register into (traps, world switches,
  IPIs, grant ops, vhost kicks...);
* exporters (:mod:`repro.obs.export`) — Chrome trace-event / Perfetto
  JSON and text renderers.

Hard invariant: with observability *disabled* (the default) nothing in
this package runs on simulation paths beyond a single flag check, and
nothing here ever adds simulated cycles or schedules events — table
outputs are byte-identical whether or not anyone is watching (enforced
by tests/test_obs_invariance.py).
"""

from repro.obs.metrics import (
    Counter,
    CycleHistogram,
    Gauge,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanRecorder


class Observability:
    """Per-machine bundle of span recorder + metrics registry."""

    def __init__(self, engine):
        self.engine = engine
        self.spans = SpanRecorder(lambda: engine.now, enabled=False)
        self.metrics = MetricsRegistry()

    @property
    def enabled(self):
        return self.spans.enabled

    def enable(self, trace_resume=False):
        """Turn span recording on.

        Each closed span's duration feeds a per-category cycle histogram
        (``span_cycles.<category>``).  ``trace_resume`` additionally
        marks every process resume on the engine track (opt-in: it is
        high-volume).
        """
        self.spans.enabled = True
        self.spans.on_close = self._observe_span
        if trace_resume:
            self.engine.observer = self

    def disable(self):
        self.spans.enabled = False
        self.spans.on_close = None
        if self.engine.observer is self:
            self.engine.observer = None

    def process_resumed(self, process):
        """Engine hook (see ``Engine.observer``): mark a process resume."""
        self.spans.instant("resume:%s" % process.name, category="engine")

    def _observe_span(self, span):
        self.metrics.histogram(
            "span_cycles.%s" % (span.category or "uncategorized")
        ).observe(span.duration)


__all__ = [
    "Counter",
    "CycleHistogram",
    "Gauge",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanRecorder",
]
