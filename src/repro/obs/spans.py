"""Nested spans: wall-positioned cycle attribution over the DES.

A :class:`Span` covers a half-open cycle interval ``[start, end)`` of
engine time and may contain child spans.  Spans are the model's one
cycle-recording layer: every costed ``pcpu.op`` step becomes a leaf
span, so Table III (leaf totals by label) and the delivery occupancy
(leaf cycles on one pcpu) are read from them.  Spans also record
*where* on the timeline work happened (start/end are read from the
engine's ``now``), so a Chrome-trace/Perfetto export shows real wall
positions, not just durations.

Nesting is tracked per ``pcpu`` tag: each physical CPU is one "thread"
of the trace (one stack of open spans), which matches how the simulator
interleaves work — a PCPU executes exactly one context at a time, while
different PCPUs overlap freely.  Spans without a pcpu tag (engine-level
instrumentation) live on their own track.

The recorder is disabled by default and every entry point returns
immediately when disabled, so instrumented paths cost one attribute
check when observability is off.
"""

from collections import OrderedDict

from repro.errors import SimulationError


class Span:
    """One named interval of simulated time, possibly with children."""

    __slots__ = ("name", "category", "pcpu", "start", "end", "parent", "children")

    def __init__(self, name, category="", pcpu=None, start=0):
        self.name = name
        self.category = category
        self.pcpu = pcpu
        self.start = start
        self.end = None
        self.parent = None
        self.children = []

    @property
    def closed(self):
        return self.end is not None

    @property
    def duration(self):
        """Total cycles covered (0 while the span is still open)."""
        if self.end is None:
            return 0
        return self.end - self.start

    @property
    def self_cycles(self):
        """Cycles not covered by any child span.

        Only meaningful once the span and all its children are closed: an
        open child has no end yet, so counting it as 0 cycles would
        silently over-attribute its time to this span (and could report
        ``self_cycles`` exceeding ``duration``).  Raises on open spans;
        use :meth:`self_cycles_at` for mid-flight inspection.
        """
        if self.end is None:
            raise SimulationError(
                "self_cycles on open span %r; close it first or use "
                "self_cycles_at(now)" % (self.name,)
            )
        for child in self.children:
            if child.end is None:
                raise SimulationError(
                    "self_cycles on span %r with open child %r; close it "
                    "first or use self_cycles_at(now)" % (self.name, child.name)
                )
        return self.duration - sum(child.duration for child in self.children)

    def duration_at(self, now):
        """Cycles covered so far, clamping an open end at ``now``."""
        end = self.end if self.end is not None else now
        return max(0, end - self.start)

    def self_cycles_at(self, now):
        """Mid-flight ``self_cycles``: open spans are clamped at ``now``."""
        return self.duration_at(now) - sum(
            child.duration_at(now) for child in self.children
        )

    @property
    def is_leaf(self):
        return not self.children

    def walk(self):
        """Yield this span and all descendants, depth-first, in order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        tail = "open" if self.end is None else "%d cycles" % self.duration
        return "Span(%r, %r, pcpu=%r, %s)" % (self.name, self.category, self.pcpu, tail)


class SpanRecorder:
    """Collects nested spans at engine time; one open-span stack per pcpu.

    ``begin``/``end`` bracket composite work (a world switch, a whole
    hypercall); ``step`` records a leaf of known cost starting now (the
    shape of ``pcpu.op``); ``instant`` records a zero-width marker.
    """

    def __init__(self, now_fn, enabled=False):
        self._now = now_fn
        self.enabled = enabled
        self.roots = []
        self._stacks = {}
        #: optional hook called with every closed span (metrics feeding)
        self.on_close = None

    def begin(self, name, category="", pcpu=None):
        """Open a span at the current engine time; returns it (or None
        when disabled — ``end(None)`` is a no-op, so instrumented paths
        never need their own enabled checks)."""
        if not self.enabled:
            return None
        span = Span(name, category, pcpu, start=self._now())
        self._attach(span, pcpu)
        self._stacks.setdefault(pcpu, []).append(span)
        return span

    def end(self, span):
        """Close ``span`` at the current engine time.

        Spans must close innermost-first on their pcpu track; anything
        else means the instrumentation is mis-bracketed.
        """
        if span is None:
            return None
        stack = self._stacks.get(span.pcpu)
        if not stack or stack[-1] is not span:
            raise SimulationError(
                "mis-nested span end: %r is not the innermost open span "
                "on pcpu %r" % (span.name, span.pcpu)
            )
        stack.pop()
        span.end = self._now()
        if self.on_close is not None:
            self.on_close(span)
        return span

    def step(self, label, cycles, category="", pcpu=None):
        """Record a leaf span of ``cycles`` starting at the current time.

        ``pcpu.op`` calls it just before yielding the step's Timeout, so
        the interval ``[now, now + cycles)`` is exactly when the step
        executes.
        """
        if not self.enabled:
            return None
        now = self._now()
        span = Span(label, category, pcpu, start=now)
        span.end = now + cycles
        self._attach(span, pcpu)
        if self.on_close is not None:
            self.on_close(span)
        return span

    def instant(self, name, category="", pcpu=None):
        """Record a zero-width marker (e.g. a process resume)."""
        return self.step(name, 0, category, pcpu)

    def record_window(self, run):
        """Call ``run()`` with recording on; return ``(result, roots)``.

        ``roots`` are the root spans recorded during the call (spans
        opened inside a span that was already open are not among them).
        The recorder is left on or off as the caller had it; when it was
        off, the window's spans are dropped again afterwards.
        """
        enabled, self.enabled = self.enabled, True
        first = len(self.roots)
        try:
            result = run()
            window = self.roots[first:]
        finally:
            self.enabled = enabled
            if not enabled:
                del self.roots[first:]
        return result, window

    def _attach(self, span, pcpu):
        stack = self._stacks.get(pcpu)
        if stack:
            span.parent = stack[-1]
            stack[-1].children.append(span)
        else:
            self.roots.append(span)

    @property
    def open_spans(self):
        """All currently open spans across every pcpu track."""
        return [span for stack in self._stacks.values() for span in stack]

    def iter_spans(self, roots=None):
        """All spans under ``roots`` (default: every recorded root),
        depth-first from each root, in order."""
        for root in self.roots if roots is None else roots:
            yield from root.walk()

    def leaf_totals(self, category=None, roots=None):
        """Ordered {label: total cycles} over leaf spans under ``roots``
        (default: all), optionally filtered by category — the Table III
        view."""
        totals = OrderedDict()
        for span in self.iter_spans(roots):
            if not span.is_leaf:
                continue
            if category is not None and span.category != category:
                continue
            totals[span.name] = totals.get(span.name, 0) + span.duration
        return totals

    def clear(self):
        """Drop all recorded spans (open spans included)."""
        self.roots = []
        self._stacks = {}
