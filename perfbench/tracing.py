"""In-memory spans around the benchmark's calls into ``repro``.

A :class:`Tracer` records one span per call into a public layer function
(name, start, end, parent, op id, lane).  Layers reached only inside the
engine get *derived* child spans, laid end to end inside their parent,
whose durations come from what the package returns (``timings`` on
results) or from a differential measurement; they are marked
``derived`` in the trace.  Spans stay in memory and are written as
Chrome trace-event JSON when the run ends.

A disabled tracer records nothing and costs one attribute test per call.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "lane", "derived",
                 "children")

    def __init__(self, name, start, parent, op, lane, derived=False):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.lane = lane
        self.derived = derived
        self.children = 0.0   # seconds covered by direct children

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.op = None
        self.lane = 0

    @contextmanager
    def span(self, name):
        """Time the enclosed call as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), parent, self.op, self.lane)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children += span.duration

    def record(self, name, start, end, lane=0, op=None):
        """A finished root span (open-loop requests, timed elsewhere)."""
        if not self.enabled:
            return None
        span = Span(name, start, None, op, lane)
        span.end = end
        self.spans.append(span)
        return span

    def derive(self, parent, parts):
        """Children of a closed ``parent`` from ``[(name, seconds)]``.

        The parts are laid end to end from the parent's free time; when
        they sum to more than it (per-worker stage seconds of a pool run
        add up across workers) they are scaled down to fit, so a parent's
        self time never goes negative.
        """
        if parent is None:
            return
        parts = [(name, seconds) for name, seconds in parts if seconds > 0]
        free = parent.duration - parent.children
        total = sum(seconds for _, seconds in parts)
        factor = min(1.0, free / total) if total > 0 else 0.0
        cursor = parent.start + parent.children
        for name, seconds in parts:
            child = Span(name, cursor, parent, parent.op, parent.lane,
                         derived=True)
            cursor += seconds * factor
            child.end = cursor
            parent.children += child.duration
            self.spans.append(child)

    # -- summaries ---------------------------------------------------------
    def self_times(self):
        """``{name: (self_seconds, count)}`` over every span."""
        table = {}
        for span in self.spans:
            seconds, count = table.get(span.name, (0.0, 0))
            table[span.name] = (seconds + span.duration - span.children,
                                count + 1)
        return table

    def chrome_trace(self, origin, spans=None):
        """Chrome trace-event JSON (``ph: X`` complete events, in us) of
        ``spans`` (default: this tracer's)."""
        spans = self.spans if spans is None else spans
        index = {id(span): position for position, span in enumerate(spans)}
        events = []
        for position, span in enumerate(spans):
            args = {"id": position, "op": span.op}
            if span.parent is not None:
                args["parent"] = index[id(span.parent)]
            if span.derived:
                args["derived"] = True
            events.append({"name": span.name, "ph": "X", "pid": 1,
                           "tid": span.lane,
                           "ts": round((span.start - origin) * 1e6, 3),
                           "dur": round(span.duration * 1e6, 3),
                           "args": args})
        return json.dumps({"traceEvents": events,
                           "displayTimeUnit": "ms"})
