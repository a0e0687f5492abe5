"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: name, start, end, parent span and
the unit (set-up or job) it ran in.  Spans nest strictly, because the
benchmark is single-threaded, so a span's self time is its duration minus
the summed durations of its direct children.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict

_OFF = contextlib.nullcontext()


class Tracer:
    """Records spans while ``active``; otherwise ``span`` is a no-op.

    ``enabled`` marks a traced run, in which callers may also instrument
    functions with ``wrap``.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or None, unit]
        self.active = False
        self.unit = None
        self._stack = []

    def begin(self, unit, active):
        self.unit = unit
        self.active = active

    def span(self, name):
        return self._span(name) if self.active else _OFF

    @contextlib.contextmanager
    def _span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.unit]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name, fn):
        """``fn`` with each call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self):
        """{unit: {span name: summed self time}} over all recorded spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, unit) in enumerate(self.spans):
            out[unit][name] += end - start - child_time[i]
        return out

    def write(self, path, origin):
        """One JSON object per span, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "unit": unit,
                        }
                    )
                    + "\n"
                )
