"""In-memory spans recorded by the benchmark around its calls into each layer.

A span has a name, a start, an end, the id of its parent span and the id
of the operation it belongs to.  Spans stay in memory and are written out
once, when the run ends.  With tracing off the benchmark uses `NullTracer`,
whose spans cost one attribute lookup and one empty context manager.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    enabled = False

    def span(self, name, op=None):
        return nullcontext()

    def count(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []      # [name, start, end, parent_id, op_id]
        self.counts = []     # (name, value, op_id)
        self._stack = []     # ids of open spans
        self._op = None

    @contextmanager
    def span(self, name, op=None):
        if op is not None:
            self._op = op
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts.append((name, value, self._op))

    def self_times(self, ops):
        """Self seconds per span name over the spans of the given operations.

        A span's self time is its duration minus the durations of its
        direct children (the benchmark runs one thread, so children nest
        inside their parent and never overlap each other).
        """
        child = defaultdict(float)
        for name, t0, t1, parent, op in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
            if op in ops:
                out[name] += (t1 - t0) - child[sid]
        return out

    def counted(self, ops):
        out = defaultdict(float)
        for name, value, op in self.counts:
            if op in ops:
                out[name] += value
        return out

    def write(self, path):
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": [list(c) for c in self.counts],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
