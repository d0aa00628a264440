"""In-memory span tracer that wraps public functions where callers look them up.

A span is one call of a wrapped function: its name, start and end
(``perf_counter_ns``), the index of the enclosing span, and an optional key
(the platform, for per-platform latencies). Spans stay in memory until the
run ends. The workload is single-threaded, so spans nest strictly and a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict


class Tracer:
    """Patches attributes with timing wrappers; ``restore`` undoes every patch."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One list per span: [name_id, start_ns, end_ns, parent_index, key].
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.start_ns = 0
        self.stop_ns = 0

    def wrap(self, name: str, fn, count=None, key=None):
        """Return ``fn`` wrapped in a span named ``name``.

        Args:
            count: called as ``count(counts, args, result)`` after the span
                closes, to add work counts at the same boundary.
            key: called as ``key(args)``; its value is stored on the span.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name_id, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            if key is not None:
                record[4] = key(args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str, count=None, key=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, key))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def start(self) -> None:
        self.start_ns = time.perf_counter_ns()

    def stop(self) -> None:
        self.stop_ns = time.perf_counter_ns()

    @property
    def wall_ns(self) -> int:
        return self.stop_ns - self.start_ns

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_ns, per-call durations, durations by key."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "self_ns": 0, "durations_ns": [],
                      "by_key": defaultdict(list)} for name in self.names}
        for i, (name_id, start, end, _, key) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            entry["durations_ns"].append(end - start)
            if key is not None:
                entry["by_key"][key].append(end - start)
        return out

    def write(self, path) -> None:
        """Dump every span as CSV: name,start_ns,end_ns,parent,key."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,key\n")
            for name_id, start, end, parent, key in self.spans:
                fh.write(f"{self.names[name_id]},{start},{end},{parent},{key or ''}\n")


def median_us(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0
