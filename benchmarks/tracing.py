"""In-memory spans around calls into bloomtree's public functions.

A span is [name, start_ns, end_ns, parent, query_id, count]: ``parent`` is
the index of the enclosing span (or None), ``count`` the number of units of
work it covers (elements inserted, leaves hashed). Spans are recorded by the
benchmark's own code; nothing inside the library is instrumented.

Calls into the lower layers happen inside ``tree`` and ``codec`` functions,
where a span cannot reach. The traced run therefore calls the lower-layer
function again, directly, on the same inputs the upper one received, and
records that as a child of the upper span (a *replica*). A span's self time
is its duration minus the durations of its children, so ``tree.prove``'s
self time is what is left after the ``bloom.indices`` and
``merkle.prove_multi`` work it contains.
"""

import json
import statistics
from time import perf_counter_ns


class Tracer:
    """Times calls; when enabled, also keeps one span per call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counters: dict[str, list[float]] = {}

    def call(self, name, fn, *args, parent=None, query=None, count=1):
        """Run fn(*args); return (result, elapsed ns)."""
        start = perf_counter_ns()
        result = fn(*args)
        end = perf_counter_ns()
        if self.enabled:
            self.spans.append([name, start, end, parent, query, count])
        return result, end - start

    @property
    def last(self) -> int:
        """Index of the most recent span, to pass as a child's parent."""
        return len(self.spans) - 1

    def rename_last(self, name: str) -> None:
        if self.enabled:
            self.spans[-1][0] = name

    def open(self, name, parent=None, query=None):
        if not self.enabled:
            return None
        self.spans.append([name, perf_counter_ns(), None, parent, query, 1])
        return self.last

    def close(self, span) -> None:
        if span is not None:
            self.spans[span][2] = perf_counter_ns()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters.setdefault(name, []).append(value)

    def per_unit_us(self, name: str) -> float:
        """Mean microseconds per unit of work over every span of this name."""
        spans = [s for s in self.spans if s[0] == name]
        units = sum(s[5] for s in spans)
        return sum(s[2] - s[1] for s in spans) / units / 1e3 if units else 0.0

    def self_us(self, name: str) -> float:
        """Mean self time of the spans of this name, in microseconds."""
        child_ns: dict[int, int] = {}
        for name_, start, end, parent, _query, _count in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        selves = [s[2] - s[1] - child_ns.get(i, 0) for i, s in enumerate(self.spans) if s[0] == name]
        return statistics.fmean(selves) / 1e3 if selves else 0.0

    def counter_mean(self, name: str) -> float:
        values = self.counters.get(name)
        return statistics.fmean(values) if values else 0.0

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span_id, (name, start, end, parent, query, count) in enumerate(self.spans):
                record = {"id": span_id, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "query": query}
                if count != 1:
                    record["count"] = count
                handle.write(json.dumps(record) + "\n")
