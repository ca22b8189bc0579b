"""Spans recorded from outside bihyper, around calls into its public names.

A :class:`Tracer` wraps callables.  Each call opens a frame on a stack;
when it returns, its duration goes to the parent frame as child time, so
self time is the duration minus the time its children covered.  Every
name keeps per-name totals (calls, total seconds, self seconds).  Names
not marked hot also keep one span per call (name, start, end, parent span,
op id), held in memory and written out by :meth:`Tracer.write`.  Hot names
are the boundaries crossed thousands of times per op; for them only the
totals are kept, which keeps memory and the written file small.

:func:`patched` installs wrappers on module attributes, such as
``bihyper.colorings.Partition``, and restores the originals on exit.  A
name that no longer exists is skipped and reported back, so the metrics
built on it can be reported as absent.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int, float]] = []
        self.totals: dict[str, list[float]] = {}
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, fn, name: str, hot: bool = False):
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                totals[0] += 1
                totals[1] += duration
                totals[2] += own
                if not hot:
                    self.spans.append((frame[0], name, start, end, parent, self.op, own))

        return traced

    def durations(self, name: str) -> list[float]:
        """Per-call durations of a span name that is not hot, in call order."""
        return [end - start for _, n, start, end, _, _, _ in self.spans if n == name]

    def total(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) for ``name``; zeros if never called."""
        calls, total, own = self.totals.get(name, (0, 0.0, 0.0))
        return int(calls), total, own

    def write(self, path) -> None:
        """Write spans as JSON lines, then one line of per-name totals."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op, own in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op, "self": own}) + "\n")
            out.write(json.dumps({"totals": {name: {"calls": int(t[0]), "total_s": t[1],
                                                    "self_s": t[2]}
                                             for name, t in sorted(self.totals.items())}}) + "\n")


@contextmanager
def patched(tracer: Tracer, targets):
    """Wrap ``(module, attribute, span name, hot)`` targets; yield the names that are missing."""
    saved = []
    missing = []
    for module, attr, name, hot in targets:
        if not hasattr(module, attr):
            missing.append(name)
            continue
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, hot))
    try:
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
