"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (id, name, parent, start, end).  Spans live in a list until the
run ends; ``write`` dumps them together with per-span self times (the
span's duration minus the time its direct children cover).  Nothing in
here touches the program's own code paths except ``Tracer.wrap``, which
swaps a module attribute for a timing shim for the length of a ``with``
block and restores it afterwards.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    @contextmanager
    def wrap(self, targets):
        """Record a span around every call of ``module.attr`` for each
        ``(module, attr, span_name)`` in targets, inside the block."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._shim(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _shim(self, fn, name):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def find(self, name):
        """The first finished span with this name, or None."""
        for record in self.spans:
            if record["name"] == name and record["end"] is not None:
                return record
        return None

    def duration(self, name):
        record = self.find(name)
        return None if record is None else record["end"] - record["start"]

    def self_times(self):
        """Self time of every span, indexed like ``spans``."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_time(self, name):
        record = self.find(name)
        return None if record is None else self.self_times()[record["id"]]

    def write(self, path, extra=None):
        own = self.self_times()
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {
                "id": s["id"],
                "name": s["name"],
                "parent": s["parent"],
                "start_s": s["start"] - t0,
                "end_s": s["end"] - t0,
                "self_s": own[s["id"]],
            }
            for s in self.spans
        ]
        totals = {}
        for row in rows:
            entry = totals.setdefault(row["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += row["end_s"] - row["start_s"]
            entry["self_s"] += row["self_s"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**(extra or {}), "spans": rows, "by_name": totals}, fh, indent=1)


def span(tracer, name):
    """``tracer.span(name)``, or a no-op when tracing is off."""
    return nullcontext() if tracer is None else tracer.span(name)
