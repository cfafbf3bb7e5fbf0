"""Spans around calls into the package's layers.

A ``Tracer`` replaces public functions by wrappers on the module that
binds and calls them (``minrank.set_perp``, ``covectors.strict_feasibility``,
...), so the package source stays untouched. Each wrapped call records a
span ``[layer, start, end, parent, op]`` in memory; counters that a wrapper
derives from the call's arguments or result accumulate alongside. The
originals are restored when the ``installed`` context ends.
"""

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []

    def wrap(self, layer, fn, count=None):
        """``fn`` recording a span named ``layer`` per call. ``count``, when
        given, is called as ``count(counts, args, kwargs, result, error)``
        after the span closes."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                if count is not None:
                    count(self.counts, args, kwargs, result, error)

        return traced

    @contextmanager
    def installed(self, points):
        """Wrap each ``(module, attribute, layer, count)`` point for the
        duration of the block."""
        saved = []
        try:
            for module, attr, layer, count in points:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per span, its duration minus the part of its interval that its
    direct child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """``{layer: (self seconds, calls)}`` summed over all spans."""
    totals = defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[NAME]]
        entry[0] += own
        entry[1] += 1
    return {layer: tuple(entry) for layer, entry in totals.items()}
