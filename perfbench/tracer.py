"""Spans and counters recorded from outside the program.

A :class:`Tracer` replaces functions and methods of the program with
wrappers that time each call.  Nothing under ``src/`` changes: the wrappers
are installed on the classes and modules at run time and removed again by
:meth:`Tracer.restore`.

Every wrapped call is a span with a name and a layer.  A layer's *self
time* is the time its spans cover minus the part covered by their child
spans (spans opened while they were open), so nested layers are never
counted twice.  Hot paths (a port send happens hundreds of thousands of
times per run) are aggregated per name; the rarer spans are also kept
whole, with their parent, and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    """Per-layer self time, per-name calls and inclusive time, kept spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.total_s = defaultdict(float)  # span name -> inclusive seconds
        self.calls = Counter()  # span name -> calls
        self.counts = Counter()  # counter name -> value
        #: kept spans: [name, start_s, end_s, parent index or -1]
        self.spans = []
        self._stack = []  # open spans: [child seconds, kept index or -1, start]
        self._installed = []

    # ------------------------------------------------------------------ #
    # Span bookkeeping (also driven directly by the self-test)
    # ------------------------------------------------------------------ #

    def open(self, name: str, keep: bool = False) -> list:
        """Open a span; returns the frame :meth:`close` needs."""
        index = -1
        if keep:
            parent = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [0.0, index, self.clock()]
        self._stack.append(frame)
        if keep:
            self.spans[index][1] = frame[2]
        return frame

    def close(self, frame: list, name: str, layer: str) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        duration = end - frame[2]
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        self.self_s[layer] += duration - frame[0]
        self.total_s[name] += duration
        self.calls[name] += 1
        if frame[1] >= 0:
            self.spans[frame[1]][2] = end
        return duration

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #

    def wrap(self, owner, attr: str, layer: str, name: str = None,
             keep: bool = False, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span of *layer*.

        *on_result(result, args)* runs after each call (counting trees
        built, capturing instances); its cost lands in the parent span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.open(name, keep)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(frame, name, layer)
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path, **extra) -> None:
        """Write the recorded spans and totals (plus *extra*) as JSON."""
        with open(path, "w") as out:
            json.dump(
                {
                    "self_s": dict(self.self_s),
                    "total_s": dict(self.total_s),
                    "calls": dict(self.calls),
                    "counts": dict(self.counts),
                    "spans": self.spans,
                    **extra,
                },
                out,
            )
