"""In-memory span recorder that wraps shearks functions from the outside.

A span is ``[name, start_ns, end_ns, parent]`` with ``parent`` the index of
the enclosing span (-1 for a root).  Times are integer nanoseconds from
``time.perf_counter_ns`` so that the self-time arithmetic below is exact:
the self times of a tree add up to its root's duration with no rounding.

Nothing inside the package is edited.  ``Tracer.patch`` replaces a function
in its defining namespace and in every ``shearks`` module that imported it
by name, so ``from .spectral import hermitize`` call sites are traced too.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        """fn inside a span; after(tracer, args, result) may count or rewrap."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            return result if after is None else after(self, args, result)
        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> bool:
        """Trace owner.attr and every alias of it in loaded shearks modules.

        Returns False when the attribute does not exist, so a renamed
        function shows up as a missing target rather than an error.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapper = self.wrap(original, name, after)
        holders = [owner] + [module for key, module in list(sys.modules.items())
                             if (key == "shearks" or key.startswith("shearks."))
                             and module is not owner]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)
        return True

    def restore(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)


def self_times(spans) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def totals_by_name(spans) -> dict[str, tuple[int, int]]:
    """name -> (summed self time in ns, number of spans)."""
    out: dict[str, tuple[int, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        ns, calls = out.get(span[0], (0, 0))
        out[span[0]] = (ns + own, calls + 1)
    return out
