"""In-memory spans around the benchmark's calls into upse's layers.

A span is [name, start, end, parent, task]. Names are "<layer>.<function>",
optionally followed by ":<tag>" (a size or shape), so a layer's self time is
the total duration of its spans minus the part that their child spans cover.
Spans of one task share its index. They are kept in memory and summarised
when the run ends; nothing is written while tasks are timed.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("geometry", "digraph", "embedder", "checker", "constructions",
          "fileio", "render", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.task = -1

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, self.task])
        self._open.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.spans[idx][1] = start
            self._open.pop()

    def self_times(self, scale: list[float]) -> dict[str, float]:
        """Self time per layer over all spans, each span's time multiplied by
        scale[its task]."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, task) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start - child[i]) * scale[task]
        return out


def call(tr: Tracer | None, name: str, fn, *args, **kwargs):
    """fn(*args) inside a span named name when tracing, a plain call otherwise."""
    if tr is None:
        return fn(*args, **kwargs)
    return tr.call(name, fn, *args, **kwargs)
