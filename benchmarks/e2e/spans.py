"""The benchmark's own spans, and the read-only self-time reduction.

Two span sources feed the per-layer numbers and neither touches
``src/``: spans this file records around calls into each layer's public
functions, and the spans ``solve(trace=True)`` already returns.  Both
are plain ``name/pid/tid/start/end`` records, so one reduction serves.

Self time of a span is its duration minus the part of that interval its
direct children cover (interval union, so two stage threads busy at
once are not subtracted twice).  A span's parent is the innermost span
open on its own ``(pid, tid)``; a thread's outermost span hangs off the
innermost span open on ``(pid, 0)`` and then ``(0, 0)`` — the repo tags
simulated stages ``tid = stage + 1`` under a ``pass`` on tid 0, and
merged rank traces ``pid = rank + 1`` under the driver's ``solve`` on
pid 0.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    pid: int = 0
    tid: int = 0
    parent: Optional[str] = None
    workload: Optional[str] = None


class BenchSpans:
    """In-memory span recorder; written once, when the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].name if self._open else None
        s = Span(name, time.perf_counter(), 0.0, parent=parent,
                 workload=self.workload)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self.spans.append(s)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans], indent=1))


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Iterable) -> List[Tuple[object, float]]:
    """``(span, self_seconds)`` for every span, in start order."""
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    stacks: Dict[Tuple[int, int], list] = {}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in ordered:
        parent = None
        for key in dict.fromkeys(((s.pid, s.tid), (s.pid, 0), (0, 0))):
            stack = stacks.setdefault(key, [])
            while stack and stack[-1].end <= s.start:
                stack.pop()
            if stack:
                parent = stack[-1]
                break
        if parent is not None:
            children.setdefault(id(parent), []).append(
                (s.start, min(s.end, parent.end)))
        stacks.setdefault((s.pid, s.tid), []).append(s)
    return [(s, (s.end - s.start) - _union(children.get(id(s), [])))
            for s in ordered]


def self_time_by_name(spans: Iterable) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for s, self_s in self_times(spans):
        out[s.name] = out.get(s.name, 0.0) + self_s
    return out
