"""Chrome ``trace_events`` exporter and loader.

Writes the JSON Object Format understood by ``chrome://tracing`` /
Perfetto: a ``traceEvents`` array of complete ("X") events with
microsecond timestamps, plus metadata ("M") events naming the process
rows (driver, rank 0, rank 1, ...).  Counters travel in the spec's
free-form ``otherData`` so a dumped file round-trips through
:func:`load_chrome_trace` without loss (the schema test pins this).

Timestamps are re-based to the trace's earliest span, so files start at
``ts == 0`` regardless of the host's clock origin.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from .tracer import SpanRecord, Trace

__all__ = ["to_chrome", "from_chrome", "write_chrome_trace",
           "load_chrome_trace", "span_coverage"]

_US = 1e6  # trace_events timestamps are microseconds


def to_chrome(trace: Trace) -> Dict[str, object]:
    """The ``chrome://tracing`` JSON document for ``trace``."""
    t0 = trace.start
    events: List[Dict[str, object]] = []
    processes = dict(trace.processes)
    for pid in trace.pids():
        processes.setdefault(pid, f"pid {pid}")
    for pid in sorted(processes):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": processes[pid]}})
    for s in trace.spans:
        events.append({
            "name": s.name,
            "cat": s.cat or "repro",
            "ph": "X",
            "ts": (s.start - t0) * _US,
            "dur": s.duration * _US,
            "pid": s.pid,
            "tid": s.tid,
            "args": {k: v for k, v in s.args},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": dict(trace.counters),
        },
    }


def from_chrome(doc: Dict[str, object]) -> Trace:
    """Rebuild a :class:`Trace` from a ``trace_events`` document."""
    events = doc.get("traceEvents", [])
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    spans: List[SpanRecord] = []
    processes: Dict[int, str] = {}
    for ev in events:
        ph = ev.get("ph")
        if ph == "M" and ev.get("name") == "process_name":
            processes[int(ev.get("pid", 0))] = str(
                ev.get("args", {}).get("name", ""))
        elif ph == "X":
            start = float(ev["ts"]) / _US
            spans.append(SpanRecord(
                name=str(ev["name"]), cat=str(ev.get("cat", "")),
                pid=int(ev.get("pid", 0)), tid=int(ev.get("tid", 0)),
                start=start, end=start + float(ev.get("dur", 0.0)) / _US,
                args=tuple(sorted(dict(ev.get("args", {})).items()))))
    other = doc.get("otherData", {}) or {}
    return Trace(spans=spans,
                 counters=dict(other.get("counters", {})),
                 processes=processes)


def write_chrome_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` as ``chrome://tracing`` JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome(trace), indent=1, sort_keys=True),
                    encoding="utf-8")
    return path


def load_chrome_trace(path: Union[str, Path]) -> Trace:
    """Load a file written by :func:`write_chrome_trace`."""
    return from_chrome(json.loads(Path(path).read_text(encoding="utf-8")))


def span_coverage(trace: Trace) -> float:
    """Fraction of the trace's wall interval covered by >= 1 span.

    The acceptance bar for instrumented solves: the interval union of
    all spans must cover at least 95% of ``[trace.start, trace.end]``
    (the root span alone nearly guarantees it; this measures that no
    exporter or merge step dropped it).
    """
    if not trace.spans:
        return 0.0
    intervals = sorted((s.start, s.end) for s in trace.spans)
    total = trace.wall
    if total <= 0:
        return 1.0
    covered = 0.0
    cur_s, cur_e = intervals[0]
    for s, e in intervals[1:]:
        if s > cur_e:
            covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    covered += cur_e - cur_s
    return covered / total
