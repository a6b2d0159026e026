"""The tracer: nestable spans plus monotonic counters.

Design constraints, in order:

1. **Disabled tracing must cost nothing measurable.**  Every
   instrumentation point goes through a guard variable
   (:attr:`Tracer.enabled`) checked *first*; when it is false,
   :meth:`Tracer.span` returns the shared :data:`NULL_SPAN` singleton —
   no object is allocated, no clock is read, no lock is taken.  The
   module-level :func:`spans_started` counter increments only when a
   *real* span is created, which is what lets the test suite pin the
   no-op fast path with a counter assertion instead of a flaky
   wall-clock benchmark.
2. **Traces must survive process boundaries.**  A finished
   :class:`Trace` is a plain dataclass of primitives, picklable under
   every :mod:`multiprocessing` start method, so procmpi rank traces
   ride the existing result queues back to rank 0, where
   :meth:`Tracer.absorb` merges them onto one timeline.
3. **Span enter/exit must pair.**  Spans are context managers and the
   project lint (``python -m repro.analysis lint``) enforces that every
   ``.span(...)`` call in instrumented modules is the context expression
   of a ``with`` statement, so an exception can never leave a span open.

Timestamps come from :func:`time.perf_counter` and are *tracer-local*:
only differences within one tracer are meaningful.  Merging traces from
other processes therefore re-bases them (``Trace.shifted``) against an
anchor the parent recorded — correct under fork *and* spawn, where the
child's clock origin is not otherwise comparable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["SpanRecord", "Trace", "Tracer", "NULL_SPAN", "NULL_TRACER",
           "spans_started"]

_alloc_lock = threading.Lock()
_spans_started = 0


def spans_started() -> int:
    """Real span objects allocated process-wide since import.

    The no-op fast path never touches this counter, so "tracing off
    allocates nothing" is an exact equality test, not a timing test.
    """
    return _spans_started


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


#: The singleton no-op span; identity-testable by the fast-path test.
NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (picklable, JSON-friendly primitives only)."""

    name: str
    cat: str
    pid: int
    tid: int
    start: float  # tracer-local seconds (perf_counter)
    end: float
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def arg(self, key: str, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default


@dataclass
class Trace:
    """Everything one tracer recorded: spans, counters, process labels.

    ``processes`` maps pid -> human label for the Chrome exporter's
    metadata events; after a distributed merge there is one entry per
    rank plus the driver.
    """

    spans: List[SpanRecord] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    processes: Dict[int, str] = field(default_factory=dict)

    @property
    def start(self) -> float:
        return min((s.start for s in self.spans), default=0.0)

    @property
    def end(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    @property
    def wall(self) -> float:
        return self.end - self.start

    def pids(self) -> List[int]:
        return sorted({s.pid for s in self.spans})

    def shifted(self, dt: float, pid: Optional[int] = None) -> "Trace":
        """A copy with every timestamp moved by ``dt`` (and pid retagged).

        This is the re-basing primitive the distributed merge uses: a
        child process's clock origin is arbitrary, so its spans are
        slid onto the parent's timeline before absorption.
        """
        spans = [SpanRecord(name=s.name, cat=s.cat,
                            pid=(pid if pid is not None else s.pid),
                            tid=s.tid, start=s.start + dt, end=s.end + dt,
                            args=s.args)
                 for s in self.spans]
        procs = ({pid: lbl for _, lbl in self.processes.items()}
                 if pid is not None else dict(self.processes))
        return Trace(spans=spans, counters=dict(self.counters),
                     processes=procs)


class _Span:
    """A live span; records itself into the tracer on ``__exit__``."""

    __slots__ = ("_tracer", "name", "cat", "tid", "args", "start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int,
                 args: Tuple[Tuple[str, object], ...]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        self._tracer._record(SpanRecord(
            name=self.name, cat=self.cat, pid=self._tracer.pid,
            tid=self.tid, start=self.start, end=end, args=self.args))
        return False


class _ThreadBuffer:
    """One thread's private span/counter sink inside a shared tracer."""

    __slots__ = ("records", "counters")

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}


class Tracer:
    """Collects spans and monotonic counters for one process.

    Thread-safe *and* contention-free on the hot path: the simmpi
    transport runs one rank per thread against per-rank tracers, the
    serving layer's worker threads may share one, and the
    ``backend="threads"`` executor has every pipeline stage recording
    into the **same** tracer concurrently.  Span records and counter
    bumps therefore go to per-thread buffers (``threading.local``),
    registered once per thread under the lock and merged by
    :meth:`finish` — a shared list behind one lock would serialise the
    stage threads on exactly the code that is supposed to measure their
    overlap, and unlocked sharing loses updates.  Within a thread the
    buffer preserves completion order, so single-threaded traces are
    byte-for-byte what the shared-list implementation produced.

    Process labels and :meth:`absorb` stay under the lock — they are
    rare.

    Disabled tracers (``enabled=False``) are permanent no-ops —
    :data:`NULL_TRACER` is the shared instance every instrumented code
    path defaults to, so hot loops carry exactly one attribute load and
    one branch when tracing is off.
    """

    def __init__(self, pid: int = 0, enabled: bool = True,
                 label: Optional[str] = None) -> None:
        self.pid = pid
        self.enabled = enabled
        self._records: List[SpanRecord] = []  # absorbed child spans only
        self._counters: Dict[str, float] = {}  # absorbed child counters only
        self._processes: Dict[int, str] = {}
        if label is not None:
            self._processes[pid] = label
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: List[_ThreadBuffer] = []  # registration order

    # -- hot path ---------------------------------------------------------------

    def span(self, name: str, cat: str = "", tid: int = 0, **args):
        """A context-manager span; the no-op singleton when disabled."""
        if not self.enabled:
            return NULL_SPAN
        global _spans_started
        with _alloc_lock:
            _spans_started += 1
        return _Span(self, name, cat, tid, tuple(args.items()))

    def count(self, name: str, n: float = 1) -> None:
        """Bump a monotonic counter (no-op when disabled)."""
        if not self.enabled:
            return
        counters = self._buffer().counters
        counters[name] = counters.get(name, 0) + n

    # -- assembly ---------------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        """This thread's private buffer, registered on first use.

        The buffer outlives its thread — the registry list keeps the
        reference, so :meth:`finish` still sees spans recorded by stage
        threads that have already been joined.
        """
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _record(self, record: SpanRecord) -> None:
        self._buffer().records.append(record)

    def absorb(self, trace: Trace, pid: int, at: float,
               label: Optional[str] = None) -> None:
        """Merge a child process's trace onto this tracer's timeline.

        ``at`` is this tracer's clock reading when the child was
        dispatched; the child's earliest span is aligned to it, which
        makes the merge correct under fork *and* spawn (the child's
        clock origin is never assumed comparable).  Counters add up.
        """
        if not self.enabled or trace is None:
            return
        child = trace.shifted(at - trace.start, pid=pid)
        with self._lock:
            self._records.extend(child.spans)
            for k, v in child.counters.items():
                self._counters[k] = self._counters.get(k, 0) + v
            self._processes[pid] = label if label is not None else f"pid {pid}"

    def finish(self) -> Trace:
        """Snapshot everything recorded so far into a picklable Trace.

        Merges the per-thread buffers (in thread-registration order,
        each preserving its thread's completion order) after the
        absorbed child-process spans.  Non-destructive and idempotent:
        buffers are read, never cleared, so a second ``finish`` returns
        a superset snapshot, as before.
        """
        with self._lock:
            spans = list(self._records)
            counters = dict(self._counters)
            for buf in self._buffers:
                spans.extend(buf.records)
                for k, v in buf.counters.items():
                    counters[k] = counters.get(k, 0) + v
            return Trace(spans=spans,
                         counters=counters,
                         processes=dict(self._processes))


#: The process-wide disabled tracer instrumented code defaults to.
NULL_TRACER = Tracer(enabled=False)
