"""Flat metrics derived from a trace: the ``SolveResult.metrics`` dict.

The tracer records *events*; this module reduces them to the flat
``{name: float}`` mapping attached to
:attr:`repro.SolveResult.metrics` (and therefore to
``SolveFuture.result().metrics``) and consumed by the perf harness and
the ``python -m repro.obs summarize`` CLI.

Two kinds of values coexist and are named so they cannot be confused:

* **counts** (``spans``, ``sync.blocked_polls``, ``exchange.messages``,
  ...) are deterministic for a fixed problem — the perf harness gates
  on these;
* **seconds / fractions** (``wall_s``, ``exchange_wait_frac``,
  ``stage.N.busy_s``) are host-clock measurements — informational only.
"""

from __future__ import annotations

from typing import Dict

from .export import span_coverage
from .tracer import Trace

__all__ = ["trace_metrics", "stage_busy", "stage_occupancy"]

#: Span names whose durations the summarizer singles out.
EXCHANGE_WAIT = "exchange.recv_wait"
STAGE_SPAN = "block"


def stage_busy(trace: Trace) -> Dict[int, float]:
    """Seconds spent in per-stage block-update spans, by stage."""
    busy: Dict[int, float] = {}
    for s in trace.spans:
        if s.name != STAGE_SPAN:
            continue
        stage = s.arg("stage")
        if stage is None:
            continue
        busy[int(stage)] = busy.get(int(stage), 0.0) + s.duration
    return busy


def stage_occupancy(trace: Trace) -> Dict[int, float]:
    """Each stage's share of the total per-stage busy time.

    Shares (not wall fractions) on purpose: the shared rail *simulates*
    stages on one thread, so wall occupancy would measure the schedule
    interleaver, not the work balance.  Shares are comparable between a
    traced run and the DES prediction.
    """
    busy = stage_busy(trace)
    total = sum(busy.values())
    if total <= 0:
        return {s: 0.0 for s in busy}
    return {s: t / total for s, t in busy.items()}


def trace_metrics(trace: Trace) -> Dict[str, float]:
    """Reduce ``trace`` to the flat metrics dict."""
    out: Dict[str, float] = {}
    out["spans"] = float(len(trace.spans))
    out["wall_s"] = trace.wall
    out["span_coverage"] = span_coverage(trace)
    out["ranks"] = float(len(trace.pids()))
    wait = sum(s.duration for s in trace.spans if s.name == EXCHANGE_WAIT)
    out["exchange_wait_s"] = wait
    out["exchange_wait_frac"] = wait / trace.wall if trace.wall > 0 else 0.0
    for stage, busy in sorted(stage_busy(trace).items()):
        out[f"stage.{stage}.busy_s"] = busy
    for stage, share in sorted(stage_occupancy(trace).items()):
        out[f"stage.{stage}.share"] = share
    for name, value in sorted(trace.counters.items()):
        out[name] = float(value)
    return out
