"""repro.obs — zero-dependency tracing and metrics across every rail.

The observability layer the paper implicitly assumes: the argument of
pipelined temporal blocking is about *where time goes* (sync-window
waits, halo exchange, in-cache block updates), so the runtime must be
able to show exactly that.  Four pieces:

* **Tracer** (:mod:`repro.obs.tracer`) — nestable spans plus monotonic
  counters, a no-op behind a guard variable when disabled
  (the zero-allocation fast path is pinned by a counter-based test).
  ``repro.solve(..., trace=True)`` threads one through the executor,
  the halo exchange, the engine layer and — for the distributed
  backends — every rank, whose traces are shipped back over the
  existing queues and merged onto one timeline under fork *and* spawn.
* **Registry** (:mod:`repro.obs.registry`) — process-wide named
  counters/gauges unifying what used to be ad-hoc module globals
  (``procmpi.SPAWNS_COUNTER``, ``shm.SEGMENTS_COUNTER``, the
  ``ResultCache`` counters, the ``Service`` stats).
* **Exporters** — Chrome ``trace_events`` JSON
  (:func:`write_chrome_trace`, viewable in ``chrome://tracing`` /
  Perfetto), the flat ``SolveResult.metrics`` dict
  (:func:`trace_metrics`), and a ``python -m repro.obs`` CLI to
  dump/summarize/diff trace files.
* **Monitor** (:mod:`repro.obs.monitor`) — the *live* half: policy
  probes, deterministic SLO histograms, a flight recorder of
  recent job traces, straggler detection differential-tested against
  the DES limplock prediction, and OpenMetrics/health exporters wired
  through :class:`repro.serve.Service`.

Typical use::

    res = repro.solve(grid, field, cfg, topology=(1, 1, 2),
                      backend="procmpi", trace=True)
    print(res.metrics["exchange_wait_frac"], res.metrics["spans"])
    repro.obs.write_chrome_trace(res.trace, "solve.json")
"""

from .export import (
    load_chrome_trace,
    span_coverage,
    to_chrome,
    write_chrome_trace,
)
from .metrics import stage_busy, stage_occupancy, trace_metrics
from .monitor import (
    FixedHistogram,
    FlightRecord,
    FlightRecorder,
    Monitor,
    StragglerDetector,
    StragglerPolicy,
    WorkerScore,
    predict_detection_latency,
    predict_limplock_ratio,
    to_openmetrics,
    validate_openmetrics,
)
from .registry import REGISTRY, MetricsRegistry
from .tracer import (
    NULL_SPAN,
    NULL_TRACER,
    SpanRecord,
    Trace,
    Tracer,
    spans_started,
)

__all__ = [
    "Tracer",
    "Trace",
    "SpanRecord",
    "NULL_SPAN",
    "NULL_TRACER",
    "spans_started",
    "MetricsRegistry",
    "REGISTRY",
    "trace_metrics",
    "stage_busy",
    "stage_occupancy",
    "to_chrome",
    "write_chrome_trace",
    "load_chrome_trace",
    "span_coverage",
    "Monitor",
    "FixedHistogram",
    "FlightRecord",
    "FlightRecorder",
    "StragglerDetector",
    "StragglerPolicy",
    "WorkerScore",
    "predict_limplock_ratio",
    "predict_detection_latency",
    "to_openmetrics",
    "validate_openmetrics",
]
