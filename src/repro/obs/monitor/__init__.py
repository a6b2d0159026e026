"""repro.obs.monitor — live health monitoring for the serving fleet.

Where the rest of :mod:`repro.obs` explains a run *after the fact*
(traces, metrics dicts, differential reports), this subpackage watches
the serving layer *while it runs* and feeds policy:

* :class:`Monitor` — the OpenMetrics view of every attached
  :class:`~repro.obs.registry.MetricsRegistry`, policy probes, and
  deterministic fixed-bucket latency histograms
  (:class:`FixedHistogram`: p50/p95/p99 on solve wall time and queue
  wait, bit-identical under replay);
* :class:`FlightRecorder` — the last N merged per-job traces, so any
  recent slow job's timeline is dumpable without global ``trace=True``;
* :class:`StragglerDetector` — per-worker service-time scoring against
  the fleet and the DES cost model (:func:`predict_limplock_ratio` /
  :func:`predict_detection_latency` close the ROADMAP's "turn the DES
  on ourselves" loop), driving session quarantine and speculative
  re-execution in :mod:`repro.serve`;
* OpenMetrics/Prometheus text exposition
  (:func:`to_openmetrics` + :func:`validate_openmetrics`) and the
  ``python -m repro.obs monitor``/``top`` CLI verbs.
"""

from .core import Monitor
from .export import (
    metric_name,
    render_health,
    to_openmetrics,
    validate_openmetrics,
)
from .histogram import DEFAULT_LATENCY_BOUNDS, FixedHistogram
from .recorder import FlightRecord, FlightRecorder
from .sampling import monotime
from .straggler import (
    StragglerDetector,
    StragglerPolicy,
    WorkerScore,
    predict_detection_latency,
    predict_limplock_ratio,
)

__all__ = [
    "Monitor",
    "FixedHistogram",
    "DEFAULT_LATENCY_BOUNDS",
    "FlightRecord",
    "FlightRecorder",
    "monotime",
    "StragglerDetector",
    "StragglerPolicy",
    "WorkerScore",
    "predict_limplock_ratio",
    "predict_detection_latency",
    "metric_name",
    "to_openmetrics",
    "validate_openmetrics",
    "render_health",
]
