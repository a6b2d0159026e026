"""The Monitor: periodic registry sampling, histograms, policy probes.

One :class:`Monitor` watches a set of :class:`MetricsRegistry` sources
(the service's, the cache's, the process-wide one — anything
registered via :meth:`attach`).  Each :meth:`sample` stamps every
source into a :class:`~repro.obs.monitor.sampling.Sample` and appends
it to a bounded ring, so memory is constant no matter how long the
service runs.  Between samples, components push latency observations
into named :class:`FixedHistogram`\\ s via :meth:`observe` and the
monitor's injectable clock (:attr:`clock`) — the only sanctioned way to
time things in the serving layer (see the ``no-naked-perf-counter``
lint rule).

``clock`` is injectable for one load-bearing reason: determinism.
Under the default wall clock, observation *counts* are exact for a
fixed job stream but the values are host timings; a test that needs
bit-identical histograms across runs and Python versions injects a
deterministic clock and replays the same stream (see
``tests/test_monitor.py``).

Policy lives in **probes**: callables run at the *start* of every
sample (the service registers one that refreshes gauges, quarantines
flagged sessions and speculates on stuck jobs).  Sampling is driven by
the caller (:meth:`sample` — the ``obs monitor`` CLI, a test), so a
replayed job stream samples identically.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

from ..registry import MetricsRegistry
from .histogram import DEFAULT_LATENCY_BOUNDS, FixedHistogram
from .recorder import FlightRecorder
from .sampling import Ring, Sample, monotime
from .straggler import StragglerDetector, StragglerPolicy

__all__ = ["Monitor"]


class Monitor:
    """Live sampling and SLO accounting over metrics registries."""

    def __init__(self, capacity: int = 240,
                 record_traces: int = 0,
                 policy: Optional[StragglerPolicy] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: The monitor's clock — every serving-layer timestamp comes
        #: from here.  Injectable; defaults to the monotonic wall clock.
        self.clock: Callable[[], float] = clock or monotime
        #: The monitor's own meta-registry (samples taken, observations
        #: recorded) — itself sampled like any other source.
        self.metrics = MetricsRegistry()
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder(record_traces) if record_traces > 0 else None)
        self.detector = StragglerDetector(policy)
        self._sources: Dict[str, MetricsRegistry] = {"monitor": self.metrics}
        self._rings: Dict[str, Ring] = {"monitor": Ring(capacity)}
        self._hists: Dict[str, FixedHistogram] = {}
        self._probes: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    # -- wiring --------------------------------------------------------------

    def attach(self, name: str, registry: MetricsRegistry) -> None:
        """Sample ``registry`` under ``name`` from now on."""
        with self._lock:
            if name in self._sources:
                raise ValueError(f"source {name!r} already attached")
            self._sources[name] = registry
            self._rings[name] = Ring(self.capacity)

    def add_probe(self, probe: Callable[[], None]) -> None:
        """Run ``probe()`` at the start of every :meth:`sample`."""
        with self._lock:
            self._probes.append(probe)

    def histogram(self, name: str, unit: str = "s",
                  bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
                  ) -> FixedHistogram:
        """The named histogram, created on first use."""
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = FixedHistogram(name, unit=unit,
                                                          bounds=bounds)
            return hist

    # -- recording -----------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """One latency observation into histogram ``name``."""
        self.histogram(name).record(value)
        self.metrics.inc("monitor.observations")

    def sample(self) -> Dict[str, Sample]:
        """Probes, then one stamped snapshot of every source.

        Returns the fresh samples by source name; each is also appended
        to that source's ring.
        """
        with self._lock:
            probes = list(self._probes)
        for probe in probes:
            probe()
        self.metrics.inc("monitor.samples")
        t = self.clock()
        with self._lock:
            sources = list(self._sources.items())
        out: Dict[str, Sample] = {}
        for name, registry in sources:
            snap = registry.snapshot()
            sample = Sample(t=t, counters=snap["counters"],
                            gauges=snap["gauges"])
            self._rings[name].push(sample)
            out[name] = sample
        return out

    # -- reading -------------------------------------------------------------

    @property
    def samples(self) -> int:
        """Samples taken so far (deterministic for manual driving)."""
        return int(self.metrics.counter("monitor.samples"))

    @property
    def observations(self) -> int:
        return int(self.metrics.counter("monitor.observations"))

    def series(self, name: str) -> List[Sample]:
        """Retained samples of source ``name``, oldest first."""
        with self._lock:
            ring = self._rings.get(name)
        if ring is None:
            raise KeyError(f"no such source {name!r}; have "
                           f"{sorted(self._rings)}")
        return ring.items()

    def histograms(self) -> List[FixedHistogram]:
        with self._lock:
            return [self._hists[n] for n in sorted(self._hists)]

    def openmetrics(self) -> str:
        """The OpenMetrics exposition of the latest state."""
        from .export import to_openmetrics

        with self._lock:
            sources = list(self._sources.items())
        merged_counters: Dict[str, float] = {}
        merged_gauges: Dict[str, float] = {}
        for name, registry in sources:
            snap = registry.snapshot()
            for k, v in snap["counters"].items():
                merged_counters[f"{name}.{k}"] = v
            for k, v in snap["gauges"].items():
                merged_gauges[f"{name}.{k}"] = v
        return to_openmetrics(merged_counters, merged_gauges,
                              self.histograms())
