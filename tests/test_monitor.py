"""repro.obs.monitor — live monitoring, SLO histograms, stragglers.

The contract under test, per piece:

* **clock** — ``monotime`` is the one sanctioned clock;
* **histogram** — fixed buckets make every quantile a pure function of
  the observation sequence (bit-identical under replay and across runs
  with a deterministic clock);
* **recorder** — last-N job traces at constant memory, dumpable to
  Chrome-trace JSON without global ``trace=True``;
* **straggler** — the detection automaton is deterministic, so the
  DES limplock prediction pins the observed detection latency exactly;
* **service wiring** — a monitored ``workers=0`` drain produces exact
  counter/histogram totals, a valid OpenMetrics exposition and a
  JSON-strict ``health()``;
* **fault injection** (``-m slow``) — a limplocked procmpi session is
  flagged within the DES-predicted number of observations, quarantined,
  and its stuck job is speculatively re-executed bit-identically;
* **overhead** (``-m perf``) — monitoring costs <= 5% wall time on the
  quick serve workload.
"""

from __future__ import annotations

import json
import math
import queue
import threading
import time

import numpy as np
import pytest

import repro
from repro import Grid3D, PipelineConfig, RelaxedSpec
from repro.dist.solver import ProcSolverSession
from repro.grid import random_field
from repro.obs import Trace, Tracer
from repro.obs.monitor import (
    DEFAULT_LATENCY_BOUNDS,
    FixedHistogram,
    FlightRecorder,
    Monitor,
    StragglerDetector,
    StragglerPolicy,
    metric_name,
    monotime,
    predict_detection_latency,
    predict_limplock_ratio,
    to_openmetrics,
    validate_openmetrics,
)
from repro.serve import Service
from repro.serve.service import QUEUE_HISTOGRAM, WALL_HISTOGRAM


def small_problem(n: int = 12, seed: int = 0):
    grid = Grid3D((n, n, n))
    field = random_field(grid.shape, np.random.default_rng(seed))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 2))
    return grid, field, cfg


def _machine():
    from repro.machine.presets import nehalem_ep

    return nehalem_ep()


def _replay(hist, values):
    """Record ``values`` in order; returns the histogram."""
    for v in values:
        hist.record(v)
    return hist


def _ticking_clock(step: float = 0.001):
    """A deterministic clock: each call advances exactly ``step``."""
    state = {"t": 0.0}

    def clock() -> float:
        state["t"] += step
        return state["t"]

    return clock


# ---------------------------------------------------------------------------
# The clock
# ---------------------------------------------------------------------------

class TestClock:
    def test_monotime_is_monotonic(self):
        a, b = monotime(), monotime()
        assert b >= a


# ---------------------------------------------------------------------------
# Fixed-bucket histograms
# ---------------------------------------------------------------------------

class TestFixedHistogram:
    def test_bucket_rule_first_edge_at_or_above(self):
        h = FixedHistogram("t", bounds=(1.0, 2.0, 4.0))
        _replay(h, [0.5, 1.0, 1.5, 2.0, 3.0, 9.0])
        # <=1, <=1, <=2, <=2, <=4, overflow
        assert h.bucket_counts() == [2, 2, 1, 1]
        assert h.count == 6
        assert h.total == pytest.approx(17.0)

    def test_quantiles_are_bucket_upper_edges(self):
        h = FixedHistogram("t", bounds=(1.0, 2.0, 4.0))
        _replay(h, [0.5] * 50 + [1.5] * 45 + [3.0] * 5)
        assert h.quantile(0.50) == 1.0
        assert h.quantile(0.95) == 2.0
        assert h.quantile(0.99) == 4.0
        assert set(h.percentiles()) == {"p50", "p95", "p99"}

    def test_overflow_quantile_reports_observed_max(self):
        h = FixedHistogram("t", bounds=(1.0,))
        _replay(h, [5.0, 7.5])
        assert h.quantile(0.99) == 7.5

    def test_empty_quantile_is_zero(self):
        assert FixedHistogram("t").quantile(0.5) == 0.0

    def test_replay_is_bit_identical(self):
        values = [abs(math.sin(i)) * 0.1 for i in range(200)]
        a = _replay(FixedHistogram("t"), values)
        b = _replay(FixedHistogram("t"), values)
        assert a.snapshot() == b.snapshot()

    def test_default_bounds_ascending_and_wide(self):
        assert list(DEFAULT_LATENCY_BOUNDS) == sorted(DEFAULT_LATENCY_BOUNDS)
        assert DEFAULT_LATENCY_BOUNDS[0] <= 1e-6
        assert DEFAULT_LATENCY_BOUNDS[-1] >= 60.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            FixedHistogram("t", bounds=())
        with pytest.raises(ValueError):
            FixedHistogram("t", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            FixedHistogram("t", bounds=(2.0, 1.0))

    def test_snapshot_is_json_able(self):
        h = FixedHistogram("t", bounds=(1.0, 2.0))
        h.record(1.5)
        json.dumps(h.snapshot(), allow_nan=False)
        empty = FixedHistogram("t").snapshot()
        assert empty["min"] is None and empty["max"] is None
        json.dumps(empty, allow_nan=False)

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError):
            FixedHistogram("t").quantile(1.5)


# ---------------------------------------------------------------------------
# Monitor core
# ---------------------------------------------------------------------------

class TestMonitor:
    def test_duplicate_attach_rejected(self):
        from repro.obs import MetricsRegistry

        mon = Monitor()
        mon.attach("svc", MetricsRegistry())
        with pytest.raises(ValueError):
            mon.attach("svc", MetricsRegistry())

    def test_probes_run_at_every_sample(self):
        from repro.obs import MetricsRegistry

        mon = Monitor()
        reg = MetricsRegistry()
        mon.attach("svc", reg)
        mon.add_probe(lambda: reg.inc("probed"))
        mon.sample()
        mon.sample()
        assert reg.counter("probed") == 2 and mon.samples == 2
        assert "repro_svc_probed_total 2" in mon.openmetrics()

    def test_observe_feeds_named_histogram(self):
        mon = Monitor()
        mon.observe("lat", 0.002)
        mon.observe("lat", 0.004)
        assert mon.observations == 2
        assert mon.histogram("lat").count == 2
        assert [h.name for h in mon.histograms()] == ["lat"]

    def test_openmetrics_exposition_is_valid(self):
        from repro.obs import MetricsRegistry

        mon = Monitor()
        reg = MetricsRegistry()
        reg.inc("jobs.completed", 2)
        reg.set_gauge("queue depth", 1)
        mon.attach("svc", reg)
        mon.observe("lat", 0.5)
        mon.sample()
        assert validate_openmetrics(mon.openmetrics()) == []


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

def _tiny_trace() -> Trace:
    tracer = Tracer(pid=0, label="test")
    with tracer.span("job", cat="test"):
        pass
    return tracer.finish()


class TestFlightRecorder:
    def test_ring_keeps_last_n_with_stable_seqs(self):
        rec = FlightRecorder(capacity=2)
        for i in range(5):
            rec.record(f"job-{i}", _tiny_trace(), wall_s=0.1 * i)
        seqs = [r.seq for r in rec.records()]
        assert seqs == [3, 4]
        assert rec.recorded == 5

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_slowest_orders_by_wall_time(self):
        rec = FlightRecorder(capacity=8)
        for i, w in enumerate([0.3, 0.9, 0.1]):
            rec.record(f"job-{i}", _tiny_trace(), wall_s=w)
        slow = rec.slowest(2)
        assert [r.wall_s for r in slow] == [0.9, 0.3]


# ---------------------------------------------------------------------------
# Straggler detection and the DES differential
# ---------------------------------------------------------------------------

class TestStragglerDetector:
    def test_cold_fleet_never_self_flags(self):
        det = StragglerDetector(StragglerPolicy(min_observations=2))
        score = det.observe("a", 10.0)
        assert not score.flagged and score.over == 0
        assert det.deadline() is None

    def test_flags_after_consecutive_threshold_breaches(self):
        pol = StragglerPolicy(threshold=2.0, consecutive=2,
                              min_observations=2)
        det = StragglerDetector(pol)
        for _ in range(4):
            det.observe("healthy", 1.0)
        s1 = det.observe("limp", 5.0)
        assert s1.over == 1 and not s1.flagged
        s2 = det.observe("limp", 5.0)
        assert s2.flagged and s2.flagged_after == 2
        assert det.degraded() == ["limp"]
        # Flagging is sticky; further slow jobs keep the verdict.
        assert det.observe("limp", 5.0).flagged

    def test_healthy_observation_resets_the_run(self):
        pol = StragglerPolicy(threshold=2.0, consecutive=3,
                              min_observations=1)
        det = StragglerDetector(pol)
        det.observe("ref", 1.0)
        det.observe("ref", 1.0)
        det.observe("x", 5.0)
        det.observe("x", 5.0)
        assert det.observe("x", 1.0).over == 0  # recovered
        det.observe("x", 5.0)
        assert det.degraded() == []  # 3-in-a-row never happened

    def test_deadline_scales_fleet_expectation(self):
        pol = StragglerPolicy(speculation_factor=4.0, min_observations=1)
        det = StragglerDetector(pol)
        det.observe("a", 2.0)
        det.observe("a", 2.0)
        assert det.deadline() == pytest.approx(8.0)

    def test_scores_sorted_most_suspicious_first(self):
        det = StragglerDetector(StragglerPolicy(min_observations=1))
        for _ in range(3):
            det.observe("fast", 1.0)
            det.observe("slow", 3.0)
        scores = det.scores()
        assert [s.worker for s in scores] == ["slow", "fast"]
        assert scores[0].ratio > scores[1].ratio


class TestLimplockModel:
    def test_uniform_time_dilation_is_exact(self):
        from repro.sim.costmodel import limplock

        grid, _field, cfg = small_problem()
        machine = _machine()
        assert predict_limplock_ratio(machine, cfg, grid.shape,
                                      1.0) == pytest.approx(1.0)
        for factor in (3.0, 25.0):
            ratio = predict_limplock_ratio(machine, cfg, grid.shape, factor)
            assert ratio == pytest.approx(factor, rel=1e-6)
        assert "limplock x3" in limplock(machine, 3.0).name
        with pytest.raises(ValueError):
            limplock(machine, 0.5)

    def test_detection_latency_prediction(self):
        pol = StragglerPolicy(threshold=2.0, consecutive=2)
        assert predict_detection_latency(1.5, pol) == math.inf
        assert predict_detection_latency(25.0, pol) == 2.0


# ---------------------------------------------------------------------------
# OpenMetrics exposition
# ---------------------------------------------------------------------------

class TestOpenMetrics:
    def test_metric_name_sanitizes(self):
        assert metric_name("serve.solve_wall") == "repro_serve_solve_wall"
        assert metric_name("queue depth", prefix="") == "queue_depth"

    def test_round_trip_validates(self):
        h = _replay(FixedHistogram("lat", bounds=(0.1, 1.0)), [0.05, 0.5, 7.0])
        text = to_openmetrics({"jobs": 3}, {"depth": 2.5}, [h])
        assert validate_openmetrics(text) == []
        assert 'le="+Inf"} 3' in text
        assert "repro_jobs_total 3" in text

    def test_validator_catches_breakage(self):
        assert validate_openmetrics("repro_x 1\n")  # no TYPE, no EOF
        broken = ("# TYPE repro_h histogram\n"
                  'repro_h_bucket{le="1"} 5\n'
                  'repro_h_bucket{le="+Inf"} 3\n'  # not cumulative
                  "repro_h_count 3\n# EOF\n")
        problems = validate_openmetrics(broken)
        assert any("cumulative" in p for p in problems)


# ---------------------------------------------------------------------------
# Monitored service: deterministic drain battery
# ---------------------------------------------------------------------------

class TestMonitoredService:
    def test_counters_histograms_and_recorder_are_exact(self):
        grid, _field, cfg = small_problem()
        with Service(workers=0, cache=False, monitor=True,
                     record_traces=3) as svc:
            futs = [svc.submit(grid,
                               random_field(grid.shape,
                                            np.random.default_rng(i)), cfg)
                    for i in range(5)]
            svc.drain()
            for fut in futs:
                fut.result(timeout=0)
            mon = svc.monitor
            assert mon is not None
            mon.sample()
            assert mon.histogram(WALL_HISTOGRAM).count == 5
            assert mon.histogram(QUEUE_HISTOGRAM).count == 5
            assert mon.observations == 10
            assert mon.samples == 1
            assert mon.recorder is not None
            assert mon.recorder.recorded == 5
            assert len(mon.recorder.records()) == 3
            scores = mon.detector.scores()
            assert [s.worker for s in scores] == ["backend-shared"]
            assert scores[0].jobs == 5 and not scores[0].flagged
            st = svc.stats
            assert (st.completed, st.backend_solves) == (5, 5)
            assert (st.speculated, st.speculation_wins,
                    st.sessions_quarantined) == (0, 0, 0)
            assert validate_openmetrics(mon.openmetrics()) == []

    def test_recorded_traces_carry_real_spans(self):
        grid, field, cfg = small_problem()
        with Service(workers=0, cache=False, record_traces=2) as svc:
            svc.submit(grid, field, cfg)
            svc.drain()
            [rec] = svc.monitor.recorder.records()
            assert rec.worker == "backend-shared"
            assert rec.status == "ok" and rec.wall_s > 0
            assert len(rec.trace.spans) > 0

    def test_health_is_json_strict_and_complete(self):
        grid, field, cfg = small_problem()
        with Service(workers=0, monitor=True) as svc:
            svc.submit(grid, field, cfg)
            svc.drain()
            svc.monitor.sample()
            health = svc.health()
            json.dumps(health, allow_nan=False)
            assert health["status"] == "ok"
            assert health["counters"]["completed"] == 1
            assert WALL_HISTOGRAM in health["histograms"]
            assert health["monitor"]["samples"] == 1
            assert health["sessions"]["quarantined"] == 0
        assert svc.health()["status"] == "closed"

    def test_health_without_monitor_still_works(self):
        with Service(workers=0) as svc:
            health = svc.health()
            json.dumps(health, allow_nan=False)
            assert health["monitor"] is None
            assert health["histograms"] == {}

    def test_monitor_policy_reaches_the_detector(self):
        mon = Monitor(policy=StragglerPolicy(threshold=3.0))
        with Service(workers=0, monitor=mon) as svc:
            assert svc.monitor is mon
            assert svc.monitor.detector.policy.threshold == 3.0
            assert svc.monitor.recorder is None

    def test_results_unchanged_by_monitoring(self):
        grid, field, cfg = small_problem()
        plain = repro.solve(grid, field, cfg)
        with Service(workers=0, cache=False, monitor=True,
                     record_traces=2) as svc:
            fut = svc.submit(grid, field, cfg)
            svc.drain()
            assert np.array_equal(fut.result(timeout=0).field, plain.field)


class TestHistogramDeterminism:
    def _run_stream(self):
        grid, _field, cfg = small_problem()
        mon = Monitor(clock=_ticking_clock(0.001))
        with Service(workers=0, cache=False, monitor=mon) as svc:
            futs = [svc.submit(grid,
                               random_field(grid.shape,
                                            np.random.default_rng(i)), cfg)
                    for i in range(6)]
            svc.drain()
            for fut in futs:
                fut.result(timeout=0)
            mon.sample()
            return ({h.name: h.snapshot() for h in mon.histograms()},
                    mon.openmetrics())

    def test_identical_streams_produce_bit_identical_histograms(self):
        # With the injectable deterministic clock every timestamp is a
        # pure function of the call sequence, so two identical job
        # streams must produce byte-identical snapshots — across runs
        # and across Python versions (fixed buckets, no dict-order or
        # hash dependence).
        snaps_a, om_a = self._run_stream()
        snaps_b, om_b = self._run_stream()
        assert snaps_a == snaps_b
        assert om_a == om_b
        wall = snaps_a[WALL_HISTOGRAM]
        assert wall["count"] == 6 and wall["sum"] == pytest.approx(
            snaps_b[WALL_HISTOGRAM]["sum"], rel=0, abs=0)


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

class TestMonitorCLI:
    def test_monitor_verb_exports_and_validates(self, tmp_path, capsys):
        from repro.obs.cli import main

        om = tmp_path / "metrics.txt"
        health = tmp_path / "health.json"
        rc = main(["monitor", "--jobs", "3", "--size", "10",
                   "--openmetrics", str(om), "--health", str(health),
                   "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service health: ok" in out
        assert "openmetrics: valid" in out
        assert validate_openmetrics(om.read_text()) == []
        doc = json.loads(health.read_text())
        assert doc["counters"]["completed"] == 3

    def test_top_verb_renders_health_snapshot(self, tmp_path, capsys):
        from repro.obs.cli import main

        health = tmp_path / "health.json"
        rc = main(["monitor", "--jobs", "2", "--size", "10",
                   "--health", str(health)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["top", str(health)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service health: ok" in out
        assert "serve.solve_wall" in out

    def test_top_rejects_garbage(self, tmp_path):
        from repro.obs.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(SystemExit):
            main(["top", str(bad)])


# ---------------------------------------------------------------------------
# Overhead gate (-m perf) and the limplock acceptance battery (-m slow)
# ---------------------------------------------------------------------------

@pytest.mark.perf
class TestMonitoringOverhead:
    def test_monitoring_overhead_within_5_percent(self):
        grid, _field, cfg = small_problem()
        fields = [random_field(grid.shape, np.random.default_rng(i))
                  for i in range(6)]

        def best_of(runs: int, **kwargs) -> float:
            best = math.inf
            for _ in range(runs):
                t0 = time.perf_counter()
                with Service(workers=0, cache=False, **kwargs) as svc:
                    futs = [svc.submit(grid, f, cfg) for f in fields]
                    svc.drain()
                    for fut in futs:
                        fut.result(timeout=0)
                best = min(best, time.perf_counter() - t0)
            return best

        plain = best_of(5)
        monitored = best_of(5, monitor=True)
        # Min-of-5 on both sides irons out scheduler noise; a small
        # absolute allowance keeps sub-100ms workloads honest.
        assert monitored <= plain * 1.05 + 0.010, (
            f"monitoring overhead {monitored / plain - 1:.1%} "
            f"(plain {plain:.4f}s, monitored {monitored:.4f}s)")


class _VirtualClock:
    """Time the test owns: only :meth:`advance` moves it."""

    def __init__(self) -> None:
        self._t = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._t

    def advance(self, dt: float) -> None:
        with self._lock:
            self._t += dt


@pytest.mark.slow
class TestLimplockAcceptance:
    """The issue's acceptance scenario: inject a limplocked procmpi
    session, and pin detection, quarantine and bit-identical speculative
    re-execution against the DES prediction.

    Host load cannot reach the verdict: the service runs on an injected
    clock that only this test advances, every job really executes on its
    procmpi session and is then held until the test has let its
    *virtual* service time pass — ``UNIT`` on a healthy session,
    ``FACTOR * UNIT`` on the limplocked one — and the loop is bounded by
    an observation count, not a deadline.  The real-time waits below are
    hang guards only.
    """

    FACTOR = 8.0
    UNIT = 1.0
    WAIT = 300.0

    def test_limplocked_session_detected_quarantined_speculated(
            self, monkeypatch):
        grid, _field, cfg = small_problem()
        topo = (1, 1, 2)
        policy = StragglerPolicy(threshold=3.0, consecutive=2,
                                 min_observations=2, speculation_factor=3.0,
                                 window=8)

        # The DES side of the differential: a uniform limplock dilates
        # the predicted node time by exactly the degradation factor, so
        # the deterministic policy automaton must flag after exactly
        # `consecutive` degraded observations.
        ratio = predict_limplock_ratio(_machine(), cfg, grid.shape,
                                       self.FACTOR)
        assert ratio == pytest.approx(self.FACTOR, rel=1e-6)
        predicted = predict_detection_latency(ratio, policy)
        assert predicted == policy.consecutive == 2

        clock = _VirtualClock()
        mon = Monitor(clock=clock, policy=policy)
        held: "queue.Queue" = queue.Queue()       # (sid, release event)
        observed: "queue.Queue" = queue.Queue()   # WorkerScore per job
        releases = []
        real_run = ProcSolverSession.solve_pipelined
        real_observe = mon.detector.observe

        def held_run(session, *args, **kwargs):
            out = real_run(session, *args, **kwargs)
            release = threading.Event()
            releases.append(release)
            held.put((session.sid, release))
            assert release.wait(timeout=self.WAIT), "held job never released"
            return out

        def observe(worker, service_s):
            score = real_observe(worker, service_s)
            observed.put(score)
            return score

        monkeypatch.setattr(ProcSolverSession, "solve_pipelined", held_run)
        monkeypatch.setattr(mon.detector, "observe", observe)

        def finish(release, cost):
            """Let ``cost`` pass, complete one held job, and wait until
            the service has accounted it (so no later advance leaks into
            its service time)."""
            clock.advance(cost)
            release.set()
            return observed.get(timeout=self.WAIT)

        with Service(workers=2, batch_limit=1, monitor=mon) as svc:
            futures = []

            def feed() -> None:
                f = random_field(grid.shape,
                                 np.random.default_rng(1000 + len(futures)))
                futures.append(svc.submit(grid, f, cfg, topology=topo,
                                          backend="procmpi"))

            try:
                # Calibration: two concurrent jobs warm both sessions,
                # four more give the detector its healthy reference.
                feed()
                feed()
                (sid_a, rel_a), (sid_b, rel_b) = (
                    held.get(timeout=self.WAIT), held.get(timeout=self.WAIT))
                assert sid_a != sid_b
                clock.advance(self.UNIT)
                rel_a.set()
                rel_b.set()
                scores = [observed.get(timeout=self.WAIT) for _ in range(2)]
                for _ in range(4):
                    feed()
                    _sid, release = held.get(timeout=self.WAIT)
                    scores.append(finish(release, self.UNIT))
                    futures[-1].result(timeout=self.WAIT)
                assert all(s.last_s == self.UNIT for s in scores)
                assert svc.stats.sessions_created == 2
                assert mon.detector.deadline() == \
                    policy.speculation_factor * self.UNIT

                # Fault injection: limplock one warm session.  The
                # pool's LRU hands the oldest idle session out first.
                idle = svc._sessions._idle
                assert len(idle) == 2
                slow_sid = idle[0].sid
                slow_worker = f"session-{slow_sid}"
                stuck = policy.speculation_factor * self.UNIT + 0.5 * self.UNIT

                for _ in range(12):     # observations, not seconds
                    feed()
                    sid, release = held.get(timeout=self.WAIT)
                    if sid != slow_sid:
                        assert finish(release, self.UNIT).over == 0
                        continue
                    # Stuck past the speculation deadline: the probe
                    # re-queues it, the healthy session runs the
                    # duplicate in one UNIT and settles the job ...
                    clock.advance(stuck)
                    mon.sample()
                    dup_sid, dup_release = held.get(timeout=self.WAIT)
                    assert dup_sid != slow_sid
                    assert finish(dup_release, self.UNIT).over == 0
                    futures[-1].result(timeout=self.WAIT)
                    # ... and the original finishes FACTOR units after
                    # it started: one degraded observation.
                    score = finish(release,
                                   self.FACTOR * self.UNIT - stuck - self.UNIT)
                    assert score.worker == slow_worker
                    assert score.last_s == self.FACTOR * self.UNIT
                    mon.sample()        # probe: quarantine what is flagged
                    if score.flagged:
                        break
            finally:
                for release in releases:
                    release.set()

            # Detection: flagged, and in exactly the DES-predicted
            # number of degraded observations.
            assert mon.detector.degraded() == [slow_worker], (
                f"scores={mon.detector.scores()}")
            score = next(s for s in mon.detector.scores()
                         if s.worker == slow_worker)
            assert score.flagged_after == predicted
            assert score.ratio == self.FACTOR > policy.threshold

            # Quarantine: the flagged session is barred from reuse.
            assert svc._sessions.is_quarantined(slow_sid)

            # Speculation: every stuck job was re-queued, the duplicate
            # won, the original's result was discarded.
            results = [fut.result(timeout=self.WAIT) for fut in futures]
            st = svc.stats
            assert st.speculated == st.speculation_wins == predicted
            assert st.speculation_discarded == predicted
            assert st.failed == 0
            assert st.sessions_quarantined == 1

            # Bit-identical first-completion-wins: whichever execution
            # of a speculated pair settled it, every job's result equals
            # the same job run directly on the other distributed
            # transport (procmpi ≡ simmpi bits).
            for fut, res in zip(futures, results):
                ref = repro.solve(fut.job.grid, fut.job.field,
                                  fut.job.config, topology=topo,
                                  backend="simmpi")
                assert np.array_equal(res.field, ref.field)

        # Health reflects the verdict after the fact.
        health = svc.health()
        assert health["status"] == "closed"
        assert slow_sid in health["sessions"]["quarantined_sids"]
        flagged = [s["worker"] for s in health["stragglers"] if s["flagged"]]
        assert flagged == [slow_worker]
