"""Straggler detection: score workers against the fleet and the DES.

The paper's pipeline model (Eq. 3/5) predicts *where time goes* for a
healthy schedule; a limplocked worker — degraded but not dead, the
failure mode crash-only handling cannot see — shows up as service times
that drift away from that prediction while every health check still
passes.  The detector closes the ROADMAP's "turn the DES on ourselves"
loop at the fleet level:

* every completed job contributes one ``(worker, service_time)``
  observation;
* a worker's **expected** service time is the fastest recent per-worker
  median in the fleet (the healthy reference — on a homogeneous pool
  every worker runs the same schedules, so the fastest median *is* the
  model-calibrated healthy rate);
* a worker whose observations exceed ``threshold ×`` expected for
  ``consecutive`` observations in a row is **flagged** — the policy
  automaton is deterministic, so the DES can predict the detection
  latency for a given degradation factor exactly
  (:func:`predict_detection_latency` over
  :func:`predict_limplock_ratio`), and the fault-injection battery pins
  observed == predicted.

The detector only *scores*; policy actions (quarantine via
:meth:`repro.dist.solver.SessionPool.quarantine`, speculative
re-execution past :meth:`StragglerDetector.deadline`) live in the
service's monitor probe.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

__all__ = ["StragglerPolicy", "WorkerScore", "StragglerDetector",
           "predict_limplock_ratio", "predict_detection_latency"]


@dataclass(frozen=True)
class StragglerPolicy:
    """Knobs of the detection/quarantine/speculation automaton."""

    #: A job slower than ``threshold ×`` the fleet-expected service time
    #: counts as a degraded observation.
    threshold: float = 2.0
    #: Degraded observations *in a row* before the worker is flagged
    #: (one slow job is noise; a limplocked worker is slow every time).
    consecutive: int = 2
    #: Fleet observations required before any scoring happens at all.
    min_observations: int = 2
    #: Speculative re-execution deadline: a job in flight longer than
    #: ``speculation_factor ×`` expected is re-queued on a healthy
    #: worker (first completion wins; results are bit-identical by the
    #: backend contract, so the duplicate is pure latency insurance).
    speculation_factor: float = 4.0
    #: Recent observations retained per worker (median window).
    window: int = 16


@dataclass(frozen=True)
class WorkerScore:
    """One worker's health, as of the last observation."""

    worker: str
    jobs: int
    last_s: float
    expected_s: float
    #: last_s / expected_s (1.0 = healthy, inf = no expectation yet).
    ratio: float
    #: Current run of consecutive degraded observations.
    over: int
    flagged: bool
    #: Degraded observations it took to flag (None while healthy) —
    #: the quantity the DES predicts via its limplock prediction.
    flagged_after: Optional[int]


class _WorkerState:
    __slots__ = ("times", "jobs", "last", "over", "flagged",
                 "flagged_after")

    def __init__(self, window: int) -> None:
        self.times: Deque[float] = deque(maxlen=window)
        self.jobs = 0
        self.last = 0.0
        self.over = 0
        self.flagged = False
        self.flagged_after: Optional[int] = None

    def median(self) -> float:
        xs = sorted(self.times)
        n = len(xs)
        if n == 0:
            return math.inf
        mid = n // 2
        return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


class StragglerDetector:
    """Deterministic per-worker scoring over service-time observations."""

    def __init__(self, policy: Optional[StragglerPolicy] = None) -> None:
        self.policy = policy or StragglerPolicy()
        self._workers: Dict[str, _WorkerState] = {}
        self._observations = 0
        self._lock = threading.Lock()

    # -- observations --------------------------------------------------------

    def observe(self, worker: str, service_s: float) -> WorkerScore:
        """Account one completed job; returns the worker's fresh score.

        The expectation a job is judged against deliberately *excludes*
        the job itself (it is computed before insertion): the first
        observation on a cold fleet can never self-flag.
        """
        pol = self.policy
        with self._lock:
            state = self._workers.get(worker)
            if state is None:
                state = self._workers[worker] = _WorkerState(pol.window)
            expected = self._expected_locked()
            self._observations += 1
            state.jobs += 1
            state.last = float(service_s)
            state.times.append(float(service_s))
            scorable = (self._observations > pol.min_observations
                        and math.isfinite(expected) and expected > 0)
            ratio = (service_s / expected if scorable else 1.0)
            if scorable and ratio > pol.threshold:
                state.over += 1
                if not state.flagged and state.over >= pol.consecutive:
                    state.flagged = True
                    state.flagged_after = state.over
            else:
                state.over = 0
            return self._score_locked(worker, state, expected)

    # -- scores --------------------------------------------------------------

    def _expected_locked(self) -> float:
        """Fleet-expected healthy service time: fastest recent median."""
        medians = [s.median() for s in self._workers.values() if s.times]
        return min(medians) if medians else math.inf

    def _score_locked(self, worker: str, state: _WorkerState,
                      expected: float) -> WorkerScore:
        ratio = (state.last / expected
                 if math.isfinite(expected) and expected > 0 else math.inf)
        return WorkerScore(worker=worker, jobs=state.jobs,
                           last_s=state.last, expected_s=expected,
                           ratio=ratio, over=state.over,
                           flagged=state.flagged,
                           flagged_after=state.flagged_after)

    def deadline(self) -> Optional[float]:
        """Speculation deadline in seconds, or None before calibration."""
        with self._lock:
            if self._observations < self.policy.min_observations:
                return None
            expected = self._expected_locked()
        if not math.isfinite(expected) or expected <= 0:
            return None
        return self.policy.speculation_factor * expected

    def scores(self) -> List[WorkerScore]:
        """Every worker's score, most suspicious (highest ratio) first."""
        with self._lock:
            expected = self._expected_locked()
            out = [self._score_locked(w, s, expected)
                   for w, s in self._workers.items()]
        return sorted(out, key=lambda s: (-s.ratio, s.worker))

    def degraded(self) -> List[str]:
        """Names of currently flagged workers (sorted)."""
        with self._lock:
            return sorted(w for w, s in self._workers.items() if s.flagged)


# ---------------------------------------------------------------------------
# The DES side of the differential: what *should* detection look like?
# ---------------------------------------------------------------------------

def predict_limplock_ratio(machine, config, shape: Sequence[int],
                           factor: float, passes: int = 1,
                           seed: int = 0) -> float:
    """DES-predicted service-time ratio of a limplocked worker.

    Runs the calibrated pipeline DES twice — once on ``machine``, once
    on :func:`repro.sim.costmodel.limplock`-degraded ``machine`` — and
    returns ``degraded_total_time / healthy_total_time``.  A limplock
    degrades every service rate of the node uniformly, so the ratio
    lands on ``factor`` up to the model's fixed costs; the detector's
    fault-injection battery asserts the *real* fleet's observed ratio
    and detection latency against exactly this prediction.
    """
    from ...sim.costmodel import limplock
    from ...sim.des_pipeline import simulate_pipelined

    healthy = simulate_pipelined(machine, config, tuple(shape),
                                 passes=passes, seed=seed)
    degraded = simulate_pipelined(limplock(machine, factor), config,
                                  tuple(shape), passes=passes, seed=seed)
    return degraded.total_time / healthy.total_time


def predict_detection_latency(ratio: float,
                              policy: Optional[StragglerPolicy] = None,
                              ) -> float:
    """Degraded observations until the policy automaton flags.

    For a worker whose every job runs at ``ratio ×`` the fleet-expected
    service time: ``policy.consecutive`` observations when the ratio
    clears the threshold, ``math.inf`` when it never will.  Deliberately
    the same automaton :meth:`StragglerDetector.observe` executes, so
    prediction and detection can only diverge if the *observed* ratio
    disagrees with the DES — which is precisely the differential signal.
    """
    pol = policy or StragglerPolicy()
    if ratio <= pol.threshold:
        return math.inf
    return float(pol.consecutive)
