"""The concurrent solve service: submit jobs, get futures.

:class:`Service` glues the serving layer together::

    with Service(workers=2, cache_dir="benchmarks/results/cache") as svc:
        f1 = svc.submit(grid, field, cfg, topology=(1, 1, 2),
                        backend="procmpi")
        f2 = svc.submit(grid, field, "auto")           # autotuned config
        results = svc.map(jobs)                        # many at once
        print(f1.result().levels_advanced, svc.stats)

One submission flows: resolve ``config="auto"`` through the autotuner →
compute the content key → **cache**? return a completed future without
touching any backend → **identical job already in flight**? coalesce
onto it → otherwise queue.  Worker threads pull *batches* of
compatible jobs (see :mod:`repro.serve.scheduler`) and run each batch
back-to-back on a warm slot: procmpi jobs check a persistent
:class:`~repro.dist.solver.ProcSolverSession` out of the service's own
:class:`~repro.dist.solver.SessionPool` (rank processes and
shared-memory segments survive across jobs; the pool is built by the
first procmpi job, so in-thread jobs never load the distributed rail),
shared/simmpi jobs run in the worker thread directly.

Failure semantics are fail-fast and job-scoped, matching the
fault-injection contract of the distributed rails: the *original*
exception of a failed solve comes out of exactly that job's
``future.result()``; a crashed procmpi session is dropped (its world,
segments and processes are already torn down — crash-only) and the pool
warms a fresh one, so subsequent jobs keep being served.

``workers=0`` puts the service in **synchronous** mode: nothing runs
until :meth:`Service.drain` executes the queue on the calling thread —
deterministic scheduling for tests and for callers that want batching
without threads.

Monitoring (``monitor=True``) attaches a
:class:`~repro.obs.monitor.Monitor`: the service's and cache's
registries are sampled into bounded rings, every completed job feeds
the ``serve.queue_wait`` / ``serve.solve_wall`` SLO histograms and the
straggler detector, and a probe (run at each sample) refreshes gauges,
**quarantines** sessions the detector flags and **speculatively
re-queues** jobs stuck past the detector's deadline.  Speculation is
safe because backends are bit-identical: the duplicate execution races
the stuck one and settling is first-completion-wins
(:class:`~repro.serve.scheduler.Entry` carries the arbitration state;
only cacheable — content-keyed — jobs participate).
:meth:`Service.health` exposes the whole picture as one JSON-able dict.

The module-level :func:`submit` / :func:`map_jobs` operate on a shared
default service (built on first use, reconfigurable via
:func:`configure`, closed atexit); they are what ``repro.submit`` and
``repro.map`` re-export.
"""

from __future__ import annotations

import atexit
import math
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..core.parameters import PipelineConfig
from ..core.pipeline import SolveResult
from ..grid.grid3d import Grid3D
from ..kernels.stencils import StarStencil
from ..obs.monitor import Monitor, StragglerPolicy
from ..obs.registry import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Trace, Tracer
from .cache import ResultCache, _clone
from .futures import SolveFuture, wait_all
from .job import SolveJob
from .scheduler import Entry, JobQueue

if TYPE_CHECKING:
    from ..dist.solver import SessionPool
    from ..machine.topology import MachineSpec

__all__ = ["ServiceStats", "Service", "WALL_HISTOGRAM", "QUEUE_HISTOGRAM",
           "default_service", "configure", "submit", "map_jobs", "shutdown"]

#: SLO histogram names the service records under (fixed, so dashboards
#: and the perf gates address them stably).
WALL_HISTOGRAM = "serve.solve_wall"
QUEUE_HISTOGRAM = "serve.queue_wait"


@dataclass(frozen=True)
class ServiceStats:
    """A deterministic, immutable snapshot of what the service did.

    Everything here counts *events*, not seconds: for a fixed job
    sequence the numbers are identical on any host, which is what lets
    throughput assertions ("a warm pool spawns 2x fewer processes than
    a cold loop") gate CI without wall-clock noise.  Frozen on purpose:
    :attr:`Service.stats` is a point in time, and two snapshots taken
    around an operation must diff that operation exactly — a live
    (mutating) object here silently made such diffs zero.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Returned straight from the result cache; no backend ran.
    cache_hits: int = 0
    #: Attached to an identical in-flight job; no extra backend run.
    coalesced: int = 0
    #: Jobs whose ``config="auto"`` went through the autotuner.
    auto_resolved: int = 0
    #: Batches of >1 job that ran back-to-back on one warm slot.
    batches: int = 0
    batched_jobs: int = 0
    #: Actual backend executions (<= submitted, thanks to the above).
    backend_solves: int = 0
    # Pool counters (procmpi sessions).
    sessions_created: int = 0
    sessions_reused: int = 0
    sessions_dropped: int = 0
    #: Sessions the monitor's straggler verdict barred from reuse.
    sessions_quarantined: int = 0
    # Speculative re-execution (monitor-driven; zero without a monitor).
    #: Stuck jobs re-queued for duplicate execution.
    speculated: int = 0
    #: Entries settled by the *duplicate* execution.
    speculation_wins: int = 0
    #: Completions (results or errors) discarded because the entry was
    #: already settled by the other execution of a speculated pair.
    speculation_discarded: int = 0
    # Deltas of the global deterministic setup counters over this
    # service's lifetime.
    process_spawns: int = 0
    segments_created: int = 0


def _setup_counters() -> Dict[str, int]:
    from ..obs import registry
    from ..obs.registry import SEGMENTS_COUNTER, SPAWNS_COUNTER

    return {"spawns": int(registry.counter(SPAWNS_COUNTER)),
            "segments": int(registry.counter(SEGMENTS_COUNTER))}


def _finite(x: Optional[float]) -> Optional[float]:
    """JSON-strict: non-finite floats become None."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


class Service:
    """A running solve service; use as a context manager.

    Parameters
    ----------
    workers:
        Worker threads sharing the queue (pool slots).  ``0`` =
        synchronous mode: jobs queue up until :meth:`drain` runs them on
        the calling thread.
    cache:
        ``True`` (default) for an in-memory LRU, ``False`` to disable
        caching, or a ready :class:`ResultCache` to share one across
        services.
    cache_entries, cache_dir:
        LRU capacity and the optional on-disk tier (e.g.
        ``benchmarks/results/cache/``) for the default-built cache.
    machine:
        Machine model the autotuner resolves ``config="auto"`` against
        (default: the paper's Nehalem EP preset).
    max_sessions:
        Warm procmpi sessions kept alive (default: ``max(workers, 1)``).
    batch_limit, batch_bytes:
        Batch formation knobs (see :class:`~repro.serve.scheduler.JobQueue`).
    start_method, comm_timeout:
        Forwarded to the procmpi sessions.
    monitor:
        ``True`` to attach a fresh :class:`~repro.obs.monitor.Monitor`,
        or a ready instance to share/inject (e.g. one with a
        deterministic clock).  Passing ``record_traces`` or
        ``straggler`` enables monitoring implicitly.
    record_traces:
        Flight-recorder ring size: keep the merged traces of the last N
        backend executions (0 = off; tracing stays off per job unless
        recording is on).
    straggler:
        Detection/quarantine/speculation policy (defaults to
        :class:`~repro.obs.monitor.StragglerPolicy`).
    """

    def __init__(self, workers: int = 2,
                 cache: Union[bool, ResultCache] = True,
                 cache_entries: int = 128,
                 cache_dir: Optional[Union[str, Path]] = None,
                 machine: Optional[MachineSpec] = None,
                 max_sessions: Optional[int] = None,
                 batch_limit: int = 8,
                 batch_bytes: int = 4 << 20,
                 start_method: Optional[str] = None,
                 comm_timeout: Optional[float] = None,
                 monitor: Union[bool, Monitor] = False,
                 record_traces: int = 0,
                 straggler: Optional[StragglerPolicy] = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.machine = machine
        if cache is True:
            self._cache: Optional[ResultCache] = ResultCache(
                max_entries=cache_entries, disk_dir=cache_dir)
        elif cache is False:
            self._cache = None
        else:
            self._cache = cache
        self._queue = JobQueue(batch_limit=batch_limit,
                               batch_bytes=batch_bytes)
        self._pool_args = dict(
            max_sessions=(max_sessions if max_sessions is not None
                          else max(workers, 1)),
            start_method=start_method, timeout=comm_timeout)
        if self._pool_args["max_sessions"] < 1:
            raise ValueError("max_sessions must be >= 1")
        self._sessions: Optional[SessionPool] = None
        self._lock = threading.Lock()
        #: One registry for every event counter and gauge of this
        #: service (:attr:`stats` snapshots it; traced solves and the
        #: perf harness read the same names).
        self._metrics = MetricsRegistry()
        self._inflight: Dict[str, Entry] = {}
        self._baseline = _setup_counters()
        self._closed = False
        self._monitor: Optional[Monitor] = None
        if monitor or record_traces > 0 or straggler is not None:
            mon = (monitor if isinstance(monitor, Monitor)
                   else Monitor(record_traces=record_traces,
                                policy=straggler))
            mon.attach("service", self._metrics)
            if self._cache is not None:
                mon.attach("cache", self._cache.metrics)
            mon.add_probe(self._monitor_probe)
            # Pre-create the SLO histograms so exports are stable even
            # before the first job completes.
            mon.histogram(WALL_HISTOGRAM)
            mon.histogram(QUEUE_HISTOGRAM)
            self._monitor = mon
        # Monitor before workers: _run_entry reads self._monitor.
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"serve-worker-{i}", daemon=True)
            for i in range(workers)]
        for t in self._workers:
            t.start()

    # -- submission --------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The service's live obs registry (counters and gauges)."""
        return self._metrics

    @property
    def monitor(self) -> Optional[Monitor]:
        """The attached live monitor, if monitoring is enabled."""
        return self._monitor

    def submit(self, grid: Grid3D, field: np.ndarray,
               config: Union[PipelineConfig, str],
               topology: Optional[Sequence[int]] = None,
               backend: str = "shared",
               stencil: Optional[StarStencil] = None,
               priority: int = 0,
               engine: Optional[str] = None) -> SolveFuture:
        """Queue one solve; mirrors :func:`repro.solve` plus ``priority``.

        Pass ``config="auto"`` to let the service pick the pipeline
        parameters (deterministic autotuner sweep on the machine model).
        ``engine`` overrides ``config.engine`` (see
        :func:`with_engine`); engines of one semantics class share
        cache entries, so an engine change alone never forces a
        recompute.
        """
        job = SolveJob(grid=grid, field=field,
                       config=with_engine(config, engine),
                       topology=(tuple(int(p) for p in topology)
                                 if topology is not None else (1, 1, 1)),
                       backend=backend, stencil=stencil, priority=priority)
        if engine is not None and not job.resolved:
            # The sweep keeps the default engine; the caller's "auto"
            # applies to the configuration it resolves to.
            job = self._resolve(job)
            job = job.with_config(replace(job.config, engine=engine))
        return self.submit_job(job)

    def submit_job(self, job: SolveJob) -> SolveFuture:
        """Queue a prepared :class:`SolveJob`; returns its future."""
        if self._closed:
            raise RuntimeError("service is closed")
        job = self._resolve(job)
        future = SolveFuture(job)
        key = (job.content_key()
               if (job.cacheable and self._cache is not None) else None)
        # The cache probe stays outside the service lock — the disk tier
        # does real I/O and the cache carries its own lock.  The window
        # in which a just-completed identical job is past this probe but
        # no longer in flight costs at most one redundant (and
        # bit-identical) recompute, never a wrong result.
        hit = self._cache.get(key) if key is not None else None
        t_queued = (self._monitor.clock()
                    if self._monitor is not None else 0.0)
        with self._lock:
            self._metrics.inc("submitted")
            if hit is not None:
                self._metrics.inc("cache_hits")
                future.cache_hit = True
            else:
                if key is not None:
                    inflight = self._inflight.get(key)
                    if inflight is not None:
                        self._metrics.inc("coalesced")
                        future.coalesced = True
                        inflight.futures.append(future)
                        return future
                entry = Entry(job=job, key=key, futures=[future],
                              t_queued=t_queued)
                if key is not None:
                    self._inflight[key] = entry
        if hit is not None:
            future._set_result(hit)
            return future
        self._queue.push(entry)
        self._metrics.set_gauge("queue_depth", len(self._queue))
        return future

    def map(self, jobs: Iterable[SolveJob],
            timeout: Optional[float] = None) -> List[SolveResult]:
        """Submit ``jobs`` and return their results in order.

        In synchronous mode (``workers=0``) this drains the queue
        itself.  Fail-fast: raises the first failed job's original
        exception (submission order), after all jobs finished.
        """
        futures = [self.submit_job(j) for j in jobs]
        if not self._workers:
            self.drain()
        return wait_all(futures, timeout=timeout)

    # -- execution ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._queue.pop_batch(timeout=0.2)
            if batch is None:
                if self._queue.closed:
                    return
                continue
            self._run_batch(batch)

    def drain(self) -> int:
        """Run everything queued on the calling thread; returns jobs run.

        The synchronous half of ``workers=0`` mode; also usable on a
        threaded service to lend the caller's thread to the pool.
        """
        ran = 0
        while True:
            batch = self._queue.pop_batch(timeout=0)
            if not batch:
                return ran
            self._run_batch(batch)
            ran += len(batch)

    def _run_batch(self, batch: List[Entry]) -> None:
        self._metrics.set_gauge("queue_depth", len(self._queue))
        self._metrics.set_gauge("batch_size", len(batch))
        if len(batch) > 1:
            self._metrics.inc("batches")
            self._metrics.inc("batched_jobs", len(batch))
        for entry in batch:
            self._run_entry(entry)

    def _resolve(self, job: SolveJob) -> SolveJob:
        """``job`` with a ``config="auto"`` resolved by the autotuner."""
        if job.resolved:
            return job
        from .autoconf import auto_config  # late: loads the machine model

        self._metrics.inc("auto_resolved")
        return job.with_config(
            auto_config(job.grid, job.topology, machine=self.machine))

    def _run_entry(self, entry: Entry) -> None:
        # Claim the waiters under the service lock — coalescing appends
        # to entry.futures under the same lock, so a future attached
        # concurrently is either claimed here or fanned out at
        # completion; it can never be dropped.  The same lock arbitrates
        # speculated pairs: the second pop of a re-queued entry claims
        # spec_claimed (identifying itself as the duplicate) and
        # whichever execution settles the entry first wins — the loser
        # discards its bit-identical result (or its error).
        mon = self._monitor
        t0 = mon.clock() if mon is not None else 0.0
        spec_run = False
        with self._lock:
            if entry.settled:
                return
            if entry.speculated and not entry.spec_claimed:
                entry.spec_claimed = True
                spec_run = True
            else:
                entry.t_started = t0
            live = [f for f in entry.futures if f._mark_started()]
            if not live:
                entry.settled = True
                if entry.key is not None:
                    self._inflight.pop(entry.key, None)
                self._metrics.inc("cancelled", len(entry.futures))
                return
        if mon is not None and not spec_run and entry.t_queued > 0:
            mon.observe(QUEUE_HISTOGRAM, max(0.0, t0 - entry.t_queued))
        record = mon is not None and mon.recorder is not None
        try:
            result, worker, trace = self._execute(entry.job, record=record)
        except BaseException as exc:  # noqa: BLE001 — future carries it
            with self._lock:
                if entry.settled:
                    self._metrics.inc("speculation_discarded")
                    return
                if spec_run:
                    # The duplicate failed while the stuck original is
                    # still running — let the original decide the
                    # entry's fate (speculation is latency insurance,
                    # never a new failure mode).
                    self._metrics.inc("speculation_failed")
                    return
                entry.settled = True
                if entry.key is not None:
                    self._inflight.pop(entry.key, None)
                self._metrics.inc("failed")
                waiters = list(entry.futures)
            for f in waiters:
                f._set_exception(exc)
        else:
            if mon is not None:
                service_s = mon.clock() - t0
                mon.observe(WALL_HISTOGRAM, service_s)
                # The loser of a speculated pair still contributes its
                # (slow) observation — that is the signal that flags
                # the limplocked worker.
                mon.detector.observe(worker, service_s)
                if record and trace is not None:
                    mon.recorder.record(
                        entry.job.describe(), trace, wall_s=service_s,
                        worker=worker, key=entry.key,
                        status="speculated" if spec_run else "ok")
            if entry.key is not None and self._cache is not None:
                # Populate the cache before dropping the in-flight entry
                # so a racing identical submit either coalesces or hits
                # (modulo the benign probe window documented in
                # submit_job).  Outside the service lock: the disk tier
                # may write real bytes.
                self._cache.put(entry.key, result)
            with self._lock:
                if entry.settled:
                    self._metrics.inc("speculation_discarded")
                    return
                entry.settled = True
                if spec_run:
                    self._metrics.inc("speculation_wins")
                if entry.key is not None:
                    self._inflight.pop(entry.key, None)
                self._metrics.inc("completed")
                waiters = list(entry.futures)
            # Every waiter owns its field: coalesced ones get a copy.
            for i, f in enumerate(waiters):
                f._set_result(result if i == 0 else _clone(result))

    def _execute(self, job: SolveJob, record: bool = False,
                 ) -> Tuple[SolveResult, str, Optional[Trace]]:
        """Run ``job``; returns (result, worker label, optional trace).

        The worker label is the straggler detector's identity:
        ``session-<sid>`` for procmpi (the pool-assigned stable session
        id — the unit quarantine acts on), ``backend-<name>`` for the
        in-thread backends.
        """
        self._metrics.inc("backend_solves")
        if job.backend == "procmpi":
            # Warm sessions bypass solve(), so certify here, as it would.
            from ..analysis import assert_legal

            assert_legal(job.config, job.grid.shape, job.topology)
            tracer = Tracer(pid=0, label="serve") if record else NULL_TRACER
            # A failed solve drops its session (crash-only) and the pool
            # warms a fresh one for the next job.
            result, sid = self._session_pool().run(
                job.grid, job.field, job.config, job.topology,
                stencil=job.stencil, tracer=tracer)
            return (result, f"session-{sid}",
                    tracer.finish() if record else None)
        from ..api import solve

        result = solve(job.grid, job.field, job.config,
                       topology=job.topology, backend=job.backend,
                       stencil=job.stencil, trace=record)
        return result, f"backend-{job.backend}", result.trace

    def _session_pool(self) -> SessionPool:
        """The service's procmpi session pool, built on first use."""
        with self._lock:
            if self._sessions is None:
                from ..dist.solver import SessionPool

                self._sessions = SessionPool(**self._pool_args)
            return self._sessions

    def _pool_info(self) -> Dict[str, Any]:
        """:meth:`SessionPool.info`, or its zeros before the first
        procmpi job."""
        if self._sessions is not None:
            return self._sessions.info()
        return {"max_sessions": self._pool_args["max_sessions"], "idle": [],
                "quarantined_sids": [], "created": 0, "reused": 0,
                "dropped": 0, "evicted": 0, "quarantined": 0}

    # -- monitoring --------------------------------------------------------------

    def _monitor_probe(self) -> None:
        """Policy pass, run at the start of every monitor sample.

        Refreshes the live gauges, quarantines sessions the straggler
        detector has flagged, and speculatively re-queues in-flight jobs
        stuck past the detection deadline.  Only content-keyed entries
        are speculation candidates (they are the ones tracked in
        ``_inflight``; bit-identical re-execution is exactly the cache
        key's contract).
        """
        mon = self._monitor
        if mon is None or self._closed:
            return
        self._metrics.set_gauge("queue_depth", len(self._queue))
        with self._lock:
            self._metrics.set_gauge("inflight", len(self._inflight))
        for worker in mon.detector.degraded():
            if worker.startswith("session-"):
                sid = int(worker.split("-", 1)[1])
                if self._session_pool().quarantine(sid):
                    self._metrics.inc("quarantined")
        deadline = mon.detector.deadline()
        if deadline is None:
            return
        now = mon.clock()
        requeue: List[Entry] = []
        with self._lock:
            for entry in self._inflight.values():
                if (entry.t_started > 0 and not entry.speculated
                        and not entry.settled
                        and now - entry.t_started > deadline):
                    entry.speculated = True
                    requeue.append(entry)
        for entry in requeue:
            try:
                self._queue.push(entry)
            except RuntimeError:  # closing — the drain will finish it
                break
            self._metrics.inc("speculated")

    def health(self) -> Dict[str, Any]:
        """One JSON-able dict of live service health.

        Always available; the monitor-derived sections (histograms,
        stragglers, monitor counters) are empty/None when monitoring is
        off.  Every value is JSON-strict (no inf/NaN — they become
        None), so the dict can be dumped straight into an HTTP health
        endpoint or the ``python -m repro.obs top`` view.
        """
        snap = self._metrics.snapshot()
        with self._lock:
            inflight = len(self._inflight)
        sessions = self._pool_info()
        mon = self._monitor
        hists: Dict[str, Any] = {}
        stragglers: List[Dict[str, Any]] = []
        monitor_info: Optional[Dict[str, int]] = None
        degraded: List[str] = []
        if mon is not None:
            hists = {h.name: h.snapshot() for h in mon.histograms()}
            degraded = mon.detector.degraded()
            stragglers = [{
                "worker": s.worker,
                "jobs": s.jobs,
                "last_s": _finite(s.last_s),
                "expected_s": _finite(s.expected_s),
                "ratio": _finite(s.ratio),
                "over": s.over,
                "flagged": s.flagged,
                "flagged_after": s.flagged_after,
            } for s in mon.detector.scores()]
            monitor_info = {
                "samples": mon.samples,
                "observations": mon.observations,
                "recorded_traces": (mon.recorder.recorded
                                    if mon.recorder is not None else 0),
            }
        status = ("closed" if self._closed
                  else "degraded" if (degraded or sessions["quarantined"])
                  else "ok")
        return {
            "status": status,
            "workers": len(self._workers),
            "queue_depth": len(self._queue),
            "inflight": inflight,
            "counters": {k: int(v) for k, v in snap["counters"].items()},
            "gauges": {k: _finite(v) for k, v in snap["gauges"].items()},
            "sessions": sessions,
            "histograms": hists,
            "stragglers": stragglers,
            "monitor": monitor_info,
        }

    # -- lifecycle ---------------------------------------------------------------

    @property
    def stats(self) -> ServiceStats:
        """An immutable point-in-time snapshot of the event counters.

        Built from one atomic read of the service's obs registry plus
        the pool and global setup counters; being frozen, the object a
        caller holds can never drift as the service keeps working.
        """
        now = _setup_counters()
        counts = self._metrics.snapshot()["counters"]
        sessions = self._pool_info()

        def c(name: str) -> int:
            return int(counts.get(name, 0))

        return ServiceStats(
            submitted=c("submitted"),
            completed=c("completed"),
            failed=c("failed"),
            cancelled=c("cancelled"),
            cache_hits=c("cache_hits"),
            coalesced=c("coalesced"),
            auto_resolved=c("auto_resolved"),
            batches=c("batches"),
            batched_jobs=c("batched_jobs"),
            backend_solves=c("backend_solves"),
            sessions_created=sessions["created"],
            sessions_reused=sessions["reused"],
            sessions_dropped=sessions["dropped"],
            sessions_quarantined=sessions["quarantined"],
            speculated=c("speculated"),
            speculation_wins=c("speculation_wins"),
            speculation_discarded=c("speculation_discarded"),
            process_spawns=now["spawns"] - self._baseline["spawns"],
            segments_created=now["segments"] - self._baseline["segments"],
        )

    def close(self) -> None:
        """Finish queued work, stop the workers, tear down the pool."""
        if self._closed:
            return
        self._closed = True
        self._queue.close()
        for t in self._workers:
            t.join()
        self.drain()  # synchronous mode: whatever is still queued
        if self._sessions is not None:
            self._sessions.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The default service behind repro.submit / repro.map.
# ---------------------------------------------------------------------------

_default: Optional[Service] = None
_default_lock = threading.Lock()


def default_service() -> Service:
    """The process-wide service (created on first use)."""
    global _default
    with _default_lock:
        if _default is None or _default._closed:
            _default = Service()
        return _default


def configure(**kwargs: Any) -> Service:
    """Replace the default service (closing any previous one).

    Accepts every :class:`Service` constructor argument, e.g.
    ``repro.serve.configure(workers=4, cache_dir="benchmarks/results/cache")``.
    """
    global _default
    with _default_lock:
        if _default is not None:
            _default.close()
        _default = Service(**kwargs)
        return _default


def with_engine(config: Union[PipelineConfig, str],
                engine: Optional[str]) -> Union[PipelineConfig, str]:
    """``config`` with ``engine`` (if any) overriding its engine.

    A concrete engine cannot be combined with ``config="auto"``, whose
    sweep picks the whole configuration; ``engine="auto"`` can, and
    :meth:`Service.submit` applies it to the resolved configuration.
    """
    if engine is None:
        return config
    if isinstance(config, PipelineConfig):
        return replace(config, engine=engine)
    if engine != "auto":
        raise ValueError(
            "a concrete engine cannot be combined with config='auto'; "
            "the autotuner resolves the full configuration, engine "
            "included (engine='auto' is allowed)")
    return config


def submit(grid: Grid3D, field: np.ndarray,
           config: Union[PipelineConfig, str],
           topology: Optional[Sequence[int]] = None,
           backend: str = "shared",
           stencil: Optional[StarStencil] = None,
           priority: int = 0,
           engine: Optional[str] = None) -> SolveFuture:
    """``repro.submit`` — queue one solve on the default service."""
    with_engine(config, engine)  # refused before the service is built
    return default_service().submit(grid, field, config, topology=topology,
                                    backend=backend, stencil=stencil,
                                    priority=priority, engine=engine)


def map_jobs(jobs: Iterable[SolveJob],
             timeout: Optional[float] = None) -> List[SolveResult]:
    """``repro.map`` — run many jobs on the default service, in order."""
    return default_service().map(jobs, timeout=timeout)


def shutdown() -> None:
    """Close the default service (registered atexit; safe to call twice)."""
    global _default
    with _default_lock:
        svc, _default = _default, None
    if svc is not None:
        svc.close()


atexit.register(shutdown)
