"""Distributed-memory solvers: the hybrid scheme and multi-halo Jacobi.

:func:`distributed_jacobi_pipelined` is the paper's headline hybrid
(Sect. 2.2): every rank drives the *shared-memory* pipelined executor
(:class:`~repro.core.executor.PipelineExecutor`) over its trapezoid via
the executor's ``active_fn`` hook, with ``h = n·t·T`` chosen so one
executor pass consumes exactly one halo exchange.  Between passes the
ranks run the 3-phase ghost-cell-expansion exchange of
:mod:`repro.dist.exchange` over a :class:`~repro.dist.comm.Comm`, and it
returns the unified :class:`~repro.core.pipeline.SolveResult`.

The paper's Sect. 2.1 multi-halo scheme (exchange ``h`` ghost layers,
run ``h`` plain Jacobi updates where update ``s`` covers a region
``h − s`` layers larger than the core, repeat) is its one-stage,
``T = h`` case on one untiled block:
``PipelineConfig(teams=1, threads_per_team=1, updates_per_thread=h,
passes=supersteps, block_size=grid.shape)``.

It runs on either **transport**: ``"simmpi"`` executes one thread per
rank (:func:`repro.dist.simmpi.run_ranks`), ``"procmpi"`` one OS process
per rank with the global field, the assembled result and the halo rings
living in :mod:`multiprocessing.shared_memory` blocks.  Process ranks
are launched once: every procmpi solve checks a warm
:class:`ProcSolverSession` (ranks, field segments, rings) out of one
process-wide :class:`SessionPool` and hands it back, so a repeated solve
forks nothing and maps no fresh segment (see `Warm world`_).  The
per-rank algorithm (:func:`_pipelined_rank_body`) is shared by both
transports, so they cannot diverge — the cross-backend differential
battery in ``tests/test_backend_equivalence`` pins them bit-identical to
each other.

Every ghost cell a rank updates is *also* updated by its owner from the
same inputs and the same per-cell floating-point sequence, so the
redundant trapezoid work is bit-consistent across ranks and the
assembled field is byte-identical to ``reference_sweeps`` on the
undecomposed domain.

Warm world
----------
The pool behind :func:`distributed_jacobi_pipelined` keeps at most one
idle session.  Its ranks and its two field segments stay alive until
:func:`drop_warm_pool` or interpreter exit, and a session of another
geometry or start method replaces it.  Idle ranks never outlive the
process that owns them: each waits on its task queue and on its
parent's sentinel together and exits when the parent dies, even by
``SIGKILL``.  A process forked from the owner starts with an empty pool
and never drives or closes the owner's ranks.  :class:`repro.serve.Service` keeps its own
:class:`SessionPool` of the same class.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import util as mp_util
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.executor import ExecutionStats, PipelineExecutor
from ..core.parameters import PipelineConfig
from ..core.pipeline import SolveResult
from ..grid.grid3d import DirichletBoundary, Grid3D
from ..grid.region import Box
from ..kernels.jacobi import jacobi7
from ..kernels.stencils import StarStencil
from ..obs.tracer import NULL_TRACER, Tracer
from .comm import Comm
from .decomp import CartesianDecomposition
from .exchange import ExchangeEntry, exchange_plan
from .procmpi import ProcMPIError, ProcWorld, default_start_method
from .shm import ShmArrayHandle, ShmPool, attach_array
from .simmpi import run_ranks

__all__ = ["TRANSPORTS", "ProcSolverSession", "SessionPool", "drop_warm_pool",
           "distributed_jacobi_pipelined"]

Coord = Tuple[int, int, int]

#: Rank transports understood by the distributed front-ends.
TRANSPORTS = ("simmpi", "procmpi")


def _check_transport(transport: str) -> None:
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; choose from {TRANSPORTS}")


def _shifted_boundary(boundary: DirichletBoundary, off: Coord) -> DirichletBoundary:
    """The global Dirichlet ring expressed in rank-local coordinates.

    Per-face constants translate unchanged (a stored face either *is* the
    matching global face or is never read); a spatially varying ``func``
    needs its coordinates shifted back to global.
    """
    if boundary.func is None:
        return DirichletBoundary(boundary.default, faces=dict(boundary.faces))
    oz, oy, ox = off

    def shifted(z: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        return boundary.func(z + oz, y + oy, x + ox)

    return DirichletBoundary(boundary.default, faces=dict(boundary.faces),
                             func=shifted)


def _run_exchange(comm: Comm, plan: List[ExchangeEntry],
                  extract: Callable[[Box], np.ndarray],
                  inject: Callable[[Box, np.ndarray], None],
                  tracer: Tracer = NULL_TRACER) -> Tuple[int, int]:
    """One full 3-phase ghost exchange; returns (bytes_sent, messages).

    Within a phase all sends are issued before any receive — sends are
    buffered (copy-on-send), so this cannot deadlock regardless of rank
    interleaving.  Phases are ordered (dim 0, 1, 2) because later phases
    forward the ghost data received in earlier ones (Fig. 4).

    When traced, each non-empty phase becomes a span, every send bumps
    the ``exchange.bytes``/``exchange.messages`` counters, and each
    blocking receive gets an ``exchange.recv_wait`` span — the wait-time
    signal :func:`repro.obs.trace_metrics` aggregates per solve.
    """
    nbytes = 0
    messages = 0
    for dim in range(3):
        phase = [e for e in plan if e[0] == dim]
        if not phase:
            continue
        with tracer.span("exchange.phase", cat="dist", dim=dim,
                         entries=len(phase)):
            for (_, _, peer, send, _) in phase:
                vals = extract(send)
                comm.send(peer, vals)
                nbytes += vals.nbytes
                messages += 1
                tracer.count("exchange.bytes", vals.nbytes)
                tracer.count("exchange.messages")
            for (_, _, peer, _, recv) in phase:
                with tracer.span("exchange.recv_wait", cat="dist", peer=peer):
                    vals = comm.recv(peer)
                inject(recv, vals)
    return nbytes, messages


def _pair_bytes(plans: List[List[ExchangeEntry]],
                dtype) -> dict:
    """Max message bytes per ordered rank pair (sizes the halo rings)."""
    itemsize = np.dtype(dtype).itemsize
    out: dict = {}
    for rank, plan in enumerate(plans):
        for (_, _, peer, send, _) in plan:
            key = (rank, peer)
            out[key] = max(out.get(key, 0), send.ncells * itemsize)
    return out


def _assemble(grid: Grid3D,
              pieces: List[Tuple[Box, np.ndarray]]) -> np.ndarray:
    """Stitch the rank cores back into one global interior array."""
    out = np.empty(grid.shape, dtype=grid.dtype)
    for core, vals in pieces:
        out[core.slices()] = vals
    return out


def _neg(off: Coord) -> Coord:
    return (-off[0], -off[1], -off[2])


# ---------------------------------------------------------------------------
# Per-rank algorithm bodies, shared by the thread and process transports.
# ---------------------------------------------------------------------------

def _pipelined_rank_body(comm: Comm, rank: int, boundary: DirichletBoundary,
                         dtype, decomp: CartesianDecomposition,
                         plan: List[ExchangeEntry], stored_field: np.ndarray,
                         config: PipelineConfig, stencil: StarStencil,
                         order: str, tracer: Tracer = NULL_TRACER,
                         ) -> Tuple[Box, np.ndarray, int, int, ExecutionStats]:
    """One rank of the hybrid scheme; returns the core as a storage view."""
    h = config.updates_per_pass
    geo = decomp.geometry(rank)
    off = geo.stored.lo
    neg = _neg(off)
    lgrid = Grid3D(geo.stored.shape,
                   boundary=_shifted_boundary(boundary, off),
                   dtype=dtype)
    core_l = geo.core.shift(neg)

    def active_fn(level: int) -> Box:
        # Pass-local update u covers the core + (h - u) ghost layers:
        # the shrinking trapezoid; the executor clips to the stored box.
        u = (level - 1) % h + 1
        return core_l.grow(h - u)

    with tracer.span("rank", cat="dist", rank=rank):
        ex = PipelineExecutor(
            lgrid, stored_field, config, stencil, order=order,
            active_fn=active_fn, tracer=tracer,
        )
        storage = ex.storage
        nbytes = messages = 0
        for p in range(config.passes):
            base = p * h

            def extract(box: Box, base: int = base) -> np.ndarray:
                return storage.extract_region(box.shift(neg), base)

            def inject(box: Box, vals: np.ndarray, base: int = base) -> None:
                storage.inject(box.shift(neg), base, vals)

            b, m = _run_exchange(comm, plan, extract, inject, tracer=tracer)
            nbytes += b
            messages += m
            ex.run_pass(p)
        final = config.passes * h
    return geo.core, storage.read(core_l, final), nbytes, messages, ex.stats


# ---------------------------------------------------------------------------
# procmpi rank entry points: module-level (spawn-picklable) wrappers that
# resolve shared-memory fields, rebuild the geometry, and run the bodies.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ProcTask:
    """Picklable problem description shipped to every rank process.

    The rank rebuilds the (cheap, deterministic) decomposition and its
    exchange plan locally instead of shipping every rank's plan to every
    process; only the field data travels through shared memory.
    """

    shape: Coord
    dtype: str
    boundary: DirichletBoundary
    proc_grid: Coord
    halo: int
    stencil: StarStencil
    field_in: ShmArrayHandle
    field_out: ShmArrayHandle
    #: The rank's pipeline; its ``engine`` rides along, so spawned
    #: ranks dispatch the same kernels as thread ranks.
    config: PipelineConfig
    order: str = "round_robin"
    #: Record an observability trace in the rank and ship it back with
    #: the results (defaulted, so pickled tasks stay compatible).
    trace: bool = False


def _proc_pipelined_entry(comm: Comm, rank: int, task: _ProcTask):
    decomp = CartesianDecomposition(task.shape, task.proc_grid, task.halo)
    plan = exchange_plan(decomp, decomp.geometry(rank))
    tracer = Tracer(pid=rank) if task.trace else NULL_TRACER
    with attach_array(task.field_in) as fin, \
            attach_array(task.field_out) as fout:
        geo = decomp.geometry(rank)
        core, vals, nbytes, messages, stats = _pipelined_rank_body(
            comm, rank, task.boundary, np.dtype(task.dtype), decomp, plan,
            fin[geo.stored.slices()], task.config, task.stencil,
            task.order, tracer=tracer)
        fout[core.slices()] = vals
    # The trace rides the existing result queue back to the driver as a
    # plain picklable dataclass; timestamps stay rank-clock-local and
    # the driver re-bases them when absorbing (fork and spawn safe).
    return core, nbytes, messages, stats, (tracer.finish()
                                           if task.trace else None)


class ProcSolverSession:
    """Persistent procmpi setup, reused across shape-compatible solves.

    A procmpi solve needs (1) the rank processes, (2) the shared-memory
    input and output field blocks and (3) the per-pair halo rings.  A
    session pays all three once, at construction: it owns a
    :class:`~repro.dist.procmpi.ProcWorld` plus the two field segments,
    and its one solve method, :meth:`solve_pipelined`, only copies the
    field in, dispatches one job to the warm ranks and reads the
    assembled result back (the multi-halo sweeps are its one-stage
    config).  Sessions are checked out of a :class:`SessionPool`: the
    process-wide one behind ``solve(backend="procmpi")``, or a
    ``repro.serve`` service's own.

    A session is keyed by ``(shape, dtype, proc_grid, halo)`` — see
    :meth:`compatible`.  Boundary, stencil and pipeline config travel
    with each job, so one session serves any problem on that geometry.
    Failure is crash-only (inherited from :class:`ProcWorld`): a solve
    that fails closes the session — segments unlinked, ranks joined —
    re-raises the original error, and the owner spawns a fresh session
    for subsequent jobs.
    """

    def __init__(self, shape: Sequence[int], dtype, proc_grid: Sequence[int],
                 halo: int, start_method: Optional[str] = None) -> None:
        self.shape: Coord = tuple(int(s) for s in shape)  # type: ignore[assignment]
        self.dtype = np.dtype(dtype)
        self.halo = int(halo)
        # Decompose and plan first: a geometry that cannot be cut raises
        # here, before any segment or process exists.
        self.decomp = CartesianDecomposition(self.shape, proc_grid, self.halo)
        plans = [exchange_plan(self.decomp, self.decomp.geometry(r))
                 for r in range(self.decomp.n_ranks)]
        self.solves = 0
        #: Stable identity within a pool (assigned by SessionPool; -1 =
        #: unpooled).  Straggler scores and quarantine decisions key on it.
        self.sid = -1
        self._pool = ShmPool()
        self._world: Optional[ProcWorld] = None
        try:
            self._fin_handle, self._fin = self._pool.create_array(
                self.shape, self.dtype)
            self._fout_handle, self._fout = self._pool.create_array(
                self.shape, self.dtype)
            self._world = ProcWorld(
                self.decomp.n_ranks, start_method=start_method,
                pair_bytes=_pair_bytes(plans, self.dtype))
        except BaseException:
            self.close()
            raise

    @property
    def proc_grid(self) -> Coord:
        return self.decomp.proc_grid

    @property
    def start_method(self) -> Optional[str]:
        """The start method of the ranks (None once closed)."""
        return None if self._world is None else self._world.start_method

    @property
    def closed(self) -> bool:
        return self._world is None or self._world.closed

    def compatible(self, shape: Sequence[int], dtype,
                   proc_grid: Sequence[int], halo: int) -> bool:
        """Whether this session can serve the given problem geometry."""
        return (not self.closed
                and self.shape == tuple(int(s) for s in shape)
                and self.dtype == np.dtype(dtype)
                and self.proc_grid == tuple(int(p) for p in proc_grid)
                and self.halo == int(halo))

    def solve_pipelined(self, grid: Grid3D, field: np.ndarray,
                        config: PipelineConfig,
                        stencil: Optional[StarStencil] = None,
                        order: str = "round_robin",
                        tracer: Tracer = NULL_TRACER) -> SolveResult:
        """The hybrid scheme on the warm ranks; ``h`` must match the session.

        Seeds the input segment, dispatches one job to the warm world and
        reads the assembled result back.
        """
        if config.updates_per_pass != self.halo:
            raise ValueError(
                f"config h={config.updates_per_pass} != session halo "
                f"{self.halo}")
        if self.closed:
            raise ProcMPIError("this solver session is closed")
        if grid.shape != self.shape or np.dtype(grid.dtype) != self.dtype:
            raise ValueError(
                f"problem {grid.shape}/{np.dtype(grid.dtype)} does not fit "
                f"this session ({self.shape}/{self.dtype})")
        if field.shape != self.shape:
            raise ValueError(
                f"field shape {field.shape} != grid shape {self.shape}")
        self._fin[...] = field
        task = _ProcTask(shape=self.shape, dtype=self.dtype.str,
                         boundary=grid.boundary,
                         proc_grid=self.proc_grid, halo=self.halo,
                         stencil=stencil or jacobi7(),
                         field_in=self._fin_handle,
                         field_out=self._fout_handle, config=config,
                         order=order, trace=tracer.enabled)
        # Anchor for merging rank traces: the ranks' clock origins are
        # not comparable to ours under spawn, so their spans are slid
        # onto this dispatch timestamp when absorbed.
        dispatch = time.perf_counter()
        try:
            outs = self._world.run_job(_proc_pipelined_entry, args=(task,))
        except BaseException:
            # Crash-only: the world is already down; release the field
            # segments too so a failed session never leaks /dev/shm.
            self.close()
            raise
        self.solves += 1
        assembled = np.array(self._fout, copy=True)
        if tracer.enabled:
            for rank, o in enumerate(outs):
                if o[4] is not None:
                    tracer.absorb(o[4], pid=rank + 1, at=dispatch,
                                  label=f"rank {rank} (proc)")
        return SolveResult(
            field=assembled,
            levels_advanced=config.total_updates,
            stats=ExecutionStats().merge(*(o[3] for o in outs)),
            config=config,
            backend="procmpi",
            topology=self.proc_grid,
            n_ranks=self.decomp.n_ranks,
            halo=self.halo,
            bytes_exchanged=sum(o[1] for o in outs),
            messages=sum(o[2] for o in outs),
        )

    def close(self) -> None:
        """Tear down the world and unlink the field segments (idempotent)."""
        world, self._world = self._world, None
        if world is not None:
            world.close()
        self._pool.cleanup()


class SessionPool:
    """Exclusive check-out pool of warm :class:`ProcSolverSession`\\ s.

    * ``acquire(shape, dtype, topology, halo)`` hands the caller an
      exclusive warm session of that geometry, started the pool's way
      (reuse), or builds one (cold start);
    * ``release(session)`` returns it for the next solve — or closes and
      drops it when the solve failed (sessions are crash-only, like the
      :class:`~repro.dist.procmpi.ProcWorld` underneath);
    * at most ``max_sessions`` are kept idle; a release beyond that, or
      a cold start while full, closes the least-recently-used one.

    Every session carries a pool-assigned stable id (``session.sid``) —
    the identity straggler scores key on — and the pool is the policy
    surface the service's monitor drives: :meth:`quarantine` marks a
    repeatedly degraded session so it is closed instead of reused (idle
    ones immediately, checked-out ones at release).  Quarantine is
    one-way; the replacement is simply the next cold start.

    All counters (``created``, ``reused``, ``dropped``, ``evicted``,
    ``quarantined``) are deterministic for a fixed sequence of solves.
    """

    def __init__(self, max_sessions: int = 2) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self._idle: List[ProcSolverSession] = []  # LRU order: oldest first
        self._lock = threading.Lock()
        self._closed = False
        self._next_sid = 0
        self._quarantine: Set[int] = set()
        self.created = 0
        self.reused = 0
        self.dropped = 0
        self.evicted = 0
        self.quarantined = 0

    def acquire(self, shape: Sequence[int], dtype, topology: Sequence[int],
                halo: int) -> ProcSolverSession:
        """An exclusive session of this geometry (warm if possible)."""
        # Resolved per call: ``REPRO_PROCMPI_START`` may change between
        # solves, and a world started the other way must not serve them.
        method = default_start_method()
        evict: List[ProcSolverSession] = []
        try:
            with self._lock:
                if self._closed:
                    raise RuntimeError("session pool is closed")
                for i, session in enumerate(self._idle):
                    if (session.start_method == method and
                            session.compatible(shape, dtype, topology, halo)):
                        self._idle.pop(i)
                        self.reused += 1
                        return session
                while len(self._idle) >= self.max_sessions:
                    evict.append(self._idle.pop(0))
                    self.evicted += 1
        finally:
            # Teardown joins rank processes (seconds for a wedged one) —
            # never do that while holding the pool lock.
            for session in evict:
                session.close()
        # Build outside the lock too: spawning ranks is the slow part
        # and other callers must keep being served meanwhile.
        session = ProcSolverSession(shape, dtype, topology, halo,
                                    start_method=method)
        with self._lock:
            session.sid = self._next_sid
            self._next_sid += 1
            self.created += 1
        return session

    def release(self, session: ProcSolverSession,
                broken: bool = False) -> None:
        """Return a session to the idle set, or drop a broken one.

        A quarantined session never re-enters the idle set: it is
        closed here, exactly like a broken one — the monitor's verdict
        and a crash take the same recovery path.
        """
        if broken or session.closed or self.is_quarantined(session.sid):
            session.close()
            with self._lock:
                self.dropped += 1
            return
        evict: List[ProcSolverSession] = []
        with self._lock:
            if self._closed:
                evict.append(session)
            else:
                self._idle.append(session)
                while len(self._idle) > self.max_sessions:
                    evict.append(self._idle.pop(0))
                    self.evicted += 1
        for s in evict:
            s.close()

    def run(self, grid: Grid3D, field: np.ndarray, config: PipelineConfig,
            topology: Sequence[int], **solve_kwargs) -> Tuple[SolveResult, int]:
        """One hybrid solve on a checked-out session; ``(result, sid)``.

        The session goes back to the pool afterwards, or is dropped if
        the solve raised (``solve_kwargs`` go to
        :meth:`ProcSolverSession.solve_pipelined`).
        """
        session = self.acquire(grid.shape, grid.dtype, topology,
                               config.updates_per_pass)
        try:
            result = session.solve_pipelined(grid, field, config,
                                             **solve_kwargs)
        except BaseException:
            self.release(session, broken=True)
            raise
        self.release(session)
        return result, session.sid

    # -- straggler policy hooks ---------------------------------------------

    def quarantine(self, sid: int) -> bool:
        """Bar session ``sid`` from further reuse; True if newly barred.

        An idle session with that id is closed immediately; a
        checked-out one finishes its current job and is closed at
        :meth:`release` (its in-flight job is the speculative
        re-execution candidate — the monitor handles that side).
        """
        close: List[ProcSolverSession] = []
        with self._lock:
            if self._closed or sid in self._quarantine:
                return False
            self._quarantine.add(sid)
            self.quarantined += 1
            keep: List[ProcSolverSession] = []
            for session in self._idle:
                (close if session.sid == sid else keep).append(session)
            self._idle = keep
            self.dropped += len(close)
        for session in close:
            session.close()
        return True

    def is_quarantined(self, sid: int) -> bool:
        with self._lock:
            return sid in self._quarantine

    def info(self) -> Dict[str, object]:
        """A JSON-able snapshot for ``Service.health()``."""
        with self._lock:
            return {
                "max_sessions": self.max_sessions,
                "idle": sorted(s.sid for s in self._idle),
                "quarantined_sids": sorted(self._quarantine),
                "created": self.created,
                "reused": self.reused,
                "dropped": self.dropped,
                "evicted": self.evicted,
                "quarantined": self.quarantined,
            }

    def close(self) -> None:
        """Tear down every idle session; later releases close theirs."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for session in idle:
            session.close()


#: The warm world behind every ``solve(backend="procmpi")``.
_warm = SessionPool(max_sessions=1)


def drop_warm_pool() -> None:
    """Close the warm procmpi world that ``solve`` keeps between calls.

    Joins its ranks and unlinks its segments now; the next procmpi solve
    starts a fresh world.  Runs at interpreter exit; call it wherever no
    rank process or segment may outlive a piece of work (the test
    suite's leak checks do).  A solve in flight on another thread keeps
    its session and closes it when it finishes.
    """
    global _warm
    pool, _warm = _warm, SessionPool(max_sessions=1)
    pool.close()


def _forget_warm_pool() -> None:
    """``fork`` child hook: start with an empty pool, own no parent rank.

    The inherited sessions belong to the parent: closing them here would
    stop its ranks and unlink its segments.  Every inherited process
    object also leaves ``multiprocessing``'s child table (rank processes
    are not this process's children), so its exit handler does not
    terminate the parent's daemon ranks either.
    """
    global _warm
    _warm = SessionPool(max_sessions=1)
    from multiprocessing import process

    pid = os.getpid()
    for child in list(process._children):
        if child._parent_pid != pid:
            process._children.discard(child)


# Dropped by multiprocessing's own exit handler, ahead of the queue
# finalizers (exit priority 10) and of the termination of daemon
# children that follows them: idle ranks get their stop message.
mp_util.Finalize(None, drop_warm_pool, exitpriority=20)
os.register_at_fork(after_in_child=_forget_warm_pool)


# ---------------------------------------------------------------------------
# Hybrid: pipelined temporal blocking per rank (Sect. 2.2)
# ---------------------------------------------------------------------------

def distributed_jacobi_pipelined(
    grid: Grid3D,
    field: np.ndarray,
    proc_grid: Sequence[int],
    config: PipelineConfig,
    stencil: Optional[StarStencil] = None,
    order: str = "round_robin",
    transport: str = "simmpi",
    tracer: Tracer = NULL_TRACER,
) -> SolveResult:
    """The paper's hybrid scheme: one pipelined executor per rank.

    The halo width is ``h = config.updates_per_pass`` (= ``n·t·T``) so a
    single executor pass exactly drains one exchange; ``config.passes``
    becomes the number of supersteps.  Requires the two-grid storage
    scheme: the compressed grid's shifted storage positions do not
    compose with ghost injection across ranks.  ``transport`` picks
    thread ranks (``"simmpi"``) or process ranks (``"procmpi"``), which
    run on the process-wide warm world (see `Warm world`_).
    An enabled ``tracer`` (see :func:`repro.solve`'s ``trace=``) records
    per-rank spans and merges every rank onto its timeline.
    """
    if config.storage != "twogrid":
        raise ValueError(
            "distributed pipelining requires the 'twogrid' storage scheme; "
            f"the {config.storage!r} layout cannot absorb ghost injections"
        )
    _check_transport(transport)
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} != grid shape {grid.shape}")
    st = stencil or jacobi7()
    if transport == "procmpi":
        return _warm.run(grid, field, config, proc_grid, stencil=st,
                         order=order, tracer=tracer)[0]

    h = config.updates_per_pass
    decomp = CartesianDecomposition(grid.shape, proc_grid, h)
    plans = [exchange_plan(decomp, decomp.geometry(r))
             for r in range(decomp.n_ranks)]

    def rank_fn(comm: Comm, rank: int):
        geo = decomp.geometry(rank)
        # One tracer per thread rank; finished into a picklable Trace
        # that rides the rank's result tuple, exactly like procmpi.
        rtracer = Tracer(pid=rank) if tracer.enabled else NULL_TRACER
        body = _pipelined_rank_body(comm, rank, grid.boundary, grid.dtype,
                                    decomp, plans[rank],
                                    field[geo.stored.slices()], config, st,
                                    order, tracer=rtracer)
        return body + ((rtracer.finish() if tracer.enabled else None),)

    outs = run_ranks(decomp.n_ranks, rank_fn)
    if tracer.enabled:
        # Thread ranks share our clock, so each trace is absorbed at its
        # own start (zero shift) — the genuine stagger is preserved.
        for rank, o in enumerate(outs):
            if o[5] is not None:
                tracer.absorb(o[5], pid=rank + 1, at=o[5].start,
                              label=f"rank {rank} (thread)")
    return SolveResult(
        field=_assemble(grid, [(core, vals) for core, vals, *_ in outs]),
        levels_advanced=config.total_updates,
        stats=ExecutionStats().merge(*(o[4] for o in outs)),
        config=config,
        backend="simmpi",
        topology=decomp.proc_grid,
        n_ranks=decomp.n_ranks,
        halo=h,
        bytes_exchanged=sum(o[2] for o in outs),
        messages=sum(o[3] for o in outs),
    )
