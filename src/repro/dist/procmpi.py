"""Process-backed MPI: run N ranks as real OS processes.

The thread rail (:mod:`repro.dist.simmpi`) overlaps ranks only while
NumPy releases the GIL; this transport runs one *process* per rank via
:mod:`multiprocessing`, so ranks overlap unconditionally and the rail
exercises genuine process isolation — separate address spaces, pickled
problem specs, shared-memory halo traffic, and process lifecycle (spawn
vs fork, crash recovery, segment cleanup).

:class:`ProcComm` implements the same :class:`repro.dist.comm.Comm`
protocol with the same three documented guarantees:

* **copy-on-send** — the message is detached from the sender's buffer at
  the moment ``send`` returns (copied into a shared-memory slot, or
  pickled immediately), so consecutive buffered sends cannot deadlock;
* **source-ordered delivery** — messages between one (src, dst) pair
  arrive in send order (single inbox queue per rank; per-producer FIFO);
* **fail-fast** — when any rank raises (or dies outright), the others
  are released from receives and full send rings with
  :class:`ProcMPIError` instead of hanging, and :func:`run_procs`
  re-raises the original exception in the parent.

Transport
---------
Array messages ride in preallocated **halo rings**: per ordered rank
pair, a shared-memory block of ``slots`` fixed-size slots guarded by a
semaphore (flow control), with only a tiny envelope going through the
inbox :class:`multiprocessing.Queue`.  Anything that does not fit a slot
— stats objects, oversized arrays — falls back to an eagerly pickled
envelope, which preserves the semantics at pipe cost.

Lifecycle
---------
:class:`ProcWorld` owns a *persistent* set of rank processes: spawn,
queues and halo rings are paid once, then any number of jobs
(``fn(comm, rank, *args)`` fan-outs) run against the warm world —
the mechanism behind the warm sessions of
:class:`repro.dist.solver.SessionPool`, which every procmpi ``solve``
and every ``repro.serve`` service draws from.  :func:`run_procs` runs
one job on a world of its own and tears it down.  An idle rank exits
when its parent process dies, however it dies.  Failure is crash-only: a
failed world refuses further jobs and is replaced wholesale, never
repaired in place.

Spawn vs fork
-------------
The start method defaults to ``fork`` where available (Linux; process
creation is milliseconds instead of a full interpreter re-import) and
``spawn`` elsewhere (the macOS/Windows default).  Override with the
``REPRO_PROCMPI_START`` environment variable or the ``start_method``
argument.  Because jobs are dispatched to the persistent rank processes
through queues, the rank function and its arguments must pickle under
*every* start method (module-level functions, no lambdas); the
requirement is checked up front so the error is a clear
:class:`ProcMPIError` rather than a wedged world.
"""

from __future__ import annotations

import os
import pickle
import queue as _queue
import threading
import traceback
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..obs.registry import SPAWNS_COUNTER
from .comm import Comm
from .shm import ShmBlockHandle, ShmPool, attach_block

__all__ = ["ProcMPIError", "ProcComm", "ProcWorld", "run_procs",
           "default_start_method", "SPAWNS_COUNTER"]

#: How long a blocked receive/ring-send waits before concluding
#: the run is wedged (mirrors ``simmpi.DEFAULT_TIMEOUT``).
DEFAULT_TIMEOUT = 120.0
_POLL = 0.05
#: Ring slots are padded to this alignment.
_SLOT_ALIGN = 64
#: Outstanding messages allowed per ordered pair before a send blocks.
DEFAULT_SLOTS = 2
#: Serialises rank starts across worlds.  A fork ``Popen`` opens the
#: child's sentinel pipe before ``os.fork()`` and closes its write end
#: after; a rank another thread forks in between inherits that write end,
#: and ``close`` then waits the full ``join`` timeout for a rank that
#: has already exited (two worlds started at once, as ``Service(workers=2)``
#: does).
_START_LOCK = threading.Lock()


class ProcMPIError(RuntimeError):
    """A process-MPI failure: timeout, aborted/dead peer, or bad rank."""


def default_start_method() -> str:
    """``REPRO_PROCMPI_START`` if set, else fork where available."""
    env = os.environ.get("REPRO_PROCMPI_START")
    if env:
        return env
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _abort_released(msg: str) -> ProcMPIError:
    """An error raised because *another* rank failed (not a root cause).

    The tag survives pickling (exception ``__dict__`` rides along), so
    the parent can re-raise a genuine :class:`ProcMPIError` root cause
    — a bad peer rank, a ring-order violation — in preference to the
    release errors it triggered in the other ranks.
    """
    exc = ProcMPIError(msg)
    exc.abort_induced = True
    return exc


@dataclass(frozen=True)
class _Ring:
    """One ordered pair's flow-controlled shared-memory slots."""

    handle: ShmBlockHandle
    slot_bytes: int
    slots: int
    sem: Any  # multiprocessing BoundedSemaphore(slots)


@dataclass
class _Links:
    """Everything a rank process needs; passed at Process creation.

    All members are either picklable descriptors or multiprocessing
    primitives, which may be inherited through ``Process`` arguments
    under every start method.
    """

    size: int
    timeout: float
    abort: Any       # mp.Event
    inboxes: List[Any]   # one mp.Queue per rank
    result_q: Any    # mp.Queue back to the parent
    rings: Dict[Tuple[int, int], _Ring]


class ProcComm(Comm):
    """One rank's endpoint over the multiprocess transport."""

    def __init__(self, rank: int, links: _Links) -> None:
        self.rank = int(rank)
        self.size = links.size
        self._links = links
        #: Messages dequeued while waiting for a different source.
        self._stash: Dict[int, Deque[Any]] = defaultdict(deque)
        #: Ring positions: shm messages sent per dest / decoded per src.
        self._sent: Dict[int, int] = defaultdict(int)
        self._decoded: Dict[int, int] = defaultdict(int)
        self._attached: Dict[Tuple[int, int], Any] = {}

    # -- internals ---------------------------------------------------------------

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ProcMPIError(f"rank {peer} outside world of size {self.size}")
        if peer == self.rank:
            raise ProcMPIError("self-messaging is not supported")

    def _ring_buf(self, pair: Tuple[int, int]):
        shm = self._attached.get(pair)
        if shm is None:
            shm = attach_block(self._links.rings[pair].handle)
            self._attached[pair] = shm
        return shm.buf

    def _wait(self, ready: Callable[[], bool], what: str) -> None:
        """Poll ``ready`` until true, abort, or timeout (fail-fast)."""
        waited = 0.0
        while True:
            if self._links.abort.is_set():
                raise _abort_released(f"{what} aborted: another rank failed")
            if ready():
                return
            waited += _POLL
            if waited >= self._links.timeout:
                raise ProcMPIError(
                    f"rank {self.rank}: {what} timed out after "
                    f"{self._links.timeout:.0f}s (deadlocked exchange or "
                    "dead peer?)")

    def _decode(self, env: Tuple) -> Tuple[int, Any]:
        """Envelope -> (src, value); frees ring slots eagerly.

        Decoding happens at *dequeue* time even for stashed messages, so
        a slot is never held hostage by an out-of-order receive and the
        sender's semaphore is released as early as possible.
        """
        kind, src = env[0], env[1]
        if kind == "pkl":
            return src, pickle.loads(env[2])
        # kind == "shm": (slot, shape, dtype.str)
        slot, shape, dtype = env[2], env[3], env[4]
        ring = self._links.rings[(src, self.rank)]
        expect = self._decoded[src] % ring.slots
        if slot != expect:  # pragma: no cover - internal invariant
            raise ProcMPIError(
                f"rank {self.rank}: ring slot {slot} from rank {src}, "
                f"expected {expect} (ordering violated)")
        buf = self._ring_buf((src, self.rank))
        n = int(np.prod(shape)) if shape else 1
        vals = np.frombuffer(buf, dtype=np.dtype(dtype), count=n,
                             offset=slot * ring.slot_bytes)
        out = vals.reshape(shape).copy()
        del vals
        self._decoded[src] += 1
        ring.sem.release()
        return src, out

    def _get(self, src: int, what: str) -> Any:
        stash = self._stash[src]
        if stash:
            return stash.popleft()
        inbox = self._links.inboxes[self.rank]
        while True:
            got: List[Any] = []

            def ready() -> bool:
                try:
                    got.append(inbox.get(timeout=_POLL))
                    return True
                except _queue.Empty:
                    return False

            self._wait(ready, what)
            sender, value = self._decode(got[0])
            if sender == src:
                return value
            self._stash[sender].append(value)

    def _put(self, dest: int, data: Any) -> None:
        ring = self._links.rings.get((self.rank, dest))
        if (ring is not None and isinstance(data, np.ndarray)
                and not data.dtype.hasobject
                and 0 < data.nbytes <= ring.slot_bytes):
            self._wait(lambda: ring.sem.acquire(timeout=_POLL),
                       f"send to rank {dest} (ring full)")
            slot = self._sent[dest] % ring.slots
            self._sent[dest] += 1
            flat = np.ascontiguousarray(data)
            dst = np.frombuffer(self._ring_buf((self.rank, dest)), np.uint8,
                                count=flat.nbytes,
                                offset=slot * ring.slot_bytes)
            dst[:] = flat.reshape(-1).view(np.uint8)
            del dst
            env = ("shm", self.rank, slot, data.shape, data.dtype.str)
        else:
            # Eager pickling *is* the copy-on-send snapshot: the sender
            # may mutate its buffer the moment this returns.
            env = ("pkl", self.rank,
                   pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL))
        self._links.inboxes[dest].put(env)

    def close(self) -> None:
        """Drop this rank's ring mappings (parent owns the segments)."""
        attached, self._attached = self._attached, {}
        for shm in attached.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass

    # -- point-to-point ----------------------------------------------------------

    def send(self, dest: int, data: Any) -> None:
        """Buffered send: the message is detached from ``data`` now."""
        self._check_peer(dest)
        self._put(dest, data)

    def recv(self, src: int) -> Any:
        """Blocking receive of the next message from ``src``."""
        self._check_peer(src)
        return self._get(src, f"recv from rank {src}")


# ---------------------------------------------------------------------------
# The drivers: a persistent rank world, and the one-shot run_procs on top.
# ---------------------------------------------------------------------------

def _serve_main(rank: int, links: _Links, task_q: Any,
                parent_pid: Optional[int]) -> None:
    """Entry point of one persistent rank process.

    Serves a stream of ``("job", job_id, fn, args)`` tasks until the
    ``("stop",)`` sentinel arrives, or until the driver (the process
    that started the world) dies: an idle rank waits on its task queue
    and on the parent's sentinel together, so a driver killed outright
    (``SIGKILL``) leaves no rank behind.  The sentinel alone misses a
    driver that forked before it died — the forked process inherits the
    sentinel pipe's write end and holds it open.  So the wait also
    watches a ``pidfd`` of the driver, opened at start (a driver already
    gone by then is a death too), and wakes once a second to end a rank
    that has been re-parented (``os.getppid()`` is no longer
    ``parent_pid``, the PID the driver recorded before starting it).
    Without ``pidfd`` (outside Linux) only the re-parenting check
    catches that case, and under ``forkserver`` it cannot: the ranks are
    the fork server's children (``parent_pid`` is ``None``).
    ``PR_SET_PDEATHSIG`` is not an option: it fires when the *thread*
    that started the rank exits, and sessions are started from worker
    threads.  A task that raises aborts the world and *ends this
    process*: a failed world is never reused (crash-only recovery) —
    the owning :class:`ProcWorld` reports the root cause and refuses
    further jobs, and its caller spawns a fresh world.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait

    comm = ProcComm(rank, links)
    # ``_reader`` is the queue's receiving pipe end; this rank is its
    # only reader, so a readable pipe means ``get`` will not block.
    watch = [task_q._reader, mp.parent_process().sentinel]
    parent = os.getppid() if parent_pid is None else parent_pid
    failed = False
    try:
        # Readable once the driver has exited, whoever holds its sentinel.
        watch.append(os.pidfd_open(mp.parent_process().pid))
    except ProcessLookupError:
        failed = True  # the driver died before this rank started
    except (AttributeError, OSError):
        pass  # no pidfd on this platform
    try:
        while not failed:
            ready = wait(watch, timeout=1.0)
            if any(w in ready for w in watch[1:]) or os.getppid() != parent:
                failed = True  # orphaned: nobody drains our queues now
                break
            if not ready:
                continue
            msg = task_q.get()
            if msg[0] == "stop":
                break
            _, job_id, fn, args = msg
            try:
                out = fn(comm, rank, *args)
                # Pickle the result ourselves: a Queue pickles in its
                # feeder *thread*, where a failure is silently dropped —
                # the parent would wait forever for a report that never
                # comes.  Done here, an unpicklable return value is just
                # another job failure with a clear message.
                ok_payload = pickle.dumps(out,
                                          protocol=pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # noqa: BLE001 — must reach the parent
                failed = True
                links.abort.set()
                try:
                    payload: Optional[bytes] = pickle.dumps(exc)
                except Exception:
                    payload = None
                links.result_q.put(("err", rank, job_id, payload, repr(exc),
                                    traceback.format_exc()))
                break
            else:
                links.result_q.put(("ok", rank, job_id, ok_payload))
    finally:
        if failed:
            # The world is aborting: nobody will drain our outbound halo
            # messages, and a blocked queue feeder would turn this rank
            # into a zombie.  Discard instead of flushing.
            for q in links.inboxes:
                try:
                    q.cancel_join_thread()
                except Exception:
                    pass
        comm.close()


def _make_rings(ctx, pool: ShmPool,
                pair_bytes: Optional[Mapping[Tuple[int, int], int]],
                slots: int, n_ranks: int) -> Dict[Tuple[int, int], _Ring]:
    rings: Dict[Tuple[int, int], _Ring] = {}
    for (src, dst), nbytes in (pair_bytes or {}).items():
        if not (0 <= src < n_ranks and 0 <= dst < n_ranks and src != dst):
            raise ValueError(f"bad ring pair ({src}, {dst}) for "
                             f"{n_ranks} ranks")
        if nbytes <= 0:
            continue
        slot_bytes = -(-int(nbytes) // _SLOT_ALIGN) * _SLOT_ALIGN
        handle = pool.create_block(slot_bytes * slots)
        rings[(src, dst)] = _Ring(handle=handle, slot_bytes=slot_bytes,
                                  slots=slots, sem=ctx.BoundedSemaphore(slots))
    return rings


def _reconstruct(msg: Tuple) -> BaseException:
    """Rebuild a child exception from its ("err", ...) report."""
    _, rank, _job_id, payload, rep, tb = msg
    if payload is not None:
        try:
            exc = pickle.loads(payload)
            if isinstance(exc, BaseException):
                return exc
        except Exception:
            pass
    return ProcMPIError(f"rank {rank} failed: {rep}\n{tb}")


def _root_cause(death_errors: List[Optional[BaseException]],
                errors: List[Optional[BaseException]],
                ) -> Optional[BaseException]:
    """Pick the error to re-raise in the parent.

    Root cause first: a hard death, then a real child exception, then a
    ProcMPIError that was not merely an abort release (bad peer, ring
    violation, timeout), and only then the release errors the root cause
    triggered in its peers.
    """
    for exc in death_errors:
        if exc is not None:
            return exc
    for exc in errors:
        if exc is not None and not isinstance(exc, ProcMPIError):
            return exc
    for exc in errors:
        if exc is not None and not getattr(exc, "abort_induced", False):
            return exc
    for exc in errors:
        if exc is not None:
            return exc
    return None


def _check_picklable(fn: Callable, args: Tuple) -> None:
    # Jobs reach the persistent rank processes through a
    # multiprocessing.Queue, which pickles under *every* start method —
    # an unpicklable payload would be dropped by the queue's feeder
    # thread and hang the world, so fail fast here instead.
    try:
        pickle.dumps((fn, args))
    except Exception as exc:
        raise ProcMPIError(
            f"the rank function and its arguments must pickle "
            f"(they are dispatched to the persistent rank processes "
            f"through a queue): {exc!r}; use module-level functions "
            "and picklable specs") from exc


class ProcWorld:
    """A persistent set of rank processes serving a stream of jobs.

    All one-time cost lives in the constructor: the process spawns (the
    expensive part, especially under the spawn start method where every
    rank re-imports the interpreter), the shared abort event and queues,
    and the flow-controlled shared-memory halo rings.
    :meth:`run_job` then dispatches one ``fn(comm, rank, *args)`` to
    every rank and collects the rank-ordered results — the per-job path
    pays **no** setup, which is what the serving layer's warm worker
    pools amortise.

    The ring geometry is fixed at construction (``pair_bytes`` sizes the
    slots); later jobs whose messages fit the slots reuse the rings, and
    oversized or unlisted traffic falls back to pickled envelopes with
    identical semantics, so a world built for one exchange plan safely
    serves any shape-compatible job.

    Failure is crash-only: if any rank raises or dies, the world aborts,
    every rank process exits, :meth:`run_job` re-raises the root cause
    and the world refuses further jobs.  Callers keep a warm world for
    the happy path and replace it wholesale on failure —
    there is no in-place repair of a half-poisoned exchange state.
    """

    def __init__(self, n_ranks: int,
                 timeout: float = DEFAULT_TIMEOUT,
                 start_method: Optional[str] = None,
                 pair_bytes: Optional[Mapping[Tuple[int, int], int]] = None,
                 slots: int = DEFAULT_SLOTS) -> None:
        import multiprocessing as mp

        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if slots < 1:
            raise ValueError("need at least one ring slot")
        method = start_method or default_start_method()
        if method not in mp.get_all_start_methods():
            raise ProcMPIError(
                f"start method {method!r} unavailable on this platform "
                f"(have {mp.get_all_start_methods()}); check "
                "REPRO_PROCMPI_START")
        self.n_ranks = n_ranks
        self.jobs_run = 0
        self._method = method
        self._closed = False
        self._broken = False
        self._next_job = 0
        self._procs: List[Any] = []
        self._pool = ShmPool()
        ctx = mp.get_context(method)
        self._inboxes = [ctx.Queue() for _ in range(n_ranks)]
        self._task_qs = [ctx.Queue() for _ in range(n_ranks)]
        self._result_q = ctx.Queue()
        try:
            rings = _make_rings(ctx, self._pool, pair_bytes, slots, n_ranks)
            self._links = _Links(size=n_ranks, timeout=timeout,
                                 abort=ctx.Event(),
                                 inboxes=self._inboxes,
                                 result_q=self._result_q, rings=rings)
            self._procs = [
                ctx.Process(target=_serve_main,
                            args=(r, self._links, self._task_qs[r],
                                  None if method == "forkserver"
                                  else os.getpid()),
                            name=f"procmpi-rank-{r}", daemon=True)
                for r in range(n_ranks)]
            with _START_LOCK:
                for p in self._procs:
                    p.start()
            from ..obs import registry

            registry.inc(SPAWNS_COUNTER, n_ranks)
        except BaseException:
            self.close()
            raise

    @property
    def start_method(self) -> str:
        """The multiprocessing start method the ranks were spawned with."""
        return self._method

    @property
    def closed(self) -> bool:
        return self._closed

    def run_job(self, fn: Callable[..., Any], args: Tuple = ()) -> List[Any]:
        """Execute ``fn(comm, rank, *args)`` once on every rank.

        Returns the per-rank return values in rank order.  If any rank
        raises, the world is aborted (peers blocked in receives and sends
        are released with :class:`ProcMPIError`), the
        *original* exception is re-raised here, and the world is closed
        and marked broken; a rank that dies without reporting
        (killed, segfault) surfaces as a :class:`ProcMPIError` naming
        the exit code.  Either way no shared-memory segment outlives the
        failure and no rank process is left behind.
        """
        if self._closed or self._broken:
            raise ProcMPIError(
                "this world is closed or broken; spawn a new one")
        _check_picklable(fn, args)
        job_id = self._next_job
        self._next_job += 1
        for q in self._task_qs:
            q.put(("job", job_id, fn, args))

        n_ranks = self.n_ranks
        results: List[Any] = [None] * n_ranks
        errors: List[Optional[BaseException]] = [None] * n_ranks
        #: Parent-synthesized errors for ranks that died without
        #: reporting — the root cause, outranking peers' abort errors.
        death_errors: List[Optional[BaseException]] = [None] * n_ranks
        reported = [False] * n_ranks

        def record(msg: Tuple) -> None:
            kind, rank, jid = msg[0], msg[1], msg[2]
            if jid != job_id:  # pragma: no cover - broken worlds never serve
                return
            reported[rank] = True
            if kind == "ok":
                results[rank] = pickle.loads(msg[3])
            else:
                errors[rank] = _reconstruct(msg)
                self._links.abort.set()

        # No global wall-clock cap here: `timeout` bounds *blocked*
        # communication inside the ranks (they self-report a
        # ProcMPIError when wedged), never healthy computation — a
        # long-running solve must be allowed to run, exactly as on the
        # thread transport.  The parent only watches for ranks that die
        # without reporting (killed, segfaulted).
        while not all(reported):
            try:
                record(self._result_q.get(timeout=_POLL))
                continue
            except _queue.Empty:
                pass
            for r, p in enumerate(self._procs):
                if not reported[r] and not p.is_alive():
                    # Dead without a report — unless its message is
                    # still in flight in the result pipe.
                    try:
                        record(self._result_q.get(timeout=0.5))
                    except _queue.Empty:
                        reported[r] = True
                        death_errors[r] = ProcMPIError(
                            f"rank {r} died without reporting "
                            f"(exit code {p.exitcode})")
                        self._links.abort.set()
                    break
        self.jobs_run += 1
        root = _root_cause(death_errors, errors)
        if root is not None:
            self._broken = True
            self.close()
            raise root
        return results

    def close(self) -> None:
        """Stop, join (or kill) every rank and unlink all segments.

        Idempotent, and safe after any failure mode — the ``finally``
        teardown the one-shot driver always had, now callable.
        """
        if self._closed and not self._procs:
            return
        self._closed = True
        for q in self._task_qs:
            try:
                q.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        # A rank whose start() raised has no process to join.
        procs, self._procs = [p for p in self._procs if p.pid is not None], []
        try:
            for p in procs:
                p.join(timeout=10.0)
            for p in procs:
                if p.is_alive():  # pragma: no cover - wedged child
                    p.terminate()
                    p.join(timeout=5.0)
                    if p.is_alive():
                        p.kill()
                        p.join(timeout=5.0)
        finally:
            for q in [self._result_q, *self._inboxes, *self._task_qs]:
                try:
                    q.close()
                    q.join_thread()
                except Exception:  # pragma: no cover
                    pass
            self._pool.cleanup()


def run_procs(n_ranks: int, fn: Callable[..., Any],
              args: Tuple = (),
              timeout: float = DEFAULT_TIMEOUT,
              start_method: Optional[str] = None,
              pair_bytes: Optional[Mapping[Tuple[int, int], int]] = None,
              slots: int = DEFAULT_SLOTS) -> List[Any]:
    """Execute ``fn(comm, rank, *args)`` on ``n_ranks`` OS processes.

    A one-shot :class:`ProcWorld`: spawn, run the single job, tear
    everything down.  Returns the per-rank return values in rank order.
    If any rank raises, the world is aborted (peers blocked in receives
    and sends are released with :class:`ProcMPIError`) and the
    *original* exception is re-raised in the caller; a rank that dies
    without reporting (killed, segfault) is detected by the parent and
    surfaces as a :class:`ProcMPIError` naming the exit code.  All
    shared-memory segments are unlinked and all rank processes joined or
    terminated before this function returns, success or not.

    Parameters
    ----------
    pair_bytes:
        Optional ``{(src, dst): max_message_bytes}`` map; listed pairs
        get preallocated shared-memory halo rings (``slots`` outstanding
        messages each).  Unlisted traffic uses pickled envelopes.
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"``; defaults to
        :func:`default_start_method`.  ``fn``, ``args`` and the return
        values must be picklable under *every* start method — jobs and
        results travel queues to the persistent rank processes.
    """
    # run_job's pickle pre-check covers the unpicklable case (at the
    # cost of spawning first on that error path — rare enough not to
    # pay an extra full pickle of the payload on every healthy call).
    world = ProcWorld(n_ranks, timeout=timeout, start_method=start_method,
                      pair_bytes=pair_bytes, slots=slots)
    try:
        return world.run_job(fn, args)
    finally:
        world.close()
