"""The multiprocess rail: ProcComm semantics, rings, lifecycle, spawn.

Every rank function is module-level so the same tests run under the
``fork`` and ``spawn`` start methods (CI exercises both via
``REPRO_PROCMPI_START``).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
from repro.dist import SEGMENTS_COUNTER, SPAWNS_COUNTER, drop_warm_pool
from repro.dist.procmpi import (
    ProcComm,
    ProcMPIError,
    ProcWorld,
    default_start_method,
    run_procs,
)
from repro.dist.shm import SEGMENT_PREFIX, ShmPool, attach_array, live_segments
from repro.grid import random_field
from repro.kernels import reference_sweeps
from repro.obs import registry

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every test must leave /dev/shm and the process table as it found
    them, once the warm world of ``solve(backend="procmpi")`` is dropped."""
    drop_warm_pool()
    before = live_segments()
    yield
    drop_warm_pool()
    after = live_segments()
    if before is not None:
        assert after == before
    assert mp.active_children() == []


# -- rank functions (module-level: picklable under spawn) --------------------

def _ring_fn(comm, rank):
    data = np.array([float(rank)])
    nxt = (rank + 1) % comm.size
    prev = (rank - 1) % comm.size
    comm.send(nxt, data)
    return float(comm.recv(prev)[0])


def _size_fn(comm, rank):
    return rank, comm.size


def _return_unpicklable_fn(comm, rank):
    return lambda: rank  # lambdas never pickle


def _copy_on_send_fn(comm, rank):
    if rank == 0:
        a = np.ones(4)
        comm.send(1, a)
        a[:] = 99.0
        return None
    return float(comm.recv(0).sum())


def _ordered_fn(comm, rank):
    if rank == 0:
        for i in range(8):
            comm.send(1, np.full(3, float(i)))
        return None
    return [float(comm.recv(0)[0]) for _ in range(8)]


def _mixed_payload_fn(comm, rank):
    # Arrays ride the ring; dicts and oversized arrays fall back to
    # pickled envelopes — order must still hold across both paths.
    if rank == 0:
        comm.send(1, np.arange(3, dtype=np.float64))
        comm.send(1, {"tag": "meta", "value": 7})
        comm.send(1, np.arange(100, dtype=np.float64))  # exceeds the ring slot
        return None
    a = comm.recv(0)
    b = comm.recv(0)
    c = comm.recv(0)
    return (float(a.sum()), b["value"], float(c.sum()))


def _object_array_fn(comm, rank):
    # An object-dtype ndarray small enough for the ring slot must take
    # the pickle fallback: its nbytes are pointer sizes, not payload.
    if rank == 0:
        comm.send(1, np.array([{"a": 1}, None], dtype=object))
        return None
    got = comm.recv(0)
    return got[0]["a"]


def _self_send_fn(comm, rank):
    comm.send(rank, 1.0)


def _root_cause_bad_peer_fn(comm, rank):
    # Rank 2's bad-peer ProcMPIError is the root cause; ranks 0 and 1
    # block and are released with abort-tagged ProcMPIErrors.
    if rank == 2:
        comm.recv(5)
    else:
        comm.recv(2)


def _bad_peer_fn(comm, rank):
    comm.recv(comm.size + 3)


def _mutate_shared_fn(comm, rank, handle):
    with attach_array(handle) as arr:
        arr[rank] = rank + 1.0
    return rank


class TestProcCommSemantics:
    def test_ring_pass(self):
        assert run_procs(4, _ring_fn, timeout=60.0) == [3.0, 0.0, 1.0, 2.0]

    def test_single_rank(self):
        assert run_procs(1, _size_fn, timeout=60.0) == [(0, 1)]

    def test_send_is_copy_on_send(self):
        assert run_procs(2, _copy_on_send_fn, timeout=60.0)[1] == 4.0

    def test_source_ordered_delivery(self):
        out = run_procs(2, _ordered_fn, timeout=60.0)
        assert out[1] == [float(i) for i in range(8)]

    def test_ring_transport_with_flow_control(self):
        # 8 messages through a 2-slot ring: wraps the slots four times
        # and forces the sender to block on the semaphore.
        pair_bytes = {(0, 1): 3 * 8}
        out = run_procs(2, _ordered_fn, timeout=60.0, pair_bytes=pair_bytes,
                        slots=2)
        assert out[1] == [float(i) for i in range(8)]

    def test_mixed_ring_and_pickle_payloads(self):
        out = run_procs(2, _mixed_payload_fn, timeout=60.0,
                        pair_bytes={(0, 1): 3 * 8})
        assert out[1] == (3.0, 7, float(np.arange(100).sum()))

    def test_object_dtype_arrays_bypass_the_ring(self):
        out = run_procs(2, _object_array_fn, timeout=60.0,
                        pair_bytes={(0, 1): 64})
        assert out[1] == 1

    def test_self_messaging_rejected(self):
        with pytest.raises(ProcMPIError, match="self-messaging"):
            run_procs(2, _self_send_fn, timeout=30.0)

    def test_bad_peer_rejected(self):
        with pytest.raises(ProcMPIError, match="outside world"):
            run_procs(2, _bad_peer_fn, timeout=30.0)

    def test_root_cause_preferred_over_abort_releases(self):
        # The released peers (ranks 0, 1) fail first in rank order; the
        # re-raise must still surface rank 2's actual failure, not the
        # 'aborted: another rank failed' noise it caused.
        with pytest.raises(ProcMPIError, match="outside world"):
            run_procs(3, _root_cause_bad_peer_fn, timeout=30.0)


class TestSharedMemoryFields:
    def test_ranks_mutate_one_shared_array(self):
        with ShmPool() as pool:
            handle, arr = pool.create_array((4,), np.float64)
            run_procs(4, _mutate_shared_fn, args=(handle,), timeout=60.0)
            assert arr.tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("shape, dtype", [
        ((3, 5, 7), np.float64), ((1023,), np.float32), ((4097, 3), np.int8),
        ((), np.complex128)])
    def test_new_arrays_are_zero_without_a_fill(self, shape, dtype):
        # Odd sizes: a segment's tail page is the kernel's zeros too.
        with ShmPool() as pool:
            for _ in range(3):
                _, arr = pool.create_array(shape, dtype)
                assert arr.shape == shape and arr.dtype == np.dtype(dtype)
                assert not arr.reshape(-1).view(np.uint8).any()
                arr[...] = 1

    def test_pool_cleanup_is_idempotent(self):
        pool = ShmPool()
        pool.create_array((8,), np.float64)
        pool.create_block(128)
        pool.cleanup()
        pool.cleanup()
        segs = live_segments()
        assert segs is None or segs == []


class TestDriver:
    def test_needs_at_least_one_rank(self):
        with pytest.raises(ValueError, match="at least one rank"):
            run_procs(0, _ring_fn)

    def test_needs_at_least_one_slot(self):
        with pytest.raises(ValueError, match="ring slot"):
            run_procs(2, _ring_fn, slots=0)

    def test_bad_ring_pair_rejected(self):
        with pytest.raises(ValueError, match="bad ring pair"):
            run_procs(2, _ring_fn, pair_bytes={(0, 5): 64})

    def test_unknown_start_method(self):
        with pytest.raises(ProcMPIError, match="start method"):
            run_procs(2, _ring_fn, start_method="teleport")

    def test_default_start_method_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCMPI_START", "spawn")
        assert default_start_method() == "spawn"
        monkeypatch.delenv("REPRO_PROCMPI_START")
        assert default_start_method() in mp.get_all_start_methods()

    def test_spawn_smoke(self):
        # Explicit spawn regardless of the session default: exercises
        # pickling of the rank function and the links.
        out = run_procs(2, _ring_fn, timeout=90.0, start_method="spawn")
        assert out == [1.0, 0.0]

    def test_spawn_rejects_unpicklable_fn(self):
        closure = lambda comm, rank: rank  # noqa: E731 — deliberately local
        with pytest.raises(ProcMPIError, match="pickle"):
            run_procs(2, closure, start_method="spawn")

    def test_fork_rejects_unpicklable_fn_instead_of_hanging(self):
        # Jobs reach the persistent rank processes through a queue that
        # pickles under every start method; an unchecked closure would
        # be dropped by the queue feeder and wedge the world forever.
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("no fork on this platform")
        closure = lambda comm, rank: rank  # noqa: E731 — deliberately local
        with pytest.raises(ProcMPIError, match="pickle"):
            run_procs(2, closure, start_method="fork")

    def test_unpicklable_return_value_fails_instead_of_hanging(self):
        # Same trap on the way back: the rank pre-pickles its return
        # value, so an unpicklable result is a reported job failure,
        # not a message silently dropped by the queue feeder.
        with pytest.raises(Exception, match="(?i)pickle"):
            run_procs(2, _return_unpicklable_fn, timeout=30.0)

    def test_no_zombie_processes_after_runs(self):
        run_procs(3, _size_fn, timeout=60.0)
        assert mp.active_children() == []

    def test_failed_rank_start_propagates_and_cleans_up(self, monkeypatch):
        # Rank 1's start() fails (fork EAGAIN, or a spawn child that
        # re-imports an unguarded main): the constructor's teardown must
        # skip the never-started process, re-raise the real error, and
        # still unlink the ring segments (the fixture checks /dev/shm).
        import errno
        from multiprocessing.process import BaseProcess

        real_start = BaseProcess.start
        calls = []

        def flaky_start(self):
            calls.append(self.name)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, "fork: resource unavailable")
            real_start(self)

        monkeypatch.setattr(BaseProcess, "start", flaky_start)
        with pytest.raises(OSError, match="resource unavailable"):
            ProcWorld(2, pair_bytes={(0, 1): 4096, (1, 0): 4096})
        assert len(calls) == 2
        assert mp.active_children() == []

    def test_worlds_started_at_once_close_promptly(self):
        # Service(workers=2) starts two worlds from two threads.  A fork
        # Popen holds its child's sentinel pipe open across os.fork(); a
        # rank the other thread forks in that window inherits the write
        # end, and close() sat in the full 10-s join for a rank that had
        # already exited.  Twenty rounds make the race likely to show.
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("no fork on this platform")
        for _ in range(20):
            worlds = [None, None]
            go = threading.Barrier(2)

            def start(i):
                go.wait(timeout=30.0)
                worlds[i] = ProcWorld(2, timeout=30.0, start_method="fork")

            threads = [threading.Thread(target=start, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            waits = []
            for world in worlds:
                t0 = time.monotonic()
                world.close()
                waits.append(time.monotonic() - t0)
            assert max(waits) < 3.0, waits


# -- the warm world behind solve(backend="procmpi") --------------------------

def _problem(seed: int = 0):
    grid = Grid3D((12, 12, 12))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 2))
    return grid, random_field(grid.shape, np.random.default_rng(seed)), cfg


def _reference(grid, field, cfg) -> bytes:
    return reference_sweeps(grid, field, cfg.total_updates).tobytes()


def _counters():
    return (registry.counter(SPAWNS_COUNTER),
            registry.counter(SEGMENTS_COUNTER))


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie nobody reaped yet has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


#: A parent that warms a world, prints its PID and its ranks' PIDs, then
#: exits the way ``argv[1]`` says.  ``fork-then-sigkill`` first forks a
#: child that sleeps 10 s (it inherits every pipe the parent holds) and
#: prints the child's PID on a second line.
_PARENT = """
import os, signal, sys, time
import multiprocessing as mp
import numpy as np
from repro import Grid3D, PipelineConfig, RelaxedSpec, random_field, solve

if __name__ == "__main__":
    grid = Grid3D((12, 12, 12))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 2))
    field = random_field(grid.shape, np.random.default_rng(0))
    solve(grid, field, cfg, topology=(1, 1, 2), backend="procmpi")
    print(os.getpid(), *(p.pid for p in mp.active_children()), flush=True)
    if sys.argv[1] == "fork-then-sigkill":
        child = os.fork()
        if child == 0:
            time.sleep(10)
            os._exit(0)
        print(child, flush=True)
    if sys.argv[1] != "normal":
        os.kill(os.getpid(), signal.SIGKILL)
"""


class TestWarmWorld:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_repeated_solves_run_on_one_world(self, start_method,
                                              monkeypatch):
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"start method {start_method} unavailable")
        monkeypatch.setenv("REPRO_PROCMPI_START", start_method)
        spawns0, segments0 = _counters()
        one_session = None
        for seed in range(32):
            grid, field, cfg = _problem(seed)
            got = solve(grid, field, cfg, topology=(1, 1, 2),
                        backend="procmpi")
            assert got.field.tobytes() == _reference(grid, field, cfg), seed
            if one_session is None:
                one_session = _counters()[1] - segments0
        # Two field blocks and one halo ring per direction, made once.
        assert one_session == 4
        assert _counters() == (spawns0 + 2, segments0 + one_session)

    def test_a_refused_schedule_spawns_nothing(self):
        from repro.analysis import StaticAnalysisError, assert_legal

        assert_legal.cache_clear()
        grid = Grid3D((8, 8, 8))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=4, block_size=(4, 8, 8),
                             sync=RelaxedSpec(1, 4))
        before = _counters()
        with pytest.raises(StaticAnalysisError, match="exchange-plan"):
            solve(grid, random_field(grid.shape, np.random.default_rng(0)),
                  cfg, topology=(1, 1, 2), backend="procmpi")
        assert _counters() == before
        assert mp.active_children() == []

    def test_a_forked_child_starts_with_an_empty_pool(self):
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        grid, field, cfg = _problem(3)
        want = _reference(grid, field, cfg)
        solve(grid, field, cfg, topology=(1, 1, 2), backend="procmpi")
        ranks = sorted(p.pid for p in mp.active_children())
        spawns = _counters()[0]
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report through the pipe, never return
            verdict = b"raised"
            try:
                os.close(r)
                # Not one of the parent's ranks is a child of ours, and
                # the solve builds a world of its own.
                clean = mp.active_children() == []
                got = solve(grid, field, cfg, topology=(1, 1, 2),
                            backend="procmpi")
                own = _counters()[0] == spawns + 2
                drop_warm_pool()
                verdict = repr((clean, got.field.tobytes() == want, own,
                                mp.active_children() == [])).encode()
            finally:
                os.write(w, verdict)
                os._exit(0)
        os.close(w)
        os.waitpid(pid, 0)
        with os.fdopen(r, "rb") as pipe:
            assert pipe.read() == b"(True, True, True, True)"
        # The parent's ranks outlived the child and keep serving.
        assert sorted(p.pid for p in mp.active_children()) == ranks
        again = solve(grid, field, cfg, topology=(1, 1, 2), backend="procmpi")
        assert again.field.tobytes() == want
        assert _counters()[0] == spawns

    @pytest.mark.parametrize("exit_how,start_method", [
        ("normal", None), ("sigkill", None),
        ("fork-then-sigkill", "fork"), ("fork-then-sigkill", "spawn"),
        ("fork-then-sigkill", "forkserver")],
        ids=["normal", "sigkill", "fork-then-sigkill-fork",
             "fork-then-sigkill-spawn", "fork-then-sigkill-forkserver"])
    def test_no_rank_or_segment_outlives_its_parent(self, exit_how,
                                                    start_method, tmp_path):
        # Idle ranks wait on their parent's sentinel: a parent killed
        # outright leaves no rank behind (they were re-parented and
        # lived on before), and the resource tracker unlinks its
        # segments once the last rank is gone.  A normal exit drops the
        # pool before the interpreter ends.  A child forked before the
        # kill holds the sentinel's write end (so the ranks must watch
        # the parent itself; under forkserver they are not even its
        # children) and the resource tracker's pipe (so the segments go
        # only once it is killed too).
        if not Path("/proc").is_dir() or live_segments() is None:
            pytest.skip("needs /proc and /dev/shm")
        if start_method is not None and (
                not hasattr(os, "fork")
                or start_method not in mp.get_all_start_methods()):
            pytest.skip(f"needs os.fork and start method {start_method}")
        out = tmp_path / "pids"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        if start_method is not None:
            env["REPRO_PROCMPI_START"] = start_method
        with open(out, "w") as fh:
            proc = subprocess.Popen([sys.executable, "-c", _PARENT, exit_how],
                                    stdout=fh, stderr=subprocess.DEVNULL,
                                    env=env)
            code = proc.wait(timeout=120)
        first, *rest = out.read_text().splitlines()
        parent, *ranks = (int(x) for x in first.split())
        children = [int(x) for x in rest]
        assert code == (0 if exit_how == "normal" else -signal.SIGKILL)
        assert len(ranks) == 2
        prefix = f"{SEGMENT_PREFIX}{parent}-"
        # Ranks and segments share one deadline from the parent's death.
        deadline = time.monotonic() + (0.0 if exit_how == "normal" else 5.0)

        def wait_for(leftovers):
            while leftovers() and time.monotonic() < deadline:
                time.sleep(0.05)
            return leftovers()

        survivors = wait_for(lambda: [p for p in ranks if _alive(p)])
        # The ranks went while the child that held their pipes lived on.
        assert [c for c in children if not _alive(c)] == []
        for pid in survivors + children:  # leave no orphan behind
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if children:  # the segments can only go once the child is gone
            deadline = time.monotonic() + 5.0
        segments = wait_for(lambda: [s for s in live_segments()
                                     if s.startswith(prefix)])
        assert (survivors, segments) == ([], [])
