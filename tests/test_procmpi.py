"""The multiprocess rail: ProcComm semantics, rings, lifecycle, spawn.

Every rank function is module-level so the same tests run under the
``fork`` and ``spawn`` start methods (CI exercises both via
``REPRO_PROCMPI_START``).
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.dist.procmpi import (
    ProcComm,
    ProcMPIError,
    ProcWorld,
    default_start_method,
    run_procs,
)
from repro.dist.shm import ShmPool, attach_array, live_segments


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    before = live_segments()
    yield
    after = live_segments()
    if before is not None:
        assert after == before


# -- rank functions (module-level: picklable under spawn) --------------------

def _ring_fn(comm, rank):
    data = np.array([float(rank)])
    nxt = (rank + 1) % comm.size
    prev = (rank - 1) % comm.size
    got = comm.sendrecv(nxt, data, prev)
    return float(got[0])


def _gather_fn(comm, rank):
    return comm.gather(rank * 10)


def _allreduce_fn(comm, rank):
    return comm.allreduce_max(float(rank))


def _return_unpicklable_fn(comm, rank):
    return lambda: rank  # lambdas never pickle


def _barrier_fn(comm, rank):
    for _ in range(3):
        comm.barrier()
    return rank


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
    comm.barrier()
    return rank


class TestProcCommSemantics:
    def test_ring_pass(self):
        assert run_procs(4, _ring_fn, timeout=60.0) == [3.0, 0.0, 1.0, 2.0]

    def test_single_rank(self):
        assert run_procs(1, _gather_fn, timeout=60.0) == [[0]]

    def test_gather(self):
        out = run_procs(3, _gather_fn, timeout=60.0)
        assert out[0] == [0, 10, 20]
        assert out[1] is None and out[2] is None

    def test_allreduce_max(self):
        assert run_procs(3, _allreduce_fn, timeout=60.0) == [2.0, 2.0, 2.0]

    def test_barrier_rounds(self):
        assert run_procs(3, _barrier_fn, timeout=60.0) == [0, 1, 2]

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
        run_procs(3, _barrier_fn, timeout=60.0)
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
