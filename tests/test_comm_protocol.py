"""The point-to-point protocol of :mod:`repro.dist.comm`, held to every
in-repo transport.

``send(dest, data)`` is buffered and copy-on-send, ``recv(src)`` returns
the next message from ``src`` in send order; that is the whole surface
the distributed solvers use.  Each contract test runs on the thread
transport (``simmpi``), on the process transport with pickled envelopes
(``procmpi``) and on the process transport with shared-memory rings for
every pair (``procmpi-ring``).  Rank functions are module-level so they
pickle under every start method.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.dist.procmpi import ProcMPIError, run_procs
from repro.dist.simmpi import SimMPIError, run_ranks

#: Ring slot size for ``procmpi-ring``: every array below fits one slot.
SLOT = 64 * 1024


def _run(transport: str, n: int, fn):
    if transport == "simmpi":
        return run_ranks(n, fn, timeout=60.0)
    pairs = None
    if transport == "procmpi-ring":
        pairs = {(s, d): SLOT for s in range(n) for d in range(n) if s != d}
    return run_procs(n, fn, timeout=60.0, pair_bytes=pairs)


TRANSPORTS = ["simmpi", "procmpi", "procmpi-ring"]


@pytest.fixture(autouse=True)
def no_orphan_ranks():
    """A one-shot world joins its ranks; a warm world of an earlier
    ``solve(backend="procmpi")`` may stay alive."""
    before = set(mp.active_children())
    yield
    assert set(mp.active_children()) <= before


# -- rank functions ----------------------------------------------------------

def _all_to_all_fn(comm, rank):
    # Every rank issues all its sends before its first receive, as the
    # 3-phase exchange does; buffered sends make that deadlock-free.
    for peer in range(comm.size):
        if peer != rank:
            for k in range(2):
                comm.send(peer, np.full(4096, rank * 10.0 + k))
    return {peer: [float(comm.recv(peer)[0]) for _ in range(2)]
            for peer in range(comm.size) if peer != rank}


def _select_by_source_fn(comm, rank):
    if rank < 2:
        for k in range(3):
            comm.send(2, np.array([rank * 10.0 + k]))
        return None
    # Drain rank 1 before rank 0, although rank 0's messages may be
    # queued first: a receive names its source, not an arrival order.
    late = [float(comm.recv(1)[0]) for _ in range(3)]
    early = [float(comm.recv(0)[0]) for _ in range(3)]
    return late, early


def _arrays():
    base = np.arange(4 * 5 * 6, dtype=np.float64).reshape(4, 5, 6)
    return [
        base.astype(np.float32),
        np.arange(7, dtype=np.int64) - 3,
        np.array([True, False, True]),
        base[:, 1:4, ::2],                 # a strided ghost slab
        np.asfortranarray(base[1:3]),
        np.array(2.5),                     # 0-d
        np.zeros((0, 3)),                  # empty
    ]


def _array_fn(comm, rank):
    if rank == 0:
        for a in _arrays():
            comm.send(1, a)
        return None
    got = [comm.recv(0) for _ in _arrays()]
    return [(g.dtype.str, g.shape, bool(np.array_equal(g, a)))
            for g, a in zip(got, _arrays())]


PAYLOADS = [None, 7, -1.5, "halo", (1, "two", 3.0), [1, [2, 3]],
            {"level": 4, "box": ((0, 0, 0), (2, 2, 2))}, b"\x00\x01"]


def _payload_fn(comm, rank):
    if rank == 0:
        for p in PAYLOADS:
            comm.send(1, p)
        return None
    return [comm.recv(0) for _ in PAYLOADS]


def _size_fn(comm, rank):
    return rank, comm.size


def _ordered_fn(comm, rank):
    if rank == 0:
        for i in range(8):
            comm.send(1, np.full(3, float(i)))
        return None
    return [float(comm.recv(0)[0]) for _ in range(8)]


def _self_send_fn(comm, rank):
    comm.send(rank, 1.0)


def _below_zero_fn(comm, rank):
    comm.recv(-1)


def _past_size_fn(comm, rank):
    comm.send(comm.size, 1.0)


# -- the contract ------------------------------------------------------------

@pytest.mark.parametrize("transport", TRANSPORTS)
class TestContract:
    def test_sends_are_buffered(self, transport):
        out = _run(transport, 3, _all_to_all_fn)
        for rank, got in enumerate(out):
            assert got == {peer: [peer * 10.0, peer * 10.0 + 1]
                           for peer in range(3) if peer != rank}

    def test_recv_selects_by_source(self, transport):
        late, early = _run(transport, 3, _select_by_source_fn)[2]
        assert late == [10.0, 11.0, 12.0]
        assert early == [0.0, 1.0, 2.0]

    def test_arrays_keep_dtype_shape_and_values(self, transport):
        got = _run(transport, 2, _array_fn)[1]
        assert got == [(a.dtype.str, a.shape, True) for a in _arrays()]

    def test_python_objects_round_trip(self, transport):
        assert _run(transport, 2, _payload_fn)[1] == PAYLOADS


class TestSimMPIParity:
    """The checks ``test_procmpi.py`` makes of ProcComm, on RankComm."""

    def test_single_rank(self):
        assert run_ranks(1, _size_fn) == [(0, 1)]

    def test_source_ordered_delivery(self):
        assert run_ranks(2, _ordered_fn)[1] == [float(i) for i in range(8)]

    def test_self_messaging_rejected(self):
        with pytest.raises(SimMPIError, match="self-messaging"):
            run_ranks(2, _self_send_fn)

    @pytest.mark.parametrize("fn", [_below_zero_fn, _past_size_fn],
                             ids=["below-zero", "past-size"])
    def test_peer_outside_world_rejected(self, fn):
        with pytest.raises(SimMPIError, match="outside world"):
            run_ranks(2, fn)


def test_procmpi_rejects_a_negative_peer():
    with pytest.raises(ProcMPIError, match="outside world"):
        run_procs(2, _below_zero_fn, timeout=30.0)
