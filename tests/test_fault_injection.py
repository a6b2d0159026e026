"""Fault injection for both distributed rails.

The contract when a rank fails mid-exchange:

* **thread rail** (``simmpi``): peers blocked in receives and barriers
  are released with :class:`SimMPIError` instead of hanging, and
  ``run_ranks`` re-raises the *original* exception in the caller;
* **process rail** (``procmpi``): same release semantics via the shared
  abort event, the original exception crosses the process boundary (or
  a :class:`ProcMPIError` naming the failure when it cannot), and the
  teardown leaves **no** shared-memory segments and **no** zombie rank
  processes — even when a rank is killed outright and never reports.

Rank functions are module-level so the process-rail tests also run
under the ``spawn`` start method.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.dist import drop_warm_pool
from repro.dist.procmpi import ProcMPIError, run_procs
from repro.dist.shm import live_segments
from repro.dist.simmpi import SimMPIError, run_ranks


@pytest.fixture(autouse=True)
def no_shm_leaks_or_zombies():
    # solve(backend="procmpi") keeps a warm world between calls; only
    # what survives dropping it counts as a leak.
    drop_warm_pool()
    before = live_segments()
    yield
    drop_warm_pool()
    after = live_segments()
    if before is not None:
        assert after == before
    assert mp.active_children() == []


# -- rank functions ----------------------------------------------------------

def _raise_mid_exchange(comm, rank):
    """Rank 1 dies after the first round; peers block on round two."""
    peer = 1 - rank
    comm.send(peer, np.full(4, float(rank)))
    comm.recv(peer)
    if rank == 1:
        raise ValueError("injected failure after round one")
    return comm.recv(peer)  # never arrives: must be released, not hang


def _die_hard(comm, rank):
    """Rank 1 is killed without any chance to report or clean up."""
    if rank == 1:
        os._exit(17)
    return comm.recv(1)


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.socket = lambda: None  # lambdas never pickle


def _raise_unpicklable(comm, rank):
    if rank == 0:
        raise _Unpicklable()
    comm.recv(0)


def _poison_boundary(z, y, x):
    """A Dirichlet ``func`` that detonates when a rank evaluates it."""
    raise RuntimeError("poisoned boundary")


class TestThreadRail:
    def test_peers_released_and_original_reraised(self):
        with pytest.raises(ValueError, match="injected failure"):
            run_ranks(2, _raise_mid_exchange, timeout=30.0)

    def test_pure_timeout_is_simmpi_error(self):
        def lonely(comm, rank):
            if rank == 0:
                comm.recv(1)  # rank 1 never sends

        with pytest.raises(SimMPIError, match="timed out"):
            run_ranks(2, lonely, timeout=0.3)


class TestProcessRail:
    def test_peers_released_and_original_reraised(self):
        with pytest.raises(ValueError, match="injected failure"):
            run_procs(2, _raise_mid_exchange, timeout=30.0,
                      pair_bytes={(0, 1): 32, (1, 0): 32})

    def test_killed_rank_detected_and_peers_released(self):
        with pytest.raises(ProcMPIError, match="died without reporting"):
            run_procs(2, _die_hard, timeout=30.0)

    def test_unpicklable_exception_degrades_to_procmpi_error(self):
        with pytest.raises(ProcMPIError, match="_Unpicklable"):
            run_procs(2, _raise_unpicklable, timeout=30.0)

    def test_failed_solve_releases_field_and_ring_segments(self):
        # End-to-end: a rank crashing *inside* a real procmpi solve —
        # after the field blocks and halo rings were allocated — must
        # still unwind every segment and process: the warm pool drops
        # the broken session at once, not at the fixture's drop.
        from repro import Grid3D
        from repro.dist.solver import distributed_jacobi_sweeps
        from repro.grid import DirichletBoundary, random_field

        bc = DirichletBoundary(0.0, func=_poison_boundary)
        grid = Grid3D((12, 10, 10), boundary=bc)
        field = random_field(grid.shape, np.random.default_rng(3))
        with pytest.raises(RuntimeError, match="poisoned boundary"):
            distributed_jacobi_sweeps(grid, field, (2, 1, 1), supersteps=1,
                                      halo=2, transport="procmpi")
        assert mp.active_children() == []
        assert live_segments() in (None, [])
