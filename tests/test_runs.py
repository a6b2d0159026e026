"""Runs of blocks against the reference, on generated geometries.

A stage's step runs every block its Eq. 3 window admits, up to the
executor's ``run_cap`` (as many nominal blocks as the numpy engine's
slab budget holds), and updates the blocks of a run that are adjacent
along the innermost tiled axis level-major: one engine call per update
over their union, a row boundary ending the group.  Every draw here
keeps the cap above one, so runs and merged regions happen on every
rail — the interleaver in each of its four orders, stage threads, and
simmpi ranks, whose trapezoids clip the merged spans to shrinking
active boxes — on both storages, the compressed grid's mirrored odd
passes included.  Every result must be byte-equal to
:func:`~repro.kernels.reference_sweeps`.

The CI ``threads`` job runs this file under the ``ci`` Hypothesis
profile, with ten times the draws.
"""

import math

import numpy as np
from hypothesis import event, given, reject, settings, strategies as st

from repro import BarrierSpec, Grid3D, PipelineConfig, RelaxedSpec
from repro.analysis import StaticAnalysisError, assert_legal
from repro.core.executor import ORDERS, PipelineExecutor
from repro.dist.solver import distributed_jacobi_pipelined
from repro.engine.numpy_engine import SLAB_BYTES
from repro.grid import random_field
from repro.kernels import jacobi7, reference_sweeps
from repro.obs.tracer import Tracer

TOPOLOGIES = ((1, 1, 2), (1, 2, 1), (2, 1, 1))


@st.composite
def run_cases(draw, backend):
    """A certified ``(grid, field, config, order, topology)`` whose
    nominal block is small enough for runs of more than one block."""
    storage = ("twogrid" if backend == "simmpi"
               else draw(st.sampled_from(["twogrid", "compressed"])))
    teams, t, T = (draw(st.integers(1, 2)) for _ in range(3))
    h = teams * t * T
    topology = (draw(st.sampled_from(TOPOLOGIES)) if backend == "simmpi"
                else (1, 1, 1))
    # A cut axis gives every rank at least h cells (the trapezoid's
    # halo); an axis of 99 is untiled.
    shape = tuple(max(draw(st.integers(3, 10)), p * h) for p in topology)
    block = tuple(draw(st.sampled_from([1, 2, 3, 4, 99])) for _ in range(3))
    if SLAB_BYTES // (8 * math.prod(block)) < 2:
        reject()  # a block that fills the slab budget runs alone
    if math.prod(-(-(n + h) // b) for n, b in zip(shape, block)) > 400:
        reject()  # a traversal this long only costs time
    barrier = draw(st.integers(0, 3)) == 0
    d_l, d_u, d_t = (draw(st.integers(1, 2)), draw(st.integers(1, 4)),
                     draw(st.integers(0, 1)))
    order = ("round_robin" if backend == "threads"
             else draw(st.sampled_from(ORDERS)))
    try:
        sync = BarrierSpec() if barrier else RelaxedSpec(d_l, d_u, d_t)
        config = PipelineConfig(teams=teams, threads_per_team=t,
                                updates_per_thread=T, block_size=block,
                                sync=sync, storage=storage,
                                passes=draw(st.integers(1, 3)))
        assert_legal(config, shape, topology)
    except (ValueError, StaticAnalysisError):
        reject()
    grid = Grid3D(shape)
    field = random_field(shape, np.random.default_rng(draw(st.integers(0, 99))))
    event(f"{storage}, {order}")
    return grid, field, config, order, topology


def _runs(ex: PipelineExecutor) -> list:
    """Record the length of every step ``ex`` takes."""
    body, seen = ex._execute_run, []

    def recording(stage, first, k, tally):
        seen.append(k)
        body(stage, first, k, tally)

    ex._execute_run = recording  # type: ignore[method-assign]
    return seen


def _solve_in_process(case, threads):
    grid, field, config, order, _topology = case
    ex = PipelineExecutor(grid, field, config, jacobi7(), order=order,
                          rng=None if threads else np.random.default_rng(5),
                          threads=threads)
    assert ex.run_cap == SLAB_BYTES // (8 * math.prod(config.block_size)) > 1
    steps = _runs(ex)
    got = ex.run()
    assert sum(steps) == ex.stats.block_ops
    if max(steps) > 1:
        event("a step ran several blocks")
    want = reference_sweeps(grid, field, config.total_updates)
    assert got.tobytes() == want.tobytes()


@settings(deadline=None)
@given(run_cases("shared"))
def test_interleaver_runs_equal_the_reference(case):
    _solve_in_process(case, threads=False)


@settings(deadline=None)
@given(run_cases("threads"))
def test_stage_thread_runs_equal_the_reference(case):
    _solve_in_process(case, threads=True)


@settings(deadline=None)
@given(run_cases("simmpi"))
def test_rank_trapezoid_runs_equal_the_reference(case):
    grid, field, config, order, topology = case
    tracer = Tracer(pid=0, label="driver")
    got = distributed_jacobi_pipelined(grid, field, topology, config,
                                       order=order, transport="simmpi",
                                       tracer=tracer)
    steps = [s.arg("blocks") for s in tracer.finish().spans
             if s.name == "block"]
    assert sum(steps) == got.stats.block_ops
    if max(steps) > 1:
        event("a step ran several blocks")
    want = reference_sweeps(grid, field, config.total_updates)
    assert got.field.tobytes() == want.tobytes()
