"""Property-based equivalence: random configurations and interleavings.

Hypothesis drives the pipelined executor through randomly drawn pipeline
shapes, block sizes, sync windows, storage schemes and interleaving seeds;
every run must (a) equal the reference sweeps bit-for-bit at double
precision tolerance and (b) keep the time-level surface within the
one-cell skew bound after every block op (kept by a spy on the engine:
the storage tracks no levels).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Grid3D, PipelineConfig, RelaxedSpec, BarrierSpec, run_pipelined
from repro.core.executor import PipelineExecutor
from repro.grid import random_field
from repro.grid.blocks import spans_box
from repro.kernels import jacobi7, reference_sweeps


def check_skew(levels, shift_vec, max_skew=1):
    """The time-level surface has bounded slope along shifted dims.

    ``levels`` holds each cell's current time level at any instant of a
    legal execution (recorded around the engine).  Along each shifted
    dimension, adjacent cells may differ by at most ``max_skew`` levels;
    unshifted dimensions are not checked, because trapezoid clipping
    legitimately creates steps along all dims near the rim.
    """
    for d in range(3):
        if shift_vec[d]:
            worst = np.abs(np.diff(levels.astype(np.int64), axis=d)).max(
                initial=0)
            assert worst <= max_skew, (
                f"time-level skew {worst} along dim {d} exceeds bound "
                f"{max_skew}; the one-cell-shift discipline is broken")


@st.composite
def pipeline_cases(draw):
    nz = draw(st.integers(6, 18))
    ny = draw(st.integers(3, 8))
    nx = draw(st.integers(3, 8))
    teams = draw(st.integers(1, 2))
    t = draw(st.integers(1, 3))
    T = draw(st.integers(1, 2))
    # 1000 leaves an axis untiled; anything smaller tiles it, so regions
    # get clipped on up to three faces and drain in up to three directions.
    block = (draw(st.integers(1, 5)),
             draw(st.sampled_from([1, 2, 3, 5, 1000])),
             draw(st.sampled_from([1, 2, 3, 5, 1000])))
    storage = draw(st.sampled_from(["twogrid", "compressed"]))
    passes = draw(st.integers(1, 2))
    if draw(st.booleans()):
        # One block of lead is enough on any tiling; larger leads too.
        dl = draw(st.integers(1, 3))
        du = draw(st.integers(dl, dl + 4))
        dt = draw(st.integers(0, 3))
        sync = RelaxedSpec(dl, du, dt)
    else:
        sync = BarrierSpec()
    order = draw(st.sampled_from(["round_robin", "random", "front_first",
                                  "rear_first"]))
    seed = draw(st.integers(0, 2**16))
    return (nz, ny, nx), teams, t, T, block, storage, passes, sync, order, seed


@given(pipeline_cases())
@settings(max_examples=80, deadline=None)
def test_random_config_matches_reference(case):
    shape, teams, t, T, block, storage, passes, sync, order, seed = case
    grid = Grid3D(shape)
    field = random_field(shape, np.random.default_rng(seed))
    cfg = PipelineConfig(teams=teams, threads_per_team=t,
                         updates_per_thread=T, block_size=block,
                         sync=sync, storage=storage, passes=passes)
    res = run_pipelined(grid, field, cfg, order=order,
                        rng=np.random.default_rng(seed + 1))
    ref = reference_sweeps(grid, field, cfg.total_updates)
    assert np.array_equal(res.field, ref)
    assert res.stats.cells_updated == grid.domain.ncells * cfg.total_updates


class _LevelSpy:
    """An engine that records, per cell, the level its updates reached."""

    def __init__(self, engine, levels):
        self._engine, self._levels = engine, levels
        self.name, self.semantics = engine.name, engine.semantics

    def apply_spans(self, stencil, storage, spans, level):
        self._engine.apply_spans(stencil, storage, spans, level)
        self._levels[spans_box(spans).slices()] = level


@given(
    nz=st.integers(8, 16),
    t=st.integers(2, 4),
    bz=st.integers(1, 4),
    du=st.integers(1, 5),
    seed=st.integers(0, 999),
)
@settings(max_examples=25, deadline=None)
def test_skew_bound_holds_midrun(nz, t, bz, du, seed):
    """Interrupt execution after every step and check the skew bound."""
    grid = Grid3D((nz, 4, 4))
    field = random_field(grid.shape, np.random.default_rng(seed))
    cfg = PipelineConfig(teams=1, threads_per_team=t, updates_per_thread=1,
                         block_size=(bz, 100, 100), sync=RelaxedSpec(1, du))
    ex = PipelineExecutor(grid, field, cfg, jacobi7(), order="random",
                          rng=np.random.default_rng(seed))
    levels = np.zeros(grid.shape, dtype=np.int64)
    ex.engine = _LevelSpy(ex.engine, levels)
    orig = ex._execute_run
    checked = []

    def instrumented(stage, first, k, tally):
        orig(stage, first, k, tally)
        check_skew(levels, ex.decomp.shift_vec, max_skew=1)
        checked.append(k)

    ex._execute_run = instrumented  # type: ignore[method-assign]
    for p in range(cfg.passes):   # run() would consume the storage
        ex.run_pass(p)
    assert sum(checked) == ex.stats.block_ops   # checked after every step
    assert bool(np.all(levels == cfg.total_updates))   # the spy saw all
    ref = reference_sweeps(grid, field, cfg.total_updates)
    np.testing.assert_allclose(ex.storage.extract(cfg.total_updates), ref,
                               rtol=0, atol=1e-12)


@given(
    ny=st.integers(6, 12),
    by=st.integers(2, 4),
    seed=st.integers(0, 99),
)
@settings(max_examples=15, deadline=None)
def test_2d_tiling_with_sufficient_distance(ny, by, seed):
    """Blocks tiled in z AND y: the paper's one block of lead suffices.

    The regions shift by one cell along *every* tiled dimension, so each
    read of update ``u`` (the block's own cells at shift ``u-1`` and one
    cell further) lands in blocks at or before the current one in
    lexicographic traversal order: block ``k`` itself, ``k - 1`` along
    the fast axis and the row before along the slow one.  A predecessor
    one block ahead has written all of them, however long a block row
    is, so ``d_l = 1`` is legal here (the analyzer's binding lead is 1)
    and equivalence must hold with the most eager front stage.
    """
    grid = Grid3D((10, ny, 4))
    field = random_field(grid.shape, np.random.default_rng(seed))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                         block_size=(3, by, 100),
                         sync=RelaxedSpec(d_l=1, d_u=4))
    res = run_pipelined(grid, field, cfg, order="front_first")
    ref = reference_sweeps(grid, field, cfg.total_updates)
    np.testing.assert_allclose(res.field, ref, rtol=0, atol=1e-12)
