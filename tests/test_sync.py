"""Tests for synchronisation specs and policies (Eq. 3 semantics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.core.parameters import BarrierSpec, PipelineConfig, RelaxedSpec
from repro.core.sync import BarrierPolicy, RelaxedPolicy, make_policy
from repro.core.executor import PipelineExecutor, ScheduleDeadlock
from repro.grid import Grid3D, random_field
from repro.kernels import jacobi7


class TestSpecs:
    def test_relaxed_rejects_dl_zero(self):
        with pytest.raises(ValueError, match="minimum one-block distance"):
            RelaxedSpec(d_l=0, d_u=2)

    def test_relaxed_rejects_empty_window(self):
        with pytest.raises(ValueError, match="window is empty"):
            RelaxedSpec(d_l=3, d_u=2)

    def test_relaxed_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            RelaxedSpec(d_l=1, d_u=2, team_delay=-1)

    def test_describe(self):
        assert "barrier" in BarrierSpec().describe()
        assert "d_l=1" in RelaxedSpec(1, 2).describe()
        assert "d_t=3" in RelaxedSpec(1, 2, 3).describe()


class TestBarrierPolicy:
    def test_staggered_rounds(self):
        # Stage s's round is c_s + s: with counters [2, 1, 0] every stage
        # sits at round 2 and all are ready.
        p = BarrierPolicy(3)
        fin = [False] * 3
        assert all(p.ready(s, [2, 1, 0], fin) for s in range(3))

    def test_stage_ahead_of_round_blocked(self):
        p = BarrierPolicy(3)
        fin = [False] * 3
        # Stage 0 already did round 2 (c=3); stages 1, 2 still at round 2.
        assert not p.ready(0, [3, 1, 0], fin)
        assert p.ready(1, [3, 1, 0], fin)
        assert p.ready(2, [3, 1, 0], fin)

    def test_initial_stagger(self):
        # At start only stage 0 is at the minimum round.
        p = BarrierPolicy(3)
        fin = [False] * 3
        assert p.ready(0, [0, 0, 0], fin)
        assert not p.ready(1, [0, 0, 0], fin)
        assert not p.ready(2, [0, 0, 0], fin)

    def test_blockers(self):
        p = BarrierPolicy(3)
        assert p.blockers(0, [3, 1, 0], [False] * 3) == [1, 2]

    def test_finished_ignored(self):
        p = BarrierPolicy(2)
        assert p.ready(1, [5, 3], [True, False])


class TestRelaxedPolicy:
    def cfg(self, t=4, dl=1, du=2, dt=0, teams=1):
        return PipelineConfig(teams=teams, threads_per_team=t,
                              updates_per_thread=1, block_size=(2, 100, 100),
                              sync=RelaxedSpec(dl, du, dt))

    def test_front_runs_ahead_up_to_du(self):
        p = make_policy(self.cfg(t=2, dl=1, du=3))
        fin = [False, False]
        assert p.ready(0, [0, 0], fin)
        assert p.ready(0, [3, 0], fin)
        assert not p.ready(0, [4, 0], fin)

    def test_successor_needs_dl(self):
        p = make_policy(self.cfg(t=2, dl=2, du=4))
        fin = [False, False]
        assert not p.ready(1, [1, 0], fin)
        assert p.ready(1, [2, 0], fin)

    def test_finished_predecessor_waiver(self):
        p = make_policy(self.cfg(t=2, dl=3, du=5))
        # Predecessor finished at counter 4; gap is only 1 but waived.
        assert p.ready(1, [4, 3], [True, False])
        assert not p.ready(1, [4, 3], [False, False])

    def test_team_delay_applied_at_team_boundary(self):
        cfg = PipelineConfig(teams=2, threads_per_team=2,
                             updates_per_thread=1, block_size=(2, 100, 100),
                             sync=RelaxedSpec(1, 2, team_delay=3))
        p = make_policy(cfg)
        # Stage 2 is the front thread of team 1: d_l_eff = 1 + 3.
        assert p.d_l_eff == [1, 1, 4, 1]
        # Stage 1 is the rear thread of team 0: d_u_eff = 2 + 3.
        assert p.d_u_eff == [2, 5, 2, 2]

    def test_blockers_names_neighbors(self):
        p = make_policy(self.cfg(t=3, dl=2, du=2))
        fin = [False] * 3
        assert p.blockers(1, [1, 0, 0], fin) == [0]
        assert p.blockers(0, [3, 0, 0], fin) == [1]
        # Stage 1 is far enough behind 0 but too far ahead of 2.
        assert p.blockers(1, [5, 3, 0], fin) == [2]
        # Both conditions violated at once.
        assert p.blockers(1, [4, 3, 0], fin) == [0, 2]


class TestPolicyFactory:
    def test_barrier(self):
        cfg = PipelineConfig(sync=BarrierSpec())
        assert isinstance(make_policy(cfg), BarrierPolicy)

    def test_relaxed(self):
        cfg = PipelineConfig(sync=RelaxedSpec(1, 2))
        assert isinstance(make_policy(cfg), RelaxedPolicy)


class TestExecutorSyncBehaviour:
    def run_with_trace(self, sync, order="front_first"):
        grid = Grid3D((12, 4, 4))
        field = random_field(grid.shape, np.random.default_rng(0))
        cfg = PipelineConfig(teams=1, threads_per_team=3,
                             updates_per_thread=1,
                             block_size=(2, 100, 100), sync=sync)
        ex = PipelineExecutor(grid, field, cfg, jacobi7(),
                              order=order, record_trace=True)
        ex.run()
        return ex

    def test_barrier_keeps_staggered_distance(self):
        # Three stages staggered by one block each: overall counter spread
        # stays within n_stages (2 steady-state + 1 transient).
        ex = self.run_with_trace(BarrierSpec())
        assert ex.stats.max_counter_gap <= 3

    def test_relaxed_gap_respects_du(self):
        ex = self.run_with_trace(RelaxedSpec(1, 4))
        # Per-link precondition c_i - c_{i+1} <= d_u bounds the post-state
        # link gap by d_u + 1; with 3 stages the spread is <= 2*(d_u+1).
        assert 1 < ex.stats.max_counter_gap <= 2 * (4 + 1)

    def test_lockstep_tighter_than_loose(self):
        tight = self.run_with_trace(RelaxedSpec(1, 1))
        loose = self.run_with_trace(RelaxedSpec(1, 5))
        assert tight.stats.max_counter_gap <= loose.stats.max_counter_gap

    def test_trace_recorded(self):
        ex = self.run_with_trace(BarrierSpec())
        assert ex.stats.trace
        assert ex.stats.block_ops == len(ex.stats.trace)

    @pytest.mark.parametrize("sync, gap, polls, spans", [
        (RelaxedSpec(1, 4), 5, 178, 517), (BarrierSpec(), 2, 450, 1425)],
        ids=["relaxed(d_l=1,d_u=4)", "barrier"])
    def test_interleaver_counts_are_pinned(self, sync, gap, polls, spans):
        # The work counts are the literals of the commit before the polled
        # loop and the stage-thread loop became one pass loop over
        # CounterBoard, and runs of blocks do not move them: the same
        # blocks are updated, tallied per block.  traced, round_robin.
        grid = Grid3D((32, 32, 32))
        field = random_field(grid.shape, np.random.default_rng(19))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(4, 8, 8),
                             sync=sync, passes=2)
        res = solve(grid, field, cfg, trace=True)
        st = res.stats
        assert (st.block_ops, st.updates, st.cells_updated) == (
            900, 1606, 262144)
        assert st.empty_block_ops == 0
        assert st.per_stage_blocks == [450, 450]
        assert res.trace.counters["core.drain_blocks"] == 2
        # The sync counts follow from the run rule.  A (4, 8, 8) block is
        # 2 KiB, so the cap is 128 and only the window ends a run.  Per
        # pass each stage walks 9 x 5 x 5 = 225 blocks (32 cells plus the
        # shift 3, in 4 / 8 / 8).  Relaxed: the front stage runs until
        # c_0 - c_1 = d_u + 1 = 5, the rear one until it is d_l = 1
        # behind, so every step is 5 blocks — one x-row, one engine call
        # per update — and every poll but the drain poll finds one stage
        # shut: 45 runs per stage and pass, 2 x 89 blocked polls, gap 5.
        # Barrier: a stage alone at the lowest round finishes it and
        # starts its next round's block, two blocks per step (one at
        # each pass's ends); blocked polls stay 450 and the gap, the
        # front stage two rounds ahead, is 2.
        assert st.max_counter_gap == gap
        assert res.trace.counters["sync.blocked_polls"] == polls
        assert len(res.trace.spans) == spans
