"""Behavioural tests of the pipelined DES against the paper's claims.

These assert *bands and orderings*, not exact numbers: the calibration
targets (EXPERIMENTS.md) say who must win and by roughly what factor.
"""

from __future__ import annotations

import pytest

from repro.core import BarrierSpec, PipelineConfig, RelaxedSpec
from repro.machine import GB, KB, MB, CacheLevel, MachineSpec, nehalem_ep
from repro.sim import CodeBalance, simulate_pipelined, standard_jacobi_mlups

SHAPE = (200, 200, 200)


def core2_quad() -> MachineSpec:
    """A Core 2 era node: strongly bandwidth-starved (Ms/Ms,1 ≈ 1.1)."""
    return MachineSpec(
        name="Core 2 quad (Harpertown-like)", sockets=2, cores_per_socket=4,
        clock_hz=2.83e9,
        caches=(CacheLevel("L1D", 32 * KB, 1, 250 * GB),
                CacheLevel("L2", 6 * MB, 2, 60 * GB),
                CacheLevel("L2s", 12 * MB, 4, 60 * GB)),
        mem_bw_socket=6.5 * GB, mem_bw_single=5.8 * GB, remote_bw=5.0 * GB,
        core_mlups=350e6, jitter_sigma=0.5)


def cfg(teams=1, sync=None, T=2, block=(20, 20, 120), storage="compressed"):
    return PipelineConfig(teams=teams, threads_per_team=4,
                          updates_per_thread=T, block_size=block,
                          sync=sync or RelaxedSpec(1, 4), storage=storage)


class TestBaseline:
    def test_socket_matches_eq2_with_efficiency(self):
        m = nehalem_ep()
        rep = standard_jacobi_mlups(m, threads=4)
        expected = m.mem_bw_socket * m.stream_efficiency / 16 / 1e6
        assert rep.mlups == pytest.approx(expected)

    def test_node_doubles_socket_first_touch(self):
        m = nehalem_ep()
        s = standard_jacobi_mlups(m, threads=4).mlups
        n = standard_jacobi_mlups(m, threads=8).mlups
        assert n == pytest.approx(2 * s)

    def test_master_touch_halves_node(self):
        m = nehalem_ep()
        good = standard_jacobi_mlups(m, threads=8).mlups
        bad = standard_jacobi_mlups(m, threads=8,
                                    placement="master_touch").mlups
        assert bad == pytest.approx(good / 2, rel=0.01)

    def test_no_nt_stores_cost_rfo(self):
        m = nehalem_ep()
        nt = standard_jacobi_mlups(m, nt_stores=True).mlups
        rfo = standard_jacobi_mlups(m, nt_stores=False).mlups
        assert rfo == pytest.approx(nt * 16 / 24, rel=0.01)


class TestPipelinedBands:
    def test_socket_speedup_in_paper_band(self):
        m = nehalem_ep()
        std = standard_jacobi_mlups(m, threads=4).mlups
        pipe = simulate_pipelined(m, cfg(1), SHAPE).mlups
        assert 1.35 < pipe / std < 1.8  # paper: 50-60 %

    def test_node_speedup_in_paper_band(self):
        m = nehalem_ep()
        std = standard_jacobi_mlups(m, threads=8).mlups
        pipe = simulate_pipelined(m, cfg(2), SHAPE).mlups
        assert 1.3 < pipe / std < 1.8

    def test_lockstep_penalty(self):
        m = nehalem_ep()
        lock = simulate_pipelined(m, cfg(1, RelaxedSpec(1, 1)), SHAPE).mlups
        loose = simulate_pipelined(m, cfg(1, RelaxedSpec(1, 4)), SHAPE).mlups
        assert loose / lock > 1.4  # paper: ~80 %

    def test_relaxed_beats_barrier(self):
        m = nehalem_ep()
        bar = simulate_pipelined(m, cfg(2, BarrierSpec()), SHAPE).mlups
        rel = simulate_pipelined(m, cfg(2, RelaxedSpec(1, 4)), SHAPE).mlups
        assert rel > bar

    def test_T2_near_optimal(self):
        m = nehalem_ep()
        vals = {T: simulate_pipelined(m, cfg(1, T=T), SHAPE).mlups
                for T in (1, 2, 4)}
        # "The optimal number of updates ... is usually 2 with some very
        # minor improvement at T=4": all within ~10 % of each other.
        assert max(vals.values()) / min(vals.values()) < 1.15

    def test_core2_profits_more(self):
        # Bandwidth-starved designs profit more from temporal blocking
        # (summary/outlook) — relative speedup higher than on Nehalem.
        neh, c2 = nehalem_ep(), core2_quad()
        s_neh = simulate_pipelined(neh, cfg(1), SHAPE).mlups \
            / standard_jacobi_mlups(neh, threads=4).mlups
        s_c2 = simulate_pipelined(c2, cfg(1), SHAPE).mlups \
            / standard_jacobi_mlups(c2, threads=4).mlups
        assert s_c2 > s_neh

    def test_results_reproducible(self):
        m = nehalem_ep()
        a = simulate_pipelined(m, cfg(1), SHAPE, seed=3).mlups
        b = simulate_pipelined(m, cfg(1), SHAPE, seed=3).mlups
        assert a == b

    def test_rate_stable_in_problem_size(self):
        m = nehalem_ep()
        small = simulate_pipelined(m, cfg(1), (200, 200, 200)).mlups
        large = simulate_pipelined(m, cfg(1), (300, 300, 300)).mlups
        assert abs(small - large) / large < 0.1


class TestTrafficAccounting:
    def test_memory_traffic_once_per_pass(self):
        m = nehalem_ep()
        rep = simulate_pipelined(m, cfg(1), SHAPE)
        cells = SHAPE[0] * SHAPE[1] * SHAPE[2]
        # Load ~8 B/cell; writebacks ~8 B/cell (flushed at the end).
        assert rep.mem_bytes == pytest.approx(8 * cells, rel=0.15)
        assert rep.writeback_bytes == pytest.approx(8 * cells, rel=0.15)

    def test_cache_traffic_scales_with_updates(self):
        m = nehalem_ep()
        r1 = simulate_pipelined(m, cfg(1, T=1), SHAPE)
        r2 = simulate_pipelined(m, cfg(1, T=2), SHAPE)
        assert r2.cache_bytes > 1.5 * r1.cache_bytes

    def test_second_team_reads_remote_not_memory(self):
        m = nehalem_ep()
        rep = simulate_pipelined(m, cfg(2), SHAPE)
        cells = SHAPE[0] * SHAPE[1] * SHAPE[2]
        assert rep.remote_bytes == pytest.approx(8 * cells, rel=0.2)

    def test_nt_stores_counterproductive(self):
        m = nehalem_ep()
        bal_nt = CodeBalance.pipelined("twogrid", nt_stores=True)
        nt = simulate_pipelined(m, cfg(1, storage="twogrid"), SHAPE,
                                balance=bal_nt).mlups
        plain = simulate_pipelined(m, cfg(1, storage="twogrid"), SHAPE).mlups
        assert nt < 0.9 * plain

    def test_no_reloads_with_paper_parameters(self):
        m = nehalem_ep()
        rep = simulate_pipelined(m, cfg(1), SHAPE)
        assert rep.reloads == 0


class TestValidationErrors:
    def test_too_many_teams(self):
        m = nehalem_ep()
        with pytest.raises(ValueError, match="cache groups"):
            simulate_pipelined(m, cfg(3), SHAPE)

    def test_team_too_large(self):
        m = nehalem_ep()
        c = PipelineConfig(teams=1, threads_per_team=5, updates_per_thread=1,
                           block_size=(20, 20, 120))
        with pytest.raises(ValueError, match="does not fit"):
            simulate_pipelined(m, c, SHAPE)

    def test_bad_placement(self):
        m = nehalem_ep()
        with pytest.raises(ValueError, match="placement"):
            simulate_pipelined(m, cfg(1), SHAPE, placement="random")

    def test_exact_block_division_no_livelock(self):
        # Regression: blocks dividing the extent exactly once triggered a
        # frozen-timestamp livelock in the flow resource (sub-ulp horizon).
        m = nehalem_ep()
        rep = simulate_pipelined(m, cfg(1, block=(20, 20, 25)),
                                 (100, 100, 100))
        assert rep.total_time > 0
