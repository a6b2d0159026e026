"""Tests for the cluster model, wavefront baseline, autotuner and figure
data generators (shape-level; ``tests/test_figures.py`` asserts the
paper-shape bands over the ``figure`` scenarios).
"""

from __future__ import annotations

import pytest

from repro.core.autotune import autotune
from repro.core.wavefront import compare_wavefront, wavefront_balance, wavefront_config
from repro.dist.cluster_sim import ClusterModel, balanced_grid, fig6_variants
from repro.machine import nehalem_ep


class TestBalancedGrid:
    def test_cubes(self):
        assert balanced_grid(8) == (2, 2, 2)
        assert balanced_grid(27) == (3, 3, 3)
        assert balanced_grid(64) == (4, 4, 4)

    def test_non_cubes(self):
        assert balanced_grid(1) == (1, 1, 1)
        assert balanced_grid(2) == (1, 1, 2)
        assert balanced_grid(12) == (2, 2, 3)

    def test_product_preserved(self):
        for n in (1, 2, 6, 16, 54, 128, 216):
            g = balanced_grid(n)
            assert g[0] * g[1] * g[2] == n


class TestClusterModel:
    @pytest.fixture(scope="class")
    def cm(self):
        return ClusterModel(nehalem_ep(), sim_shape=(200, 200, 200))

    def test_variants_defined(self):
        names = [v.name for v in fig6_variants()]
        assert "standard 8PPN" in names and "pipelined 2PPN" in names

    def test_single_node_rates_ordered(self, cm):
        v = {x.name: x for x in fig6_variants()}
        assert cm.node_rate(v["standard 1PPN"]) < cm.node_rate(v["standard 8PPN"])
        assert cm.node_rate(v["pipelined 2PPN"]) > cm.node_rate(v["standard 8PPN"])

    def test_weak_scaling_near_ideal_standard(self, cm):
        v = fig6_variants()[0]
        pts = cm.series(v, (1, 8), scaling="weak")
        eff = pts[1].glups / (8 * pts[0].glups)
        assert eff > 0.9

    def test_strong_scaling_comm_dominates(self, cm):
        v = [x for x in fig6_variants() if x.name == "pipelined 2PPN"][0]
        pts = cm.series(v, (1, 64), scaling="strong")
        eff = pts[1].glups / (64 * pts[0].glups)
        assert eff < 0.75  # far from ideal at 64 nodes

    def test_rate_cache(self, cm):
        v = fig6_variants()[0]
        assert cm.process_rate(v) == cm.process_rate(v)

    def test_rejects_bad_scaling(self, cm):
        with pytest.raises(ValueError):
            cm.evaluate(fig6_variants()[0], 8, scaling="sideways")


class TestWavefront:
    def test_config_is_T1_single_team(self):
        c = wavefront_config(4, (20, 20, 120))
        assert c.teams == 1
        assert c.updates_per_thread == 1

    def test_balance_adds_copy_traffic(self):
        base = wavefront_balance((20, 20, 120), copy_layers=0)
        extra = wavefront_balance((20, 20, 120), copy_layers=2)
        assert extra.cache_bpc_update > base.cache_bpc_update

    def test_pipelined_beats_wavefront(self):
        wf, pipe = compare_wavefront(nehalem_ep(), shape=(200, 200, 200))
        assert pipe > wf


class TestAutotune:
    def test_returns_sorted(self):
        res = autotune(nehalem_ep(), shape=(150, 150, 150),
                       bx_values=(60, 120), bz_values=(20,),
                       T_values=(1, 2), du_values=(1, 4),
                       storages=("compressed",))
        vals = [r.mlups for r in res]
        assert vals == sorted(vals, reverse=True)
        assert len(res) == 8

    def test_top_truncates(self):
        res = autotune(nehalem_ep(), shape=(150, 150, 150),
                       bx_values=(120,), bz_values=(20,),
                       T_values=(2,), du_values=(1, 2, 4),
                       storages=("compressed",), top=2)
        assert len(res) == 2

    def test_loose_window_ranks_above_lockstep(self):
        res = autotune(nehalem_ep(), shape=(150, 150, 150),
                       bx_values=(120,), bz_values=(20,),
                       T_values=(2,), du_values=(1, 4),
                       storages=("compressed",))
        best = res[0].config
        from repro.core.parameters import RelaxedSpec
        assert isinstance(best.sync, RelaxedSpec) and best.sync.d_u == 4
