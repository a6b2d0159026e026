"""Tests for the analytic models (Eq. 2, Eqs. 4/5, Hockney, Fig. 5)."""

from __future__ import annotations

import pytest

from repro.machine import nehalem_ep
from repro.models import (
    HaloModel,
    NetworkModel,
    PipelineModel,
    fig5_parameters,
    nehalem_speedup_formula,
    qdr_infiniband,
)


class TestEq2:
    def test_paper_numbers(self):
        # P0 = Ms / 16 B: 18.5 GB/s socket -> 1.156 GLUP/s; node
        # expectation 2.3 GLUP/s.
        m = nehalem_ep()
        assert m.mem_bw_socket / 16 == pytest.approx(1.15625e9)
        assert m.sockets * m.mem_bw_socket / 16 == pytest.approx(2.3125e9)


class TestEq5:
    def test_paper_closed_form(self):
        # 16T/(7+4T): 1.45 at T=1, 2.13 at T=2, limit 4.
        assert nehalem_speedup_formula(1) == pytest.approx(1.4545, abs=1e-3)
        assert nehalem_speedup_formula(2) == pytest.approx(2.1333, abs=1e-3)

    def test_exact_ratios_reproduce_formula(self):
        # With Ms/Ms,1 exactly 2 and Mc/Ms,1 exactly 8, Eq. 5 IS 16T/(7+4T).
        pm = PipelineModel(ms=20e9, ms1=10e9, mc=80e9)
        for T in (1, 2, 4, 8):
            assert pm.speedup(4, T) == pytest.approx(nehalem_speedup_formula(T))

    def test_limit(self):
        pm = PipelineModel(ms=20e9, ms1=10e9, mc=80e9)
        assert pm.speedup(4, 1000) == pytest.approx(4.0, rel=0.05)

    def test_bandwidth_scaling_kills_blocking(self):
        # If memory bandwidth scales with cores (Ms,1 == Ms), speedup at
        # large cache bw -> t*T cancellation fails: speedup stays ~1 when
        # Mc ~ Ms ("making such an architecture a bad candidate").
        pm = PipelineModel(ms=10e9, ms1=10e9, mc=12e9)
        assert pm.speedup(4, 2) < 1.3

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineModel(ms=10e9, ms1=20e9, mc=80e9)
        pm = PipelineModel(ms=20e9, ms1=10e9, mc=80e9)
        with pytest.raises(ValueError):
            pm.speedup(0, 1)


class TestNetwork:
    def test_paper_parameters(self):
        n = qdr_infiniband()
        assert n.latency == pytest.approx(1.8e-6)
        assert n.bandwidth == pytest.approx(3.2e9)

    def test_message_time(self):
        n = NetworkModel(latency=1e-6, bandwidth=1e9)
        assert n.message_time(1e6) == pytest.approx(1e-6 + 1e-3)

    def test_copy_factor_doubles_wire(self):
        n = NetworkModel(latency=0.0, bandwidth=1e9, copy_factor=1.0)
        assert n.message_time(1e6) == pytest.approx(2e-3)


class TestFig5Model:
    def test_bulk_cells_trapezoid(self):
        hm = fig5_parameters()
        # h=1: just L^3; h=2: (L+2)^3 + L^3.
        assert hm.bulk_cells(10, 1) == 1000
        assert hm.bulk_cells(10, 2) == 12 ** 3 + 10 ** 3

    def test_large_L_no_influence_for_small_h(self):
        hm = HaloModel(expanded_messages=False)
        assert hm.advantage(320, 2) == pytest.approx(1.0, abs=0.05)

    def test_small_L_aggregation_gain(self):
        hm = HaloModel(expanded_messages=False)
        assert max(hm.advantage(5, h) for h in (4, 8, 16, 32)) > 2.0

    def test_midrange_degradation_grows_with_h(self):
        hm = HaloModel(expanded_messages=False)
        assert hm.advantage(50, 32) < hm.advantage(50, 8) < hm.advantage(50, 2)

    def test_efficiency_comm_limited_below_100(self):
        hm = fig5_parameters()
        assert hm.evaluate(20, 2).efficiency < 0.5
        assert hm.evaluate(320, 2).efficiency > 0.8

    def test_expanded_messages_cost_more(self):
        a = HaloModel(expanded_messages=True)
        b = HaloModel(expanded_messages=False)
        assert a.comm_time(20, 8) > b.comm_time(20, 8)

    def test_validation(self):
        hm = fig5_parameters()
        with pytest.raises(ValueError):
            hm.bulk_cells(0, 1)
        with pytest.raises(ValueError):
            HaloModel(node_lups=0)
