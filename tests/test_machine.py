"""Tests for the machine substrate: topology, cache model, host STREAM."""

from __future__ import annotations

import pytest

from repro.machine import (
    GB,
    MB,
    CacheLevel,
    MachineSpec,
    SharedCacheModel,
    host_stream_copy,
    nehalem_ep,
)


class TestTopology:
    def test_nehalem_paper_constants(self):
        m = nehalem_ep()
        assert m.sockets == 2 and m.cores_per_socket == 4
        assert m.mem_bw_socket == pytest.approx(18.5 * GB)
        assert m.mem_bw_single == pytest.approx(10.0 * GB)
        assert m.shared_cache.size == 8 * MB
        assert m.shared_cache.bandwidth == pytest.approx(80 * GB)
        # Ms/Ms,1 ~ 2, Mc/Ms ~ 4 (Sect. 1.4).
        assert 1.7 < m.mem_bw_socket / m.mem_bw_single < 2.1
        assert 3.9 < m.shared_cache.bandwidth / m.mem_bw_socket < 4.7

    def test_nehalem_describe_line(self):
        m = nehalem_ep()
        assert m.total_cores == 8
        assert m.describe() == (
            "Nehalem EP (Xeon 5550): 2x4 cores @ 2.66 GHz, L3 8 MB shared/4, "
            "Ms=18.5 GB/s, Ms1=10.0 GB/s, Mc=80.0 GB/s")

    def test_barrier_cost_grows_across_sockets(self):
        m = nehalem_ep()
        assert m.barrier_cost(8, 2) > m.barrier_cost(4, 1)
        assert m.barrier_cost(8, 2) > 4 * m.barrier_cost(8, 1) * 0.9

    def test_coherence_latency(self):
        m = nehalem_ep()
        assert m.coherence_latency(0, 0) < m.coherence_latency(0, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="Ms,1 cannot exceed"):
            MachineSpec(
                name="bad", sockets=1, cores_per_socket=2, clock_hz=2e9,
                caches=(CacheLevel("L3", 4 * MB, 2, 40 * GB),),
                mem_bw_socket=10 * GB, mem_bw_single=20 * GB,
                remote_bw=10 * GB, core_mlups=400e6,
            )
        with pytest.raises(ValueError, match="outer cache level"):
            MachineSpec(
                name="bad", sockets=1, cores_per_socket=4, clock_hz=2e9,
                caches=(CacheLevel("L2", 4 * MB, 2, 40 * GB),),
                mem_bw_socket=10 * GB, mem_bw_single=8 * GB,
                remote_bw=10 * GB, core_mlups=400e6,
            )


class TestHostStream:
    def test_reports_the_two_stream_copy_figure(self):
        r = host_stream_copy(n_mb=4, repeats=2)
        assert r.threads == 1
        assert r.per_thread == r.bandwidth > 0
        assert r.gbs() == r.bandwidth / 1e9

    def test_measures_at_least_once(self):
        assert host_stream_copy(n_mb=1, repeats=0).bandwidth > 0


class TestCacheModel:
    def test_hit_and_miss(self):
        c = SharedCacheModel(1000, usable_fraction=1.0)
        hit, ev = c.touch("a", 400)
        assert not hit and not ev
        hit, ev = c.touch("a", 400)
        assert hit

    def test_lru_eviction_order(self):
        c = SharedCacheModel(1000, usable_fraction=1.0)
        c.touch("a", 400)
        c.touch("b", 400)
        c.touch("a", 400)        # refresh a -> b is LRU
        _, ev = c.touch("c", 400)
        assert [e.key for e in ev] == ["b"]

    def test_dirty_writeback_bytes(self):
        c = SharedCacheModel(1000, usable_fraction=1.0)
        c.touch("a", 600, dirty_bytes=300)
        _, ev = c.touch("b", 600)
        assert ev[0].dirty_bytes == 300

    def test_oversized_block_streams_alone(self):
        c = SharedCacheModel(1000, usable_fraction=1.0)
        c.touch("a", 400)
        _, ev = c.touch("big", 5000)
        assert c.contains("big")
        assert not c.contains("a")

    def test_forced_evict_and_flush(self):
        c = SharedCacheModel(1000, usable_fraction=1.0)
        c.touch("a", 300, dirty_bytes=100)
        c.touch("b", 300)
        rec = c.evict("a")
        assert rec is not None and rec.dirty_bytes == 100
        assert c.evict("a") is None
        rest = c.flush()
        assert [e.key for e in rest] == ["b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedCacheModel(0)
        with pytest.raises(ValueError):
            SharedCacheModel(100, usable_fraction=0.0)
        c = SharedCacheModel(100)
        with pytest.raises(ValueError):
            c.touch("a", 0)
