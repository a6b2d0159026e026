"""Tests for the event engine and the max-min fair flow resource."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.resources import FlowResource, waterfill_rates


class TestEngine:
    def test_order_and_time(self):
        e = Engine()
        seen = []
        e.schedule(2.0, lambda: seen.append(("b", e.now)))
        e.schedule(1.0, lambda: seen.append(("a", e.now)))
        e.run()
        assert seen == [("a", 1.0), ("b", 2.0)]

    def test_tie_break_by_insertion(self):
        e = Engine()
        seen = []
        e.schedule(1.0, lambda: seen.append(1))
        e.schedule(1.0, lambda: seen.append(2))
        e.run()
        assert seen == [1, 2]

    def test_cancel(self):
        e = Engine()
        seen = []
        ev = e.schedule(1.0, lambda: seen.append(1))
        ev.cancel()
        e.run()
        assert seen == []

    def test_run_until(self):
        e = Engine()
        seen = []
        e.schedule(5.0, lambda: seen.append(1))
        e.run(until=2.0)
        assert seen == [] and e.now == 2.0
        e.run()
        assert seen == [1]

    def test_rejects_past(self):
        e = Engine()
        with pytest.raises(ValueError):
            e.schedule(-1.0, lambda: None)

    def test_nested_scheduling(self):
        e = Engine()
        seen = []
        e.schedule(1.0, lambda: e.schedule(1.0, lambda: seen.append(e.now)))
        e.run()
        assert seen == [2.0]


class TestWaterfill:
    def test_equal_share(self):
        assert waterfill_rates(9.0, [10, 10, 10]) == [3.0, 3.0, 3.0]

    def test_caps_respected(self):
        rates = waterfill_rates(10.0, [2.0, 100.0])
        assert rates == [2.0, 8.0]

    def test_work_conserving(self):
        rates = waterfill_rates(10.0, [1.0, 2.0, 100.0])
        assert sum(rates) == pytest.approx(10.0)
        assert rates[0] == 1.0 and rates[1] == 2.0

    def test_all_capped_below_capacity(self):
        rates = waterfill_rates(100.0, [1.0, 2.0])
        assert rates == [1.0, 2.0]

    def test_empty(self):
        assert waterfill_rates(5.0, []) == []


class TestFlowResource:
    def test_single_flow_time(self):
        e = Engine()
        r = FlowResource(e, 100.0)
        done = []
        r.start(200.0, on_done=lambda: done.append(e.now))
        e.run()
        assert done == [pytest.approx(2.0)]

    def test_cap_limits_single_flow(self):
        e = Engine()
        r = FlowResource(e, 100.0)
        done = []
        r.start(100.0, cap=10.0, on_done=lambda: done.append(e.now))
        e.run()
        assert done == [pytest.approx(10.0)]

    def test_two_flows_share(self):
        e = Engine()
        r = FlowResource(e, 100.0)
        done = {}
        r.start(100.0, on_done=lambda: done.setdefault("a", e.now))
        r.start(100.0, on_done=lambda: done.setdefault("b", e.now))
        e.run()
        # Both share 50 B/s each; both finish at t=2.
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(2.0)

    def test_late_arrival_slows_first(self):
        e = Engine()
        r = FlowResource(e, 100.0)
        done = {}
        r.start(100.0, on_done=lambda: done.setdefault("a", e.now))
        e.schedule(0.5, lambda: r.start(
            100.0, on_done=lambda: done.setdefault("b", e.now)))
        e.run()
        # a: 50 B alone in 0.5 s, then 50 B at 50 B/s -> t = 1.5.
        assert done["a"] == pytest.approx(1.5)
        # b: 50 B while sharing (1.0 s), then 50 B alone (0.5 s) -> t = 2.0.
        assert done["b"] == pytest.approx(2.0)

    def test_zero_byte_flow_completes_immediately(self):
        e = Engine()
        r = FlowResource(e, 10.0)
        done = []
        r.start(0.0, on_done=lambda: done.append(e.now))
        e.run()
        assert done == [0.0]

    def test_byte_accounting(self):
        e = Engine()
        r = FlowResource(e, 10.0)
        r.start(30.0)
        r.start(20.0)
        e.run()
        assert r.total_bytes == pytest.approx(50.0)
        assert r.busy_time == pytest.approx(5.0)

    def test_rejects_bad_args(self):
        e = Engine()
        with pytest.raises(ValueError):
            FlowResource(e, 0.0)
        r = FlowResource(e, 10.0)
        with pytest.raises(ValueError):
            r.start(-1.0)
