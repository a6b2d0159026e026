"""Observability battery: tracer, registry, exporters, merge, lint rule.

The contracts pinned here:

* the disabled tracer is a true no-op — identity-checked ``NULL_SPAN``
  and an *exact* "zero spans allocated" counter assertion, not a timing
  test;
* spans nest properly per ``(pid, tid)`` row and always pair (the lint
  rule enforcing with-statement scoping is itself tested);
* a traced solve is bit-identical to the untraced solve on every
  backend, its spans cover >= 95 % of the wall time, and the
  distributed backends merge every rank onto one timeline — for
  procmpi under fork *and* spawn;
* the Chrome ``trace_events`` export round-trips through JSON;
* the orphaned module counters (procmpi spawns, shm segments, cache
  hits) now live in the obs registry with their original functions as
  compatible reads;
* ``Service.stats`` is an immutable point-in-time snapshot.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro
from repro.core.parameters import PipelineConfig, RelaxedSpec
from repro.grid.grid3d import Grid3D
from repro.obs import (
    NULL_SPAN,
    REGISTRY,
    MetricsRegistry,
    Trace,
    Tracer,
    load_chrome_trace,
    span_coverage,
    spans_started,
    stage_occupancy,
    to_chrome,
    trace_metrics,
    write_chrome_trace,
)
from repro.obs.tracer import NULL_TRACER


def small_problem():
    grid = Grid3D((16, 12, 12))
    field = np.random.default_rng(7).random(grid.shape)
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(3, 64, 64), sync=RelaxedSpec(1, 2),
                         passes=2)
    return grid, field, cfg


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        assert reg.inc("a") == 1
        assert reg.inc("a", 4) == 5
        reg.set_gauge("g", 2.5)
        assert reg.counter("a") == 5
        assert reg.counter("missing") == 0
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 2.5
        # The snapshot is a copy, not a live view.
        reg.inc("a")
        assert snap["counters"]["a"] == 5

    def test_global_registry_module_functions(self):
        from repro.obs import registry as mod
        before = mod.counter("test.obs.global")
        mod.inc("test.obs.global", 3)
        assert mod.counter("test.obs.global") == before + 3
        assert mod.REGISTRY is REGISTRY

    def test_concurrent_hammer_pins_exact_totals(self):
        # The monitor samples registries from its own thread while
        # worker threads increment them, so lost updates would show up
        # as drifting health counters.  8 threads x 2500 increments on
        # shared names must land on the exact totals.
        import threading

        reg = MetricsRegistry()
        threads, iters = 8, 2500
        start = threading.Barrier(threads)

        def hammer(tid: int) -> None:
            start.wait()
            for i in range(iters):
                reg.inc("shared")
                reg.inc(f"per.{tid}", 2)
                reg.set_gauge("last", float(i))
                if i % 100 == 0:
                    reg.snapshot()  # concurrent reads must not tear

        pool = [threading.Thread(target=hammer, args=(t,))
                for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert reg.counter("shared") == threads * iters
        for tid in range(threads):
            assert reg.counter(f"per.{tid}") == 2 * iters
        assert reg.snapshot()["gauges"]["last"] == float(iters - 1)


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------


class TestTracerFastPath:
    def test_disabled_span_is_the_null_singleton(self):
        assert NULL_TRACER.span("x", cat="y", tid=3, any_arg=1) is NULL_SPAN
        t = Tracer(enabled=False)
        assert t.span("x") is NULL_SPAN

    def test_disabled_tracing_allocates_zero_spans(self):
        # The exact contract the whole "compiled to a no-op" claim
        # rests on: the process-wide allocation counter must not move.
        before = spans_started()
        for _ in range(100):
            with NULL_TRACER.span("hot", cat="loop", i=1):
                pass
            NULL_TRACER.count("c")
        assert spans_started() == before
        assert NULL_TRACER.finish().spans == []
        assert NULL_TRACER.finish().counters == {}

    def test_enabled_tracing_allocates(self):
        t = Tracer()
        before = spans_started()
        with t.span("a"):
            pass
        assert spans_started() == before + 1

    def test_untraced_solve_allocates_zero_spans(self):
        grid, field, cfg = small_problem()
        before = spans_started()
        repro.solve(grid, field, cfg)
        assert spans_started() == before


class TestTracerRecords:
    def test_span_records_name_args_and_order(self):
        t = Tracer(pid=5)
        with t.span("outer", cat="c", tid=2, k=1):
            with t.span("inner", cat="c", tid=2):
                pass
        trace = t.finish()
        names = [s.name for s in trace.spans]
        assert names == ["inner", "outer"]  # recorded on exit
        outer = trace.spans[1]
        assert outer.pid == 5 and outer.tid == 2
        assert outer.arg("k") == 1 and outer.arg("absent", -1) == -1
        assert outer.start <= trace.spans[0].start
        assert outer.end >= trace.spans[0].end

    def test_counters_collected(self):
        t = Tracer()
        t.count("n", 2)
        t.count("n")
        trace = t.finish()
        assert trace.counters == {"n": 3}

    def test_exception_still_closes_span(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("risky"):
                raise RuntimeError("boom")
        trace = t.finish()
        assert [s.name for s in trace.spans] == ["risky"]
        assert trace.spans[0].end >= trace.spans[0].start

    def test_absorb_rebases_and_retags(self):
        child = Tracer(pid=0)
        with child.span("work"):
            pass
        ctrace = child.finish()
        parent = Tracer(pid=0)
        anchor = ctrace.start + 100.0  # any foreign clock origin
        parent.absorb(ctrace, pid=3, at=anchor, label="rank 2")
        merged = parent.finish()
        assert merged.pids() == [3]
        assert merged.spans[0].start == pytest.approx(anchor)
        assert merged.processes[3] == "rank 2"

    def test_absorb_sums_counters(self):
        parent = Tracer()
        parent.count("exchange.bytes", 10)
        for _ in range(2):
            child = Tracer()
            child.count("exchange.bytes", 5)
            parent.absorb(child.finish(), pid=1, at=0.0)
        assert parent.finish().counters["exchange.bytes"] == 20


def _assert_proper_nesting(trace: Trace) -> None:
    """Per (pid, tid) row, spans must nest: overlap implies containment."""
    rows = {}
    for s in trace.spans:
        rows.setdefault((s.pid, s.tid), []).append(s)
    for row in rows.values():
        row.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in row:
            while stack and stack[-1].end <= s.start:
                stack.pop()
            if stack:
                assert s.end <= stack[-1].end + 1e-9, (
                    f"span {s.name} half-overlaps {stack[-1].name}")
            stack.append(s)


# ---------------------------------------------------------------------------
# Traced solves: bit-identity, coverage, merge
# ---------------------------------------------------------------------------


class TestTracedSolves:
    @pytest.mark.parametrize("backend,topology", [
        ("shared", None),
        ("simmpi", (1, 1, 2)),
        ("procmpi", (1, 1, 2)),
    ])
    def test_bit_identical_and_covered(self, backend, topology):
        grid, field, cfg = small_problem()
        plain = repro.solve(grid, field.copy(), cfg, topology=topology,
                            backend=backend)
        traced = repro.solve(grid, field.copy(), cfg, topology=topology,
                             backend=backend, trace=True)
        assert np.array_equal(plain.field, traced.field)
        assert plain.trace is None and plain.metrics == {}
        trace = traced.trace
        assert trace is not None
        assert span_coverage(trace) >= 0.95
        n_ranks = 1 if topology is None else int(np.prod(topology))
        if backend == "shared":
            assert trace.pids() == [0]
        else:
            # Driver pid 0 plus one pid per rank, one merged timeline.
            assert trace.pids() == list(range(n_ranks + 1))
        _assert_proper_nesting(trace)
        assert traced.metrics["spans"] == len(trace.spans)
        assert traced.metrics["ranks"] == len(trace.pids())

    def test_distributed_trace_has_exchange_signal(self):
        grid, field, cfg = small_problem()
        res = repro.solve(grid, field, cfg, topology=(1, 1, 2),
                          backend="simmpi", trace=True)
        assert res.metrics["exchange.messages"] > 0
        assert res.metrics["exchange.bytes"] > 0
        assert res.metrics["exchange_wait_s"] >= 0
        assert 0.0 <= res.metrics["exchange_wait_frac"] <= 1.0
        waits = [s for s in res.trace.spans if s.name == "exchange.recv_wait"]
        assert waits and all(s.pid > 0 for s in waits)

    def test_stage_occupancy_shares(self):
        grid, field, cfg = small_problem()
        res = repro.solve(grid, field, cfg, trace=True)
        shares = stage_occupancy(res.trace)
        assert sorted(shares) == list(range(cfg.n_stages))
        assert sum(shares.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_procmpi_merge_across_start_methods(self, start_method,
                                                monkeypatch):
        import multiprocessing as mp
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"start method {start_method} unavailable")
        monkeypatch.setenv("REPRO_PROCMPI_START", start_method)
        grid, field, cfg = small_problem()
        plain = repro.solve(grid, field.copy(), cfg, topology=(1, 1, 2),
                            backend="procmpi")
        traced = repro.solve(grid, field.copy(), cfg, topology=(1, 1, 2),
                             backend="procmpi", trace=True)
        assert np.array_equal(plain.field, traced.field)
        trace = traced.trace
        assert trace.pids() == [0, 1, 2]
        assert span_coverage(trace) >= 0.95
        # Rank spans must land inside the driver's solve span even
        # though the children's clock origins are arbitrary (spawn!).
        solve_span = next(s for s in trace.spans if s.name == "solve")
        for s in trace.spans:
            if s.pid > 0:
                assert s.start >= solve_span.start - 1e-6
        _assert_proper_nesting(trace)


# ---------------------------------------------------------------------------
# Chrome export
# ---------------------------------------------------------------------------


class TestChromeExport:
    def test_schema(self):
        grid, field, cfg = small_problem()
        res = repro.solve(grid, field, cfg, topology=(1, 1, 2),
                          backend="simmpi", trace=True)
        doc = to_chrome(res.trace)
        assert set(doc) >= {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(res.trace.spans)
        assert {m["pid"] for m in metas} == set(res.trace.pids())
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0  # microseconds, rebased
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        assert doc["otherData"]["counters"] == res.trace.counters

    def test_round_trip(self, tmp_path):
        grid, field, cfg = small_problem()
        res = repro.solve(grid, field, cfg, topology=(1, 1, 2),
                          backend="simmpi", trace=True)
        path = tmp_path / "trace.json"
        write_chrome_trace(res.trace, path)
        json.loads(path.read_text())  # must literally be JSON
        back = load_chrome_trace(path)
        assert len(back.spans) == len(res.trace.spans)
        assert back.counters == res.trace.counters
        assert back.processes == res.trace.processes
        m0, m1 = trace_metrics(res.trace), trace_metrics(back)
        assert set(m0) == set(m1)
        for k in m0:
            assert m0[k] == pytest.approx(m1[k], abs=1e-5), k
        orig = sorted((s.name, s.pid, s.tid, tuple(sorted(
            (k, str(v)) for k, v in s.args))) for s in res.trace.spans)
        loaded = sorted((s.name, s.pid, s.tid, tuple(sorted(
            (k, str(v)) for k, v in s.args))) for s in back.spans)
        assert orig == loaded

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.json"
        write_chrome_trace(Trace(), path)
        back = load_chrome_trace(path)
        assert back.spans == []
        assert span_coverage(back) == 0.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        grid, field, cfg = small_problem()
        res = repro.solve(grid, field, cfg, topology=(1, 1, 2),
                          backend="simmpi", trace=True)
        path = tmp_path / "t.json"
        write_chrome_trace(res.trace, path)
        return path

    def test_dump(self, trace_file, capsys):
        from repro.obs.cli import main
        assert main(["dump", str(trace_file), "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "solve" in out and "pid" in out

    def test_summarize(self, trace_file, capsys):
        from repro.obs.cli import main
        assert main(["summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "span_coverage" in out and "exchange_wait_frac" in out

    def test_diff(self, trace_file, capsys):
        from repro.obs.cli import main
        assert main(["diff", str(trace_file), str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out

    def test_missing_file_is_usage_error(self, tmp_path):
        from repro.obs.cli import main
        with pytest.raises(SystemExit):
            main(["summarize", str(tmp_path / "nope.json")])

    @pytest.fixture()
    def empty_trace_file(self, tmp_path):
        path = tmp_path / "empty.json"
        write_chrome_trace(Trace(), path)
        return path

    def test_summarize_empty_trace_is_clear_not_a_crash(
            self, empty_trace_file, capsys):
        # Regression: a zero-span trace used to render an all-zero
        # metrics table, indistinguishable from a measured run that did
        # nothing.  Now it must exit 0 with a plain explanation instead.
        from repro.obs.cli import main
        assert main(["summarize", str(empty_trace_file)]) == 0
        out = capsys.readouterr().out
        assert "no spans or counters recorded" in out
        assert "was tracing enabled?" in out

    def test_diff_with_empty_side_says_so(self, trace_file,
                                          empty_trace_file, capsys):
        from repro.obs.cli import main
        assert main(["diff", str(empty_trace_file),
                     str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "no spans or counters recorded" in out
        assert "nothing to diff" in out


# ---------------------------------------------------------------------------
# Counter unification (satellite): setup counts live in the registry
# ---------------------------------------------------------------------------


def _rank_of(comm, rank):
    return rank


class TestCounterUnification:
    def test_process_spawns_reads_registry(self):
        from repro.dist import SPAWNS_COUNTER, run_procs
        from repro.obs import registry
        before = registry.counter(SPAWNS_COUNTER)
        assert run_procs(2, _rank_of, timeout=60.0) == [0, 1]
        assert registry.counter(SPAWNS_COUNTER) == before + 2

    def test_segment_creates_reads_registry(self):
        from repro.dist import SEGMENTS_COUNTER, ShmPool
        from repro.obs import registry
        before = registry.counter(SEGMENTS_COUNTER)
        pool = ShmPool()
        try:
            pool.create_block(64)
        finally:
            pool.cleanup()
        assert registry.counter(SEGMENTS_COUNTER) == before + 1

    def test_cache_counters_are_registry_backed(self):
        from repro.obs import registry
        from repro.serve.cache import ResultCache
        cache = ResultCache(max_entries=1)
        g_hits = registry.counter("serve.cache.hits")
        g_miss = registry.counter("serve.cache.misses")
        assert cache.get("0" * 64) is None
        assert (cache.metrics.counter("hits"), cache.metrics.counter("misses")) == (0, 1)
        grid, field, cfg = small_problem()
        res = repro.solve(grid, field, cfg)
        cache.put("a" * 64, res)
        assert cache.get("a" * 64) is not None
        assert cache.metrics.counter("hits") == 1
        cache.put("b" * 64, res)  # evicts "a"
        assert cache.metrics.counter("evictions") == 1
        # Per-instance counters mirror into the process-wide registry.
        assert registry.counter("serve.cache.hits") == g_hits + 1
        assert registry.counter("serve.cache.misses") == g_miss + 1


# ---------------------------------------------------------------------------
# Service.stats snapshot (satellite regression test)
# ---------------------------------------------------------------------------


class TestServiceStatsSnapshot:
    def test_snapshot_is_frozen_and_point_in_time(self):
        from repro.serve import Service
        grid, field, cfg = small_problem()
        with Service(workers=0) as svc:
            svc.submit(grid, field, cfg)
            svc.drain()
            before = svc.stats
            assert before.submitted == 1 and before.completed == 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                before.submitted = 99
            svc.submit(grid, field, cfg)  # cache hit, counted immediately
            after = svc.stats
            # The earlier snapshot must not have drifted — this is the
            # regression the live-object stats property used to cause.
            assert before.submitted == 1
            assert after.submitted == 2
            assert after.cache_hits == before.cache_hits + 1
            assert svc.metrics.counter("submitted") == 2
            assert svc.metrics.snapshot()["gauges"]["queue_depth"] == 0

    def test_future_result_metrics_attribute(self):
        from repro.serve import Service
        grid, field, cfg = small_problem()
        with Service(workers=0) as svc:
            fut = svc.submit(grid, field, cfg)
            svc.drain()
            res = fut.result(timeout=0)
        assert isinstance(res.metrics, dict)


# ---------------------------------------------------------------------------
# Lint rule: span pairing
# ---------------------------------------------------------------------------


class TestSpanPairingLint:
    def _findings(self, source: str):
        from repro.analysis.lint import check_span_pairing, lint_source
        return [f for f in lint_source("pkg/mod.py", source,
                                       checkers=(check_span_pairing,))]

    def test_with_statement_is_clean(self):
        src = ("def f(tracer):\n"
               "    with tracer.span('a', cat='x'):\n"
               "        pass\n")
        assert self._findings(src) == []

    def test_try_finally_is_clean(self):
        src = ("def f(tracer):\n"
               "    try:\n"
               "        s = tracer.span('a')\n"
               "        s.__enter__()\n"
               "    finally:\n"
               "        pass\n")
        assert self._findings(src) == []

    def test_unpaired_span_is_flagged(self):
        src = ("def f(tracer):\n"
               "    s = tracer.span('a')\n"
               "    s.__enter__()\n")
        findings = self._findings(src)
        assert len(findings) == 1
        assert findings[0].checker == "span-pairing"

    def test_obs_package_is_exempt(self):
        from repro.analysis.lint import check_span_pairing, lint_source
        src = "def f(t):\n    s = t.span('a')\n"
        assert lint_source("src/repro/obs/tracer.py", src,
                           checkers=(check_span_pairing,)) == []

    def test_instrumented_modules_are_clean(self):
        # The rule at zero findings over the real instrumented modules —
        # the same assertion the CI lint gate enforces repo-wide.
        from pathlib import Path

        from repro.analysis.lint import check_span_pairing, lint_source
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        for rel in ("api.py", "core/executor.py", "dist/solver.py"):
            path = root / rel
            findings = lint_source(str(path), path.read_text(),
                                   checkers=(check_span_pairing,))
            assert findings == [], rel


# ---------------------------------------------------------------------------
# Perf integration
# ---------------------------------------------------------------------------


class TestPerfIntegration:
    def test_traced_scenario_registered_and_summarized(self):
        from repro.perf.scenarios import get_scenario
        sc = get_scenario("solve_traced@quick")
        assert sc.params["trace"] is True
        payload = sc.run_once()
        metrics = sc.summarize(payload, 1.0)
        assert metrics["obs_spans"].gate is True
        assert metrics["obs_spans"].value == len(payload.trace.spans)
        assert metrics["obs_span_coverage"].gate is False
        assert metrics["obs_span_coverage"].value >= 0.95
        assert "obs_exchange_wait_frac" in metrics

    def test_untraced_solve_has_no_obs_metrics(self):
        from repro.perf.scenarios import get_scenario
        sc = get_scenario("solve_shared@quick")
        metrics = sc.summarize(sc.run_once(), 1.0)
        assert not any(k.startswith("obs_") for k in metrics)
