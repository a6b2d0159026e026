"""The traced pass: per-layer metrics, measured from outside the program.

Layers are this repo's packages.  Numbers come from three places, none
of which changes ``src/``: a read-only reduction of the spans
``solve(trace=True)`` already returns, ``result.stats`` counters, and
direct probes — each one of this benchmark's own spans around a call
into a layer's public function.  A metric whose layer is not on a
workload's path is ``None`` with the reason in ``notes``; so is a probe
that raised (later simplicity PRs may rename the internals probed here
and may not edit this directory), and the run goes on.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from measure import percentile, stream_mib
from spans import BenchSpans, self_time_by_name
from workloads import (WARMUPS, Loop, ServeWorkload, SolverWorkload, Spec,
                       make_wave)

#: name -> (unit, better).  BENCHMARK.json's ``per_layer`` mirrors this.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "machine.stream_gbs": ("GB/s", "higher"),
    "machine.stream_drift_frac": ("frac", "lower"),
    "kernels.sweep_mlups": ("MLUP/s", "higher"),
    "api.frontend_self_s": ("s", "lower"),
    "analysis.assert_legal_s": ("s", "lower"),
    "grid.region_calls": ("count", "lower"),
    "grid.region_s": ("s", "lower"),
    "grid.region_us_per_call": ("us", "lower"),
    "core.block_ops": ("count", "lower"),
    "core.updates": ("count", "lower"),
    "core.cells_updated": ("count", "lower"),
    "core.empty_block_ops": ("count", "lower"),
    "core.redundant_frac": ("frac", "lower"),
    "core.sync_self_s": ("s", "lower"),
    "core.block_self_s": ("s", "lower"),
    "core.sync_blocked_polls": ("count", "lower"),
    "core.storage_setup_s": ("s", "lower"),
    "core.storage_gather_s": ("s", "lower"),
    "core.storage_gather_gbs": ("GB/s", "higher"),
    "core.storage_write_s": ("s", "lower"),
    "core.validate_overhead_frac": ("frac", "lower"),
    "core.speedup_vs_sweep": ("x", "higher"),
    "engine.apply_calls": ("count", "lower"),
    "engine.apply_s": ("s", "lower"),
    "engine.apply_frac": ("frac", "higher"),
    "engine.apply_mlups": ("MLUP/s", "higher"),
    "engine.padded_mlups": ("MLUP/s", "higher"),
    "engine.roofline_frac": ("frac", "higher"),
    "threads.speedup_vs_shared": ("x", "higher"),
    "threads.stage_overlap": ("x", "higher"),
    "threads.stage_imbalance": ("x", "lower"),
    "dist.messages": ("count", "lower"),
    "dist.bytes_exchanged": ("B", "lower"),
    "dist.halo_layers": ("count", "lower"),
    "dist.exchange_phase_s": ("s", "lower"),
    "dist.exchange_wait_s": ("s", "lower"),
    "dist.exchange_wait_frac": ("frac", "lower"),
    "dist.rank_imbalance": ("x", "lower"),
    "dist.launch_overhead_s": ("s", "lower"),
    "dist.simmpi_mlups": ("MLUP/s", "higher"),
    "dist.speedup_vs_shared": ("x", "higher"),
    "serve.jobs_per_s": ("1/s", "higher"),
    "serve.hit_p50_s": ("s", "lower"),
    "serve.miss_p50_s": ("s", "lower"),
    "serve.job_p95_s": ("s", "lower"),
    "serve.cache_hit_frac": ("frac", "higher"),
    "serve.backend_solves": ("count", "lower"),
    "serve.coalesced": ("count", "higher"),
    "serve.batched_jobs": ("count", "higher"),
    "serve.content_key_s": ("s", "lower"),
    "serve.submit_s": ("s", "lower"),
    "serve.overhead_vs_direct": ("x", "lower"),
    "obs.spans": ("count", "lower"),
    "obs.span_coverage": ("frac", "higher"),
    "obs.trace_overhead_frac": ("frac", "lower"),
}

#: Traced operations whose spans are reduced (the last ones run).
TRACED_KEPT = 3
#: Share of ``--seconds`` spent alternating untraced and traced ops.
TRACED_SHARE = 0.4


class Report:
    """Per-layer values plus the reason for every ``None``."""

    def __init__(self, bench: BenchSpans) -> None:
        self.bench = bench
        self.values: Dict[str, Optional[float]] = dict.fromkeys(PER_LAYER)
        self.notes: Dict[str, str] = {}

    def set(self, values: Dict[str, float]) -> None:
        for name, value in values.items():
            if name in PER_LAYER:
                self.values[name] = float(value)

    def skip_layer(self, layer: str, reason: str) -> None:
        for name in PER_LAYER:
            if name.startswith(layer + "."):
                self.notes[name] = reason

    def probe(self, names: Tuple[str, ...], fn: Callable[[], Dict[str, float]]):
        """Run a direct probe inside one benchmark span; never fatal."""
        try:
            with self.bench.span("probe." + names[0]):
                out = fn()
        except Exception as exc:  # noqa: BLE001 - renamed internals -> null
            for name in names:
                self.notes[name] = f"probe failed: {type(exc).__name__}: {exc}"
            return
        for name in names:
            self.values[name] = float(out[name])

    def finish(self) -> None:
        for name, value in self.values.items():
            if value is None:
                self.notes.setdefault(name, "not measured")


def reduce_traces(traces: List) -> Dict[str, float]:
    """Mean per-operation layer times from the program's own spans."""
    from repro import span_coverage

    k = len(traces)
    self_s: Dict[str, float] = {}
    apply_calls = apply_s = cells = wall = 0.0
    for trace in traces:
        for name, secs in self_time_by_name(trace.spans).items():
            self_s[name] = self_s.get(name, 0.0) + secs
        for s in trace.spans:
            if s.name == "apply":
                apply_calls += 1
                apply_s += s.duration
                cells += s.arg("cells", 0)
            elif s.name == "solve":
                wall += s.duration
    out = {
        "api.frontend_self_s": self_s.get("solve", 0.0) / k,
        "core.sync_self_s": self_s.get("pass", 0.0) / k,
        "core.block_self_s": self_s.get("block", 0.0) / k,
        "engine.apply_calls": apply_calls / k,
        "engine.apply_s": apply_s / k,
        "engine.apply_frac": apply_s / wall if wall else 0.0,
        "engine.apply_mlups": cells / apply_s / 1e6 if apply_s else 0.0,
        "obs.spans": sum(len(t.spans) for t in traces) / k,
        "obs.span_coverage": statistics.mean(span_coverage(t) for t in traces),
        "traced_wall_s": wall / k,
    }
    # Every span's self time belongs to exactly one layer, so on a
    # single-threaded rail this is 1.0 by construction; it falls below
    # 1 only if spans were dropped or failed to nest.
    busy = sum(self_s.values())
    out["accounted_frac"] = min(1.0, busy / wall) if wall else 0.0
    return out


def core_counts(result, useful_per_op: float) -> Dict[str, float]:
    st = result.stats
    return {
        "core.block_ops": st.block_ops,
        "core.updates": st.updates,
        "core.cells_updated": st.cells_updated,
        "core.empty_block_ops": st.empty_block_ops,
        "core.redundant_frac": 1.0 - useful_per_op / st.cells_updated,
        "core.sync_blocked_polls": result.metrics.get("sync.blocked_polls", 0.0),
    }


# -- direct probes -----------------------------------------------------------

def probe_stream(array_mib: int) -> Dict[str, float]:
    from repro.machine import host_stream_copy

    return {"machine.stream_gbs":
            host_stream_copy(n_mb=array_mib).bandwidth / 1e9}


def probe_sweep(grid, field, config) -> Dict[str, float]:
    from repro import reference_sweeps

    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_sweeps(grid, field, config.total_updates)
        best = min(best, time.perf_counter() - t0)
    return {"kernels.sweep_mlups":
            config.total_updates * field.size / best / 1e6}


def probe_assert_legal(spec: Spec, config) -> Dict[str, float]:
    from repro import assert_legal

    t0 = time.perf_counter()
    assert_legal(config, spec.shape, spec.topology or (1, 1, 1))
    return {"analysis.assert_legal_s": time.perf_counter() - t0}


def probe_regions(grid, config) -> Dict[str, float]:
    """Replay one pass's ``(block, shift)`` region algebra."""
    from repro.core import make_decomposition

    t0 = time.perf_counter()
    decomp = make_decomposition(grid.domain, config)
    calls = 0
    for stage in range(config.n_stages):
        for idx in range(decomp.n_traversal_blocks):
            for u_local in config.stage_updates(stage):
                decomp.region(idx, u_local - 1, grid.domain)
                calls += 1
    dt = time.perf_counter() - t0
    return {"grid.region_calls": calls, "grid.region_s": dt,
            "grid.region_us_per_call": dt / calls * 1e6}


def probe_storage(grid, field, config) -> Dict[str, float]:
    """Replay read / gather x 6 / write over the level-1 regions."""
    from repro import jacobi7
    from repro.core import make_decomposition, make_storage

    decomp = make_decomposition(grid.domain, config)
    t0 = time.perf_counter()
    storage = make_storage(config.storage, grid, field, decomp.shift_vec,
                           config.updates_per_pass, validate=False)
    storage.extract(0)
    setup_s = time.perf_counter() - t0
    offsets = jacobi7().offsets
    gather_s = write_s = 0.0
    gathered = 0
    for idx in range(decomp.n_traversal_blocks):
        region = decomp.region(idx, 0, grid.domain)
        if region.is_empty:
            continue
        center = storage.read(region, 0)
        t0 = time.perf_counter()
        for off in offsets:
            gathered += storage.gather(region, off, 0).nbytes
        t1 = time.perf_counter()
        storage.write(region, 1, center)
        t2 = time.perf_counter()
        gather_s += t1 - t0
        write_s += t2 - t1
    return {"core.storage_setup_s": setup_s,
            "core.storage_gather_s": gather_s,
            "core.storage_gather_gbs": gathered / gather_s / 1e9,
            "core.storage_write_s": write_s}


def probe_padded(spec: Spec, field, config) -> Dict[str, float]:
    """One full sweep straight through the engine, no storage in between."""
    from repro import get_engine, jacobi7

    src = np.zeros(tuple(n + 2 for n in spec.shape))
    src[1:-1, 1:-1, 1:-1] = field
    dst = src.copy()
    engine = get_engine(config.engine)
    engine.apply_padded(jacobi7(), src, dst, (0, 0, 0), spec.shape)  # warm
    t0 = time.perf_counter()
    engine.apply_padded(jacobi7(), src, dst, (0, 0, 0), spec.shape)
    return {"engine.padded_mlups":
            field.size / (time.perf_counter() - t0) / 1e6}


def common_probes(rep: Report, spec: Spec, grid, field, config) -> None:
    rep.probe(("kernels.sweep_mlups",), lambda: probe_sweep(grid, field, config))
    rep.probe(("analysis.assert_legal_s",),
              lambda: probe_assert_legal(spec, config))
    rep.probe(("grid.region_calls", "grid.region_s", "grid.region_us_per_call"),
              lambda: probe_regions(grid, config))
    rep.probe(("core.storage_setup_s", "core.storage_gather_s",
               "core.storage_gather_gbs", "core.storage_write_s"),
              lambda: probe_storage(grid, field, config))
    rep.probe(("engine.padded_mlups",),
              lambda: probe_padded(spec, field, config))


def derived(rep: Report, spec: Spec, mlups: float) -> None:
    v = rep.values
    if v["kernels.sweep_mlups"]:
        rep.set({"core.speedup_vs_sweep": mlups / v["kernels.sweep_mlups"]})
    if v["machine.stream_gbs"] and v["engine.apply_mlups"] is not None:
        p0 = v["machine.stream_gbs"] * 1e3 / spec.bytes_per_lup
        rep.set({"engine.roofline_frac": v["engine.apply_mlups"] / p0})


# -- the traced run of a solver workload -------------------------------------

def traced_solver(rep: Report, spec: Spec, seed: int, loop: Loop):
    bench = rep.bench
    with bench.span("setup"):
        work = SolverWorkload(spec, seed)
    kept = deque(maxlen=TRACED_KEPT)
    while loop.more():
        with bench.span("op.untraced"):
            work.operation(2 * loop.ops)
        with bench.span("op.traced"):
            result = work.operation(2 * loop.ops + 1, trace=True)
        if result is not None:
            kept.append(result)
        loop.tick()
    untraced = statistics.median(work.durations[0::2])
    traced = statistics.median(work.durations[1::2])
    useful = work.config.total_updates * work.fields[0].size
    mlups = useful / untraced / 1e6
    rep.set({"obs.trace_overhead_frac": traced / untraced - 1.0})
    reduced = {}
    if kept:
        reduced = reduce_traces([r.trace for r in kept])
        rep.set(reduced)
        rep.set(core_counts(kept[-1], useful))
    field = work.fields[0]

    def validated() -> Dict[str, float]:
        n = len(work.durations)
        work.operation(0, validate=True)
        return {"core.validate_overhead_frac":
                work.durations.pop(n) / untraced - 1.0}

    rep.probe(("core.validate_overhead_frac",), validated)
    common_probes(rep, spec, work.grid, field, work.config)

    def other_rail(**overrides) -> float:
        t0 = time.perf_counter()
        work.solve(field, **overrides)
        return time.perf_counter() - t0

    if spec.backend == "threads" and kept:
        def threads_probe() -> Dict[str, float]:
            shared = other_rail(backend="shared")
            busy, pass_wall = [], 0.0
            for r in kept:
                busy.append([val for k, val in sorted(r.metrics.items())
                             if k.startswith("stage.") and k.endswith(".busy_s")])
                pass_wall += sum(s.duration for s in r.trace.spans
                                 if s.name == "pass")
            per_stage = [sum(col) for col in zip(*busy)]
            return {"threads.speedup_vs_shared": shared / untraced,
                    "threads.stage_overlap": sum(per_stage) / pass_wall,
                    "threads.stage_imbalance":
                        max(per_stage) / statistics.mean(per_stage)}

        rep.probe(("threads.speedup_vs_shared", "threads.stage_overlap",
                   "threads.stage_imbalance"), threads_probe)
    else:
        rep.skip_layer("threads", f"backend is {spec.backend!r}, not 'threads'")

    if spec.topology is not None and kept:
        def dist_probe() -> Dict[str, float]:
            last = kept[-1]
            ranks = phase = wait = launch = 0.0
            imbalance = []
            for r in kept:
                spans = r.trace.spans
                rank_s = [s.duration for s in spans if s.name == "rank"]
                solve_s = sum(s.duration for s in spans if s.name == "solve")
                ranks += len(rank_s)
                phase += sum(s.duration for s in spans
                             if s.name == "exchange.phase")
                wait += sum(s.duration for s in spans
                            if s.name == "exchange.recv_wait")
                launch += solve_s - max(rank_s)
                work_s: Dict[int, float] = {}
                for s in spans:
                    if s.name == "block":
                        work_s[s.pid] = work_s.get(s.pid, 0.0) + s.duration
                imbalance.append(max(work_s.values())
                                 / statistics.mean(work_s.values()))
            simmpi = other_rail(backend="simmpi")
            shared = other_rail(backend="shared", topology=None)
            return {"dist.messages": last.messages,
                    "dist.bytes_exchanged": last.bytes_exchanged,
                    "dist.halo_layers": last.halo,
                    "dist.exchange_phase_s": phase / ranks,
                    "dist.exchange_wait_s": wait / ranks,
                    "dist.exchange_wait_frac": wait / phase if phase else 0.0,
                    "dist.rank_imbalance": statistics.mean(imbalance),
                    "dist.launch_overhead_s": launch / len(kept),
                    "dist.simmpi_mlups": useful / simmpi / 1e6,
                    "dist.speedup_vs_shared": shared / untraced}

        rep.probe(tuple(n for n in PER_LAYER if n.startswith("dist.")),
                  dist_probe)
    else:
        rep.skip_layer("dist", "single-process workload: nothing is exchanged")
    rep.skip_layer("serve", "solve() is called directly, not served")
    derived(rep, spec, mlups)
    work.verify()
    return work.oracle, (kept[-1].trace if kept else None), reduced


# -- the traced run of the served workload -----------------------------------

def traced_serve(rep: Report, spec: Spec, seed: int, loop: Loop):
    from repro import SolveJob, solve

    bench = rep.bench
    with bench.span("setup"):
        plain = ServeWorkload(spec, seed)
        work = ServeWorkload(spec, seed, record_traces=8)
    try:
        before = work.service.stats
        while loop.more():
            with bench.span("wave.untraced"):
                plain.wave(WARMUPS + loop.ops)
            with bench.span("wave.traced"):
                work.wave(WARMUPS + loop.ops)
            loop.tick()
        after = work.service.stats
        waves = len(work.wave_walls)
        by_kind = {kind: [d for d, k in zip(work.durations, work.kinds)
                          if k == kind] for kind in ("hit", "miss")}
        submitted = after.submitted - before.submitted
        rep.set({
            "serve.jobs_per_s": len(work.durations) / work.wall,
            "serve.hit_p50_s": statistics.median(by_kind["hit"]),
            "serve.miss_p50_s": statistics.median(by_kind["miss"]),
            "serve.job_p95_s": percentile(work.durations, 95),
            "serve.cache_hit_frac": (after.cache_hits - before.cache_hits)
            / submitted,
            "serve.backend_solves": (after.backend_solves
                                     - before.backend_solves) / waves,
            "serve.coalesced": (after.coalesced - before.coalesced) / waves,
            "serve.batched_jobs": (after.batched_jobs
                                   - before.batched_jobs) / waves,
            "serve.submit_s": statistics.median(work.submit_s),
            "obs.trace_overhead_frac": statistics.median(work.wave_walls)
            / statistics.median(plain.wave_walls) - 1.0,
        })
        useful = work.config.total_updates * work.hot[0].size
        mlups = work.useful_updates / work.wall / 1e6
        records = work.service.monitor.recorder.records()
        traces = [r.trace for r in records[-TRACED_KEPT:]]
        reduced = {}
        if traces:
            reduced = reduce_traces(traces)
            rep.set(reduced)
        _, fresh = make_wave(seed, spec, WARMUPS)

        def content_key() -> Dict[str, float]:
            times = []
            for field in fresh:
                t0 = time.perf_counter()
                SolveJob(grid=work.grid, field=field,
                         config=work.config).content_key()
                times.append(time.perf_counter() - t0)
            return {"serve.content_key_s": statistics.median(times)}

        rep.probe(("serve.content_key_s",), content_key)

        def direct() -> Dict[str, float]:
            """The first timed wave's misses through bare ``solve()``."""
            t0 = time.perf_counter()
            for field in fresh:
                result = solve(work.grid, field, work.config, trace=True)
            plain_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for field in fresh:
                solve(work.grid, field, work.config, validate=False)
            unchecked_s = time.perf_counter() - t0
            out = core_counts(result, useful)
            out["serve.overhead_vs_direct"] = work.wave_walls[0] / plain_s
            out["core.validate_overhead_frac"] = plain_s / unchecked_s - 1.0
            return out

        rep.probe(("serve.overhead_vs_direct", "core.validate_overhead_frac",
                   "core.block_ops", "core.updates", "core.cells_updated",
                   "core.empty_block_ops", "core.redundant_frac",
                   "core.sync_blocked_polls"), direct)
        common_probes(rep, spec, work.grid, work.hot[0], work.config)
        rep.skip_layer("threads", "jobs run on the 'shared' backend")
        rep.skip_layer("dist", "single-process jobs: nothing is exchanged")
        derived(rep, spec, mlups)
        plain.verify()
        work.verify()
    finally:
        plain.close()
        work.close()
    work.oracle.attempted += plain.oracle.attempted
    work.oracle.failed += plain.oracle.failed
    return work.oracle, (traces[-1] if traces else None), reduced


def traced_run(spec: Spec, seed: int, seconds: float, min_ops: int,
               max_ops: Optional[int], results_dir: Optional[str],
               smoke: bool = False) -> dict:
    bench = BenchSpans(spec.name)
    rep = Report(bench)

    def probe_stream_sized() -> Dict[str, float]:
        return probe_stream(stream_mib(smoke))

    rep.probe(("machine.stream_gbs",), probe_stream_sized)
    stream_before = rep.values["machine.stream_gbs"]
    loop = Loop(seconds * TRACED_SHARE, min_ops, max_ops)
    run = traced_serve if spec.served else traced_solver
    with bench.span("traced_run"):
        oracle, trace, reduced = run(rep, spec, seed, loop)
    rep.probe(("machine.stream_gbs",), probe_stream_sized)
    stream_after = rep.values["machine.stream_gbs"]
    if stream_before and stream_after:
        # The cross-check uses the better of the two, like the roofline.
        best = max(stream_before, stream_after)
        rep.set({"machine.stream_gbs": best,
                 "machine.stream_drift_frac":
                     abs(stream_after - stream_before) / best})
    rep.finish()
    if results_dir is not None:
        from repro import write_chrome_trace

        out_dir = Path(results_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        bench.write(out_dir / f"spans-{spec.name}.json")
        if trace is not None:
            write_chrome_trace(trace, out_dir / f"trace-{spec.name}.json")
    return {"attempted": oracle.attempted, "failed": oracle.failed,
            "metrics": rep.values, "notes": rep.notes,
            "shares": {k: reduced[k] for k in ("traced_wall_s", "accounted_frac")
                       if k in reduced}}
