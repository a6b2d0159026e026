#!/usr/bin/env python
"""The serving layer: submit many solves, pay the setup once.

Stands up a :class:`repro.Service`, pushes a stream of jobs through the
warm procmpi worker pool, and shows the serving-layer effects: setup
amortisation (one pair of rank processes serves every job), a
bit-identical content-addressed cache hit, in memory and from the disk
tier of a second service, and ``config="auto"`` resolving through
``repro.autotune``.  A monitored service then reports its health, its
OpenMetrics exposition and the flight recorder's slowest jobs.

Run:  python examples/serving.py
"""

import tempfile

import numpy as np

from repro import (Grid3D, PipelineConfig, RelaxedSpec, ResultCache, Service,
                   SolveJob)
from repro.grid import random_field
from repro.kernels import reference_sweeps


def main() -> None:
    grid = Grid3D((16, 16, 16))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 2))
    fields = [random_field(grid.shape, np.random.default_rng(i))
              for i in range(8)]

    with Service(workers=2) as svc:
        # --- a batch of distinct procmpi jobs through the warm pool -----------
        futures = [svc.submit(grid, f, cfg, topology=(1, 1, 2),
                              backend="procmpi") for f in fields]
        for f, fut in zip(fields, futures):
            ref = reference_sweeps(grid, f, cfg.total_updates)
            assert np.allclose(fut.result().field, ref, atol=1e-13)
        spawned = svc.stats.process_spawns
        print(f"{len(fields)} procmpi jobs, {spawned} rank processes "
              f"spawned (a world per job would spawn {2 * len(fields)})  ✓")

        # --- content-addressed cache: same job again, no backend runs ---------
        warm = svc.submit(grid, fields[0], cfg, topology=(1, 1, 2),
                          backend="procmpi")
        res = warm.result()
        assert warm.cache_hit
        assert np.array_equal(res.field, futures[0].result().field)
        print("cache hit: bit-identical result, zero backend work  ✓")

        # --- config='auto': the autotuner picks the pipeline ------------------
        auto = svc.submit(grid, fields[1], "auto")
        tuned = auto.result()
        print(f"autotuned config: {tuned.config.describe()}")

        # --- map: many jobs, results in submission order ----------------------
        jobs = [SolveJob(grid=grid, field=f, config=cfg) for f in fields[:4]]
        results = svc.map(jobs)
        assert all(np.allclose(r.field,
                               reference_sweeps(grid, j.field,
                                                cfg.total_updates),
                               atol=1e-13)
                   for j, r in zip(jobs, results))
        print(f"map: {len(results)} results in order  ✓")

        st = svc.stats
        print(f"stats: submitted={st.submitted} backend_solves="
              f"{st.backend_solves} cache_hits={st.cache_hits} "
              f"coalesced={st.coalesced} sessions_created="
              f"{st.sessions_created} sessions_reused={st.sessions_reused}")

    # --- the disk tier: a second service hits what the first one stored -------
    with tempfile.TemporaryDirectory() as disk:
        with Service(workers=1, cache=ResultCache(disk_dir=disk)) as svc:
            cold = svc.submit(grid, fields[2], cfg).result()
        with Service(workers=1, cache=ResultCache(disk_dir=disk)) as svc:
            hit = svc.submit(grid, fields[2], cfg)
            assert hit.cache_hit and svc.stats.backend_solves == 0
            assert hit.result().field.tobytes() == cold.field.tobytes()
    print("disk tier: a second service's hit is bit-identical  ✓")

    # --- monitoring: health, OpenMetrics, the slowest recorded jobs -----------
    with Service(workers=2, monitor=True, record_traces=8) as svc:
        for fut in [svc.submit(grid, f, cfg) for f in fields[:4]]:
            fut.result()
        health = svc.health()
        exposition = svc.monitor.openmetrics()
        worst = svc.monitor.recorder.slowest(3)
    assert health["status"] == "ok" and len(worst) == 3
    print(f"health: {health['status']}, {health['counters']['completed']} "
          f"jobs completed, {len(exposition.splitlines())} OpenMetrics lines")
    print(f"slowest recorded job: {worst[0].wall_s * 1e3:.1f} ms on "
          f"{worst[0].worker}, its trace {len(worst[0].trace.spans)} spans")


if __name__ == "__main__":
    main()
