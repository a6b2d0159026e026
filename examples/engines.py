#!/usr/bin/env python
"""Execution engines: same schedule, interchangeable inner kernels.

The paper's point (Sect. 1.1/1.4) is that the temporal-blocking
*schedule* is independent of how the innermost stencil update is
executed — the vectorised cache-slab walk and compiled loops only move
throughput closer to the hardware limit.  This walkthrough registers a
deliberately plain engine of its own (``StarStencil.apply`` on gathered
copies) next to the built-ins, runs one pipelined configuration through
every engine registered in this process, proves the results are
bit-identical, shows the engine riding the configuration through a
distributed backend, and finishes with the serving layer treating an
engine change as a pure cache hit.

Run:  python examples/engines.py
"""

import time

import numpy as np

from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
from repro.engine import (Engine, available_engines, get_engine,
                          register_engine)
from repro.grid import random_field
from repro.serve import Service


class StraightEngine(Engine):
    """The textbook update: gather copies, evaluate, write the region."""

    name = "straight"
    semantics = "vector-v2"  # same per-cell operation sequence as numpy

    def apply(self, stencil, storage, region, level):
        if region.is_empty:
            return
        gathered = [storage.gather(region, off, level - 1)
                    for off in stencil.offsets]
        storage.write(region, level, stencil.apply(
            storage.read(region, level - 1), gathered))


def main() -> None:
    register_engine(StraightEngine())
    engines = available_engines()
    print("registered engines:")
    for name in engines:
        print(f"  {name:8s} {get_engine(name).describe()}")

    # --- one schedule, every engine, identical bits ----------------------------
    grid = Grid3D((32, 32, 32))
    field = random_field(grid.shape, np.random.default_rng(5))
    cfg = PipelineConfig(teams=1, threads_per_team=4, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 4),
                         storage="compressed", passes=2)
    print(f"\nsolving {cfg.describe()} with every engine:")
    reference = None
    for name in engines:
        t0 = time.perf_counter()
        res = solve(grid, field, cfg, engine=name)
        dt = time.perf_counter() - t0
        if reference is None:
            reference = res.field
            verdict = "(reference)"
        else:
            assert np.array_equal(res.field, reference)
            verdict = "bit-identical ✓"
        print(f"  {name:8s} {res.stats.cells_updated / dt / 1e6:8.1f} "
              f"Mcell/s  {verdict}")

    # --- the engine rides the config through the distributed rail --------------
    dist_cfg = PipelineConfig(teams=1, threads_per_team=2,
                              updates_per_thread=2, block_size=(4, 64, 64),
                              sync=RelaxedSpec(1, 2), engine="straight")
    dist = solve(grid, field, dist_cfg, topology=(1, 1, 2), backend="simmpi")
    shared = solve(grid, field, dist_cfg)
    assert np.array_equal(dist.field, shared.field)
    print("\nsimmpi ranks inherited the 'straight' engine: "
          "bit-identical to shared ✓")

    # --- engines of one semantics class share cache entries --------------------
    with Service(workers=0) as svc:
        cold = svc.submit(grid, field, dist_cfg)
        svc.drain()
        warm = svc.submit(grid, field, dist_cfg, engine="numpy")
        stats = svc.stats
        assert np.array_equal(cold.result(timeout=0).field,
                              warm.result(timeout=0).field)
    assert warm.cache_hit and stats.backend_solves == 1
    print("engine change in repro.serve: pure cache hit, zero extra "
          "backend solves ✓")


if __name__ == "__main__":
    main()
