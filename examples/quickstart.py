#!/usr/bin/env python
"""Quickstart: pipelined temporal blocking in five minutes.

Runs the paper's scheme on a small 3-D Jacobi problem, verifies it is
bit-identical to plain sweeps, then asks the calibrated machine model
what the same configuration buys on the paper's Nehalem EP node.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Grid3D, PipelineConfig, RelaxedSpec, run_pipelined
from repro.grid import random_field
from repro.kernels import reference_sweeps
from repro.machine import nehalem_ep
from repro.sim import simulate_pipelined, standard_jacobi_mlups


def main() -> None:
    # --- functional rail: the algorithm itself --------------------------------
    grid = Grid3D((48, 32, 32))
    field = random_field(grid.shape, np.random.default_rng(7))

    cfg = PipelineConfig(
        teams=2,                 # one team per shared cache (socket)
        threads_per_team=4,      # the paper's quad-core cache group
        updates_per_thread=2,    # T = 2, the paper's sweet spot
        block_size=(6, 16, 64),  # blocks tile z and y, as the paper's do
        sync=RelaxedSpec(d_l=1, d_u=4),   # Eq. 3 window
        storage="compressed",    # single grid, alternating shift
    )
    print(f"running {cfg.describe()}")
    result = run_pipelined(grid, field, cfg)
    ref = reference_sweeps(grid, field, cfg.total_updates)
    assert np.allclose(result.field, ref, atol=1e-13)
    print(f"pipelined result == {cfg.total_updates} plain Jacobi sweeps  ✓")
    print(f"block operations: {result.stats.block_ops}, "
          f"cell updates: {result.stats.cells_updated:,}")

    # --- performance rail: what this buys on the paper's machine ---------------
    machine = nehalem_ep()
    print(f"\nmachine model: {machine.describe()}")
    std = standard_jacobi_mlups(machine, threads=8).mlups
    sim_cfg = PipelineConfig(teams=2, threads_per_team=4, updates_per_thread=2,
                             block_size=(20, 20, 120),
                             sync=RelaxedSpec(1, 4), storage="compressed")
    pipe = simulate_pipelined(machine, sim_cfg, (300, 300, 300)).mlups
    print(f"standard Jacobi (node) : {std:8.0f} MLUP/s")
    print(f"pipelined blocking     : {pipe:8.0f} MLUP/s "
          f"(speedup {pipe / std:.2f}x — paper: 50-60 %)")


if __name__ == "__main__":
    main()
