#!/usr/bin/env python
"""Hybrid distributed run + Fig. 6-style scaling projection.

Part 1 executes the paper's *hybrid* code for real (functionally): four
SimMPI ranks, each running the pipelined temporal-blocking executor over
its trapezoid, exchanging ``h = n*t*T`` halo layers with the 3-phase
ghost-cell-expansion protocol — and checks the result against a
single-domain reference.

Part 2 asks the cluster model for the strong/weak scaling curves of the
standard and pipelined variants on the paper's QDR-IB cluster.

Run:  python examples/cluster_scaling.py
"""

import numpy as np

from repro import Grid3D, PipelineConfig, RelaxedSpec
from repro.dist import ClusterModel, distributed_jacobi_pipelined, fig6_variants
from repro.grid import random_field
from repro.kernels import reference_sweeps
from repro.machine import nehalem_ep
from repro.text import format_series


def main() -> None:
    # --- part 1: real hybrid execution ---------------------------------------
    grid = Grid3D((24, 16, 16))
    field = random_field(grid.shape, np.random.default_rng(3))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 2),
                         passes=2)
    h = cfg.updates_per_pass
    print(f"hybrid run: 2x2x1 ranks, h = {h} halo layers, "
          f"{cfg.passes} supersteps")
    res = distributed_jacobi_pipelined(grid, field, (2, 2, 1), cfg)
    ref = reference_sweeps(grid, field, cfg.total_updates)
    assert np.allclose(res.field, ref, atol=1e-13)
    print(f"distributed == single-domain reference  ✓ "
          f"({res.bytes_exchanged / 1024:.0f} KiB exchanged in "
          f"{res.messages} messages)")

    # --- part 2: scaling projection -------------------------------------------
    cm = ClusterModel(nehalem_ep())
    print("\nFig. 6 projection (GLUP/s):")
    for v in fig6_variants():
        for scaling in ("strong", "weak"):
            pts = [(p.nodes, p.glups) for p in cm.series(v, scaling=scaling)]
            print(format_series(f"{v.name} [{scaling}]", pts,
                                "nodes", "GLUP/s", floatfmt=".1f"))


if __name__ == "__main__":
    main()
