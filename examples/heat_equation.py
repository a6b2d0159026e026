#!/usr/bin/env python
"""Solve a steady-state heat problem with temporally blocked Jacobi.

A box with one hot face (T=100) and cold walls (T=0): the Jacobi
iteration converges to the harmonic temperature field.  We advance the
solve in chunks of ``n*t*T`` sweeps using the pipelined executor —
demonstrating that the blocking machinery slots into a real
boundary-value workflow, convergence monitoring included.

Run:  python examples/heat_equation.py
"""

import numpy as np

from repro import DirichletBoundary, Grid3D, PipelineConfig, RelaxedSpec
from repro.core import PipelineExecutor
from repro.kernels import change_norm, jacobi7, jacobi_residual


def main() -> None:
    hot, cold = 100.0, 0.0
    bc = DirichletBoundary(cold, faces={(0, -1): hot})  # hot bottom face
    grid = Grid3D((24, 24, 24), boundary=bc)
    field = grid.make_field(cold)

    cfg = PipelineConfig(teams=1, threads_per_team=4, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 3),
                         passes=1)
    sweeps_per_chunk = cfg.updates_per_pass
    print(f"advancing {sweeps_per_chunk} sweeps per pipelined chunk")

    tol = 1e-3
    prev = field.copy()
    for chunk in range(1, 201):
        ex = PipelineExecutor(grid, prev, cfg, jacobi7())
        cur = ex.run()
        delta = change_norm(cur, prev)
        if chunk % 10 == 0 or delta < tol:
            print(f"chunk {chunk:3d} ({chunk * sweeps_per_chunk:5d} sweeps): "
                  f"max change {delta:.5f}")
        prev = cur
        if delta < tol:
            break

    res = jacobi_residual(grid, prev)
    mid = prev[:, 12, 12]
    print(f"\nfinal residual: {res:.5f}")
    print("temperature along the hot->cold axis (centre column):")
    print("  " + "  ".join(f"{v:6.1f}" for v in mid[::3]))
    assert mid[0] > mid[-1], "heat must decay away from the hot face"
    assert hot > mid[0] > cold
    print("monotone decay from the hot face  ✓")


if __name__ == "__main__":
    main()
