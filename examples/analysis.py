#!/usr/bin/env python
"""Static schedule analysis: prove legality before running anything.

The relaxed-synchronisation window of Eq. 3 admits a whole family of
schedules — and most of the neighbouring parameter space is *illegal*:
windows that race, windows that deadlock on drain, halos too shallow
for the distributed trapezoids.  The :mod:`repro.analysis` checker
walks that boundary symbolically, with no stencil execution at all, and
returns either a certification or a concrete witness.

This walkthrough certifies the paper's default window, rejects three
adversarial neighbours (showing each witness), pre-prunes an autotune
sweep, and runs a certified schedule with ``validate=True`` (the
default, spelled out) — the proof is the run's only legality check.

Run:  python examples/analysis.py
"""

import numpy as np

from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
from repro.analysis import ScheduleSpec, analyze_schedule
from repro.grid import random_field
from repro.kernels import reference_sweeps

SHAPE = (32, 32, 32)
BLOCK = (8, 64, 64)


def show(title: str, spec, topology=(1, 1, 1), halo=None) -> None:
    report = analyze_schedule(spec, SHAPE, topology, halo=halo)
    verdict = "CERTIFIED" if report.ok else "REJECTED"
    print(f"\n--- {title}: {verdict}")
    for f in report.findings:
        print("   ", f.describe().replace("\n", "\n    "))


def main() -> None:
    # --- the paper's schedule, proven race- and deadlock-free ---------------
    show("paper default (4 stages, d_l=1, d_u=4)",
         ScheduleSpec(teams=1, threads_per_team=4, updates_per_thread=1,
                      block_size=BLOCK, sync_kind="relaxed", d_l=1, d_u=4))

    # --- three illegal neighbours, each with a concrete witness -------------
    show("window floor removed (d_l=0): RAW race",
         ScheduleSpec(threads_per_team=4, block_size=BLOCK,
                      sync_kind="relaxed", d_l=0, d_u=4))
    show("empty window (d_l=3, d_u=1): drain deadlock",
         ScheduleSpec(threads_per_team=4, block_size=BLOCK,
                      sync_kind="relaxed", d_l=3, d_u=1))
    show("two ranks exchanging 1 ghost layer for a 4-update pass: "
         "the trapezoid base is starved",
         ScheduleSpec(threads_per_team=4, block_size=BLOCK,
                      sync_kind="relaxed", d_l=1, d_u=4),
         topology=(1, 1, 2), halo=1)

    # --- the analyzer as an autotune pre-prune ------------------------------
    from repro.core.autotune import autotune
    from repro.machine import nehalem_ep

    results = autotune(nehalem_ep(), shape=(120, 120, 120),
                       bx_values=(60, 120), bz_values=(10,),
                       T_values=(1, 2), du_values=(1, 4), top=3)
    print("\nautotune over analyzer-certified configs only:")
    for r in results:
        print("   ", r.describe())

    # --- solve under the proof: validate=True -------------------------------
    grid = Grid3D(SHAPE)
    field = random_field(SHAPE, np.random.default_rng(7))
    cfg = PipelineConfig(teams=2, threads_per_team=2, updates_per_thread=2,
                         block_size=BLOCK, sync=RelaxedSpec(1, 4))
    res = solve(grid, field, cfg, validate=True)
    ref = reference_sweeps(grid, field, cfg.total_updates)
    ok = np.array_equal(res.field, ref)
    print(f"\ncertified solve bit-identical to reference: {ok}")
    assert ok


if __name__ == "__main__":
    main()
