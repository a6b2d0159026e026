#!/usr/bin/env python
"""Reproduce the paper's empirical parameter tuning (Sect. 1.5).

"The optimal choices reported here have been obtained experimentally":
this example sweeps block size, T and d_u on the calibrated Nehalem
model and prints the ranked outcome — the paper's findings (b_x ≈ 120,
T = 2, d_u in 1..4, compressed grid) should rank near the top.

Run:  python examples/autotuning.py
"""

from repro.core import autotune, compare_wavefront
from repro.machine import nehalem_ep


def main() -> None:
    machine = nehalem_ep()
    print(f"autotuning on: {machine.describe()}\n")
    results = autotune(
        machine,
        shape=(300, 300, 300),
        bx_values=(60, 120, 240),
        bz_values=(10, 20),
        T_values=(1, 2, 4),
        du_values=(1, 2, 4),
        storages=("compressed",),
    )
    print("top 10 configurations:")
    for r in results[:10]:
        print("  " + r.describe())
    print("\nworst 3 (for contrast):")
    for r in results[-3:]:
        print("  " + r.describe())

    best = results[0]
    print(f"\nbest: T={best.config.updates_per_thread}, "
          f"b={best.config.block_size}, {best.config.sync.describe()}")

    wf, pipe = compare_wavefront(machine)
    print(f"\nwavefront baseline (ref. [2] style): {wf:8.1f} MLUP/s")
    print(f"pipelined blocking                 : {pipe:8.1f} MLUP/s "
          f"(+{(pipe / wf - 1) * 100:.0f}% — no boundary copies, T=2, "
          "compressed grid)")


if __name__ == "__main__":
    main()
