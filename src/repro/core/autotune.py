"""Parameter autotuning over the pipelined blocking space (Sect. 1.5).

"We must stress that the parameter space for temporal blocking schemes,
and especially for pipelined blocking, is huge.  The optimal choices
reported here have been obtained experimentally" — this module automates
that experiment: a grid search over (block size, T, d_u, storage)
evaluated on the calibrated machine simulator, returning a ranked table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..machine.topology import MachineSpec
from .parameters import PipelineConfig, RelaxedSpec

__all__ = ["TuneResult", "autotune"]


@dataclass(frozen=True)
class TuneResult:
    """One evaluated configuration."""

    config: PipelineConfig
    mlups: float
    reloads: int

    def describe(self) -> str:
        """One-line summary for the ranked table."""
        return f"{self.mlups:8.1f} MLUP/s  reloads={self.reloads:<4d} {self.config.describe()}"


def autotune(
    machine: MachineSpec,
    shape: Sequence[int] = (300, 300, 300),
    teams: int = 1,
    bx_values: Sequence[int] = (60, 120, 240),
    bz_values: Sequence[int] = (10, 20, 40),
    T_values: Sequence[int] = (1, 2, 4),
    du_values: Sequence[int] = (1, 2, 4, 8),
    storages: Sequence[str] = ("compressed", "twogrid"),
    seed: int = 0,
    top: Optional[int] = None,
    prune_illegal: bool = True,
) -> List[TuneResult]:
    """Exhaustive sweep; returns results sorted best-first.

    The search space mirrors the knobs the paper tuned by hand: inner
    block length ``b_x`` ("decisive for good performance"), block
    thickness, updates per thread ``T`` ("usually 2"), the sync window
    ``d_u`` ("1–4 with the block sizes chosen") and the storage scheme.
    The kernel-execution engine is not an axis: the DES models the
    schedule and the memory hierarchy, which engines do not change
    (they are bit-identical traversal variants), so engine points
    would always tie.  Every result carries the default engine; set
    ``engine=`` on the chosen config (``"auto"`` picks by
    :data:`repro.engine.AUTO_ORDER`).

    With ``prune_illegal=True`` (the default) every candidate is first
    run through the static schedule analyzer
    (:func:`repro.analysis.analyze_schedule`) and configurations it cannot
    certify race- and deadlock-free are dropped *before* the DES run —
    no simulator time is spent ranking schedules the executor could
    never legally run.  The stock sweep axes are all legal, so this
    changes nothing for the defaults; it matters when callers widen the
    axes into the illegal corner of the space.
    """
    from ..sim.des_pipeline import simulate_pipelined  # late: avoid cycle

    if prune_illegal:
        from ..analysis import analyze_schedule  # late: avoid cycle

    results: List[TuneResult] = []
    for storage in storages:
        for bx in bx_values:
            for bz in bz_values:
                for T in T_values:
                    for du in du_values:
                        cfg = PipelineConfig(
                            teams=teams,
                            threads_per_team=machine.cores_per_socket,
                            updates_per_thread=T,
                            block_size=(bz, 20, bx),
                            sync=RelaxedSpec(1, du),
                            storage=storage,
                        )
                        if prune_illegal and not analyze_schedule(
                                cfg, tuple(int(s) for s in shape)).ok:
                            continue
                        rep = simulate_pipelined(machine, cfg, shape,
                                                 seed=seed)
                        results.append(TuneResult(cfg, rep.mlups,
                                                  rep.reloads))
    results.sort(key=lambda r: -r.mlups)
    return results[:top] if top else results
