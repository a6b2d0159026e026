"""Resolution of ``config="auto"`` jobs via the public autotuner.

The paper stresses that the pipelined-blocking parameter space "is
huge" and that its reported optima were found experimentally;
:func:`repro.autotune` automates that experiment on the calibrated
machine model.  This module puts it behind the service: a job submitted
with ``config="auto"`` gets the best *valid* configuration from a small
deterministic sweep — ranked by simulated MLUP/s, then filtered by the
static analyzer against the job's actual grid and placement (its
certificate covers the decomposition and the distributed storage
constraint), falling back to a conservative default when the whole
sweep is infeasible for a tiny grid.

Everything here is deterministic: the DES is seeded, the ranking sort
is stable, and resolutions are memoised per (machine, geometry), so the
same "auto" job always resolves to the same concrete
:class:`PipelineConfig` — which is what lets resolved jobs share
content keys and cache entries.

Since the measured perf database (:mod:`repro.perf.db`) arrived, the
chosen configuration also carries the measured-best **engine** for its
storage scheme and grid size (:func:`~repro.perf.db.resolve_auto_engine`
— the static default when nothing is measured), and the memo key folds
in the database *generation*: fresh calibration data invalidates the
memo instead of being shadowed by it.  Engines share a semantics class,
so this never changes result bits or content keys — only throughput.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.autotune import TuneResult, autotune
from ..core.parameters import PipelineConfig, RelaxedSpec
from ..grid.grid3d import Grid3D
from ..machine.topology import MachineSpec

__all__ = ["auto_config", "clear_auto_cache"]

#: The sweep the service runs per geometry — small on purpose (the DES
#: evaluates each point); the full knob space stays available through
#: :func:`repro.autotune` directly.
_BX_VALUES = (32, 64)
_BZ_VALUES = (4, 8)
_T_VALUES = (1, 2)
_DU_VALUES = (1, 4)

#: Conservative fallback when no sweep point fits the grid.
_FALLBACK = PipelineConfig(teams=1, threads_per_team=2,
                           updates_per_thread=1, block_size=(4, 64, 64),
                           sync=RelaxedSpec(1, 2), storage="twogrid")

_cache_lock = threading.Lock()
_resolved: Dict[Tuple, PipelineConfig] = {}


def clear_auto_cache() -> None:
    """Forget memoised resolutions (tests poking at determinism)."""
    with _cache_lock:
        _resolved.clear()


def _default_machine() -> MachineSpec:
    from ..machine.presets import nehalem_ep

    return nehalem_ep()


def _valid(cfg: PipelineConfig, grid: Grid3D,
           topology: Tuple[int, int, int]) -> bool:
    """Whether the analyzer certifies ``cfg`` for this job: race- and
    deadlock-free, on a decomposition the grid can take and a storage
    the rail can run.  The worker pool never gets anything else."""
    from ..analysis import analyze_schedule  # late: keeps serve import-light

    return analyze_schedule(cfg, grid.shape, topology).ok


def ranked_candidates(machine: MachineSpec,
                      shape: Sequence[int],
                      distributed: bool) -> List[TuneResult]:
    """The service's deterministic sweep, best-first.

    Thin wrapper over :func:`repro.autotune` with the serve-sized value
    sets; split out so the determinism test can pin the ranking itself.
    """
    return autotune(
        machine,
        shape=tuple(shape),
        teams=1,
        bx_values=_BX_VALUES,
        bz_values=_BZ_VALUES,
        T_values=_T_VALUES,
        du_values=_DU_VALUES,
        storages=("twogrid",) if distributed else ("twogrid", "compressed"),
        seed=0,
    )


def auto_config(grid: Grid3D,
                topology: Tuple[int, int, int] = (1, 1, 1),
                machine: Optional[MachineSpec] = None) -> PipelineConfig:
    """The configuration a ``config="auto"`` job resolves to.

    Best simulated throughput among the sweep points the analyzer
    certifies for this grid and topology; memoised, so
    repeated auto jobs on one geometry resolve (and therefore cache)
    identically.
    """
    from ..perf.db import perfdb_generation, resolve_auto_engine

    m = machine or _default_machine()
    # repr() covers every calibration field — two machines sharing a
    # display name but differing in bandwidths must not share tunings.
    # The perf-database generation is part of the key: recording new
    # measurements (a calibration run, a perf-run ingest) must change
    # future resolutions, not be shadowed by a stale memo entry.
    key = (repr(m), tuple(grid.shape), str(grid.dtype), tuple(topology),
           perfdb_generation())
    with _cache_lock:
        hit = _resolved.get(key)
    if hit is not None:
        return hit
    distributed = tuple(topology) != (1, 1, 1)
    for cand in ranked_candidates(m, grid.shape, distributed):
        if _valid(cand.config, grid, tuple(topology)):
            chosen = cand.config
            break
    else:
        chosen = _FALLBACK
        if not _valid(chosen, grid, tuple(topology)):
            raise ValueError(
                f"no valid pipeline configuration found for grid "
                f"{grid.shape} on topology {tuple(topology)}")
    # The geometry sweep picked block/T/d_u/storage; the engine axis is
    # orthogonal (bit-identical variants) and is resolved from *measured*
    # data for the chosen storage scheme — static default when the
    # database has nothing for this host.
    engine = resolve_auto_engine(chosen.storage, grid.shape)
    if engine != chosen.engine:
        from dataclasses import replace

        chosen = replace(chosen, engine=engine)
    with _cache_lock:
        _resolved[key] = chosen
    return chosen
