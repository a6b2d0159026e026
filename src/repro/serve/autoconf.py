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

The sweep cannot tell engines apart (they are bit-identical, and the
machine model has no engine term), so the chosen configuration keeps
the default engine.  A caller who wants the ``engine="auto"`` rule
passes it with ``config="auto"``; :meth:`Service.submit
<repro.serve.service.Service.submit>` applies it to the resolved
configuration, so an engine registered after the memo was filled is
still picked up.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.autotune import TuneResult, autotune
from ..core.parameters import PipelineConfig, RelaxedSpec
from ..grid.grid3d import Grid3D
from ..machine.topology import MachineSpec

__all__ = ["auto_config"]

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
    certifies for this grid and topology; memoised, so repeated auto
    jobs on one geometry resolve (and therefore cache) identically.
    """
    m = machine or _default_machine()
    # repr() covers every calibration field — two machines sharing a
    # display name but differing in bandwidths must not share tunings.
    key = (repr(m), tuple(grid.shape), str(grid.dtype), tuple(topology))
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
    with _cache_lock:
        _resolved[key] = chosen
    return chosen
