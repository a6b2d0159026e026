"""Core contribution: pipelined temporal blocking with relaxed sync.

Public surface:

* :class:`~repro.core.parameters.PipelineConfig` with
  :class:`~repro.core.parameters.BarrierSpec` /
  :class:`~repro.core.parameters.RelaxedSpec` — the parameter space of
  Sect. 1.3/1.5;
* :func:`~repro.core.pipeline.run_pipelined` — execute the scheme on real
  arrays (functional rail);
* :class:`~repro.core.executor.PipelineExecutor` — the underlying engine,
  for callers that need custom active regions (distributed trapezoids) or
  interleaving control;
* storage schemes (two-grid / compressed) in :mod:`~repro.core.storage`.

The autotuner and the wavefront comparison rank configurations on the
machine model, so their names resolve on first use (PEP 562): running
a schedule never loads :mod:`repro.machine` or :mod:`repro.sim`.
"""

import importlib

from .parameters import BarrierSpec, PipelineConfig, RelaxedSpec, SyncSpec
from .sync import (BarrierPolicy, RelaxedPolicy, SyncPolicy, effective_windows,
                   make_policy)
from .storage import CompressedStorage, StorageError, TwoGridStorage, make_storage
from ..grid.blocks import make_decomposition
from .executor import ExecutionStats, ORDERS, PipelineExecutor, ScheduleDeadlock
from .pipeline import SolveResult, run_pipelined

#: The performance-rail names, by the submodule defining them.
_LAZY = {"TuneResult": "autotune", "autotune": "autotune",
         "wavefront_config": "wavefront", "wavefront_balance": "wavefront",
         "compare_wavefront": "wavefront"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bound as the eager import bound it: the function, not the
    # submodule of the same name the import just set.
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


__all__ = [
    "BarrierSpec",
    "RelaxedSpec",
    "SyncSpec",
    "PipelineConfig",
    "BarrierPolicy",
    "RelaxedPolicy",
    "SyncPolicy",
    "effective_windows",
    "make_policy",
    "TwoGridStorage",
    "CompressedStorage",
    "StorageError",
    "make_storage",
    "make_decomposition",
    "PipelineExecutor",
    "ExecutionStats",
    "ScheduleDeadlock",
    "ORDERS",
    "SolveResult",
    "run_pipelined",
    "TuneResult",
    "autotune",
    "wavefront_config",
    "wavefront_balance",
    "compare_wavefront",
]
