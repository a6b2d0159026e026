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
"""

from .parameters import BarrierSpec, PipelineConfig, RelaxedSpec, SyncSpec
from .sync import BarrierPolicy, RelaxedPolicy, SyncPolicy, make_policy
from .storage import CompressedStorage, StorageError, TwoGridStorage, make_storage
from .schedule import ScheduleError, check_skew, make_decomposition
from .executor import ExecutionStats, ORDERS, PipelineExecutor, ScheduleDeadlock
from .pipeline import SolveResult, run_pipelined
from .autotune import TuneResult, autotune
from .wavefront import compare_wavefront, wavefront_balance, wavefront_config

__all__ = [
    "BarrierSpec",
    "RelaxedSpec",
    "SyncSpec",
    "PipelineConfig",
    "BarrierPolicy",
    "RelaxedPolicy",
    "SyncPolicy",
    "make_policy",
    "TwoGridStorage",
    "CompressedStorage",
    "StorageError",
    "make_storage",
    "ScheduleError",
    "check_skew",
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
