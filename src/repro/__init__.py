"""repro — reproduction of Wittmann, Hager & Wellein (2010),
"Multicore-aware parallel temporal blocking of stencil codes for shared
and distributed memory" (arXiv:0912.4506).

The package has two rails:

* a **functional rail** that executes the paper's pipelined
  temporal-blocking schemes on real NumPy arrays with machine-checked
  legality (``repro.core``, ``repro.dist``), and
* a **performance rail** that runs the identical schedules through a
  calibrated discrete-event machine model (``repro.machine``,
  ``repro.sim``, ``repro.models``) to regenerate the paper's figures.

Measurements of both rails are driven by the ``repro.perf`` harness
(``python -m repro.perf run|list|compare|report``): a declarative
scenario registry with ``quick``/``paper``/``stress`` suites, a
versioned JSON results store (``BENCH_<suite>.json``) and a regression
gate that fails CI on a >10 % slowdown of any deterministic metric.
See EXPERIMENTS.md for the figure-to-scenario map.

The front door to the functional rail is :func:`repro.solve`, which runs
the same configuration on either backend::

    import numpy as np
    from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
    from repro.kernels import reference_sweeps

    grid = Grid3D((32, 32, 32))
    field = np.random.default_rng(0).random(grid.shape)
    cfg = PipelineConfig(teams=2, threads_per_team=2, updates_per_thread=2,
                         block_size=(8, 64, 64), sync=RelaxedSpec(1, 4))
    shared = solve(grid, field, cfg)                       # one process
    dist = solve(grid, field, cfg, topology=(2, 1, 1),
                 backend="simmpi")                         # two ranks
    ref = reference_sweeps(grid, field, cfg.total_updates)
    assert np.allclose(shared.field, ref)
    assert np.allclose(dist.field, ref)
"""

from .engine import (
    Engine,
    available_engines,
    get_engine,
    register_engine,
)
from .grid import Box, BlockDecomposition, DirichletBoundary, Grid3D, random_field
from .kernels import (
    StarStencil,
    jacobi7,
    jacobi5_2d,
    reference_sweeps,
)
from .core import (
    BarrierSpec,
    PipelineConfig,
    PipelineExecutor,
    RelaxedSpec,
    ScheduleDeadlock,
    SolveResult,
    StorageError,
    run_pipelined,
)
from .api import BACKENDS, map_jobs, solve, submit

#: ``repro.map`` — the ergonomic name for :func:`map_jobs` (shadows the
#: builtin only inside this namespace; the wrapper itself imports the
#: serving layer lazily, at call time).
map = map_jobs

__version__ = "1.15.0"

#: Symbols re-exported from the distributed rail, resolved lazily (PEP
#: 562): ``import repro`` and a single-process solve never load
#: ``repro.dist``, so they keep working where it (or a future hard MPI
#: dependency of it) is broken or absent.
_DIST_EXPORTS = frozenset({
    "CartesianDecomposition",
    "ClusterModel",
    "Comm",
    "ProcComm",
    "ProcMPIError",
    "ProcSolverSession",
    "ProcWorld",
    "RankComm",
    "SimMPIError",
    "balanced_grid",
    "distributed_jacobi_pipelined",
    "distributed_jacobi_sweeps",
    "exchange_plan",
    "fig6_variants",
    "run_procs",
    "run_ranks",
})

#: Symbols re-exported from the serving layer and the autotuner, lazy
#: too: the autotuner ranks on the machine model and the DES, which no
#: solve loads (``tests/test_api.py::TestImportFootprint``).
#: ``submit``/``map`` are *not* here — they come eagerly from
#: :mod:`repro.api`, whose wrappers import the service at call time.
_SERVE_EXPORTS = frozenset({
    "Service",
    "ServiceStats",
    "SolveJob",
    "SolveFuture",
    "ResultCache",
})
_AUTOTUNE_EXPORTS = frozenset({"TuneResult", "autotune"})

#: Symbols re-exported from the static analyzer (lazy: only a certified
#: solve — ``validate=True``, the default — and the threads executor
#: import it, at call time).
_ANALYSIS_EXPORTS = frozenset({
    "ScheduleSpec",
    "StaticAnalysisError",
    "analyze_schedule",
    "assert_legal",
})

#: Symbols re-exported from the observability layer (lazy for symmetry:
#: the rails import its tracer themselves, so it is loaded anyway).
_OBS_EXPORTS = frozenset({
    "Trace",
    "Tracer",
    "load_chrome_trace",
    "span_coverage",
    "trace_metrics",
    "write_chrome_trace",
})


def __getattr__(name: str):
    if name in _ANALYSIS_EXPORTS:
        from . import analysis

        return getattr(analysis, name)
    if name in _OBS_EXPORTS:
        from . import obs

        return getattr(obs, name)
    if name in _DIST_EXPORTS:
        from . import dist

        return getattr(dist, name)
    if name in _SERVE_EXPORTS:
        from . import serve

        return getattr(serve, name)
    if name in _AUTOTUNE_EXPORTS:
        # The submodule itself: ``repro.core.autotune`` may be bound to
        # it or to the function of the same name.
        import importlib

        return getattr(importlib.import_module(".core.autotune", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Engine",
    "available_engines",
    "get_engine",
    "register_engine",
    "Box",
    "BlockDecomposition",
    "DirichletBoundary",
    "Grid3D",
    "random_field",
    "StarStencil",
    "jacobi7",
    "jacobi5_2d",
    "reference_sweeps",
    "BarrierSpec",
    "RelaxedSpec",
    "PipelineConfig",
    "PipelineExecutor",
    "ScheduleDeadlock",
    "SolveResult",
    "StorageError",
    "run_pipelined",
    "CartesianDecomposition",
    "ClusterModel",
    "Comm",
    "ProcComm",
    "ProcMPIError",
    "ProcSolverSession",
    "ProcWorld",
    "RankComm",
    "SimMPIError",
    "balanced_grid",
    "distributed_jacobi_pipelined",
    "distributed_jacobi_sweeps",
    "exchange_plan",
    "fig6_variants",
    "run_procs",
    "run_ranks",
    "BACKENDS",
    "solve",
    "Service",
    "ServiceStats",
    "SolveJob",
    "SolveFuture",
    "ResultCache",
    "submit",
    # "map" stays a module attribute but out of __all__: star-imports
    # must not shadow the builtin in the user's namespace.
    "map_jobs",
    "TuneResult",
    "autotune",
    "ScheduleSpec",
    "StaticAnalysisError",
    "analyze_schedule",
    "assert_legal",
    "Trace",
    "Tracer",
    "trace_metrics",
    "span_coverage",
    "write_chrome_trace",
    "load_chrome_trace",
    "__version__",
]
