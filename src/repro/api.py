"""The unified solver front-end: one call, interchangeable backends.

Shared-memory pipelined temporal blocking and the distributed hybrid
scheme execute the *same* algorithm — the difference is where the data
lives and how ghost values travel.  :func:`solve` makes that an argument
instead of an import decision::

    res = repro.solve(grid, field, cfg)                           # shared
    res = repro.solve(grid, field, cfg, topology=(2, 2, 1),
                      backend="simmpi")                           # 4 ranks
    res = repro.solve(grid, field, cfg, topology=(1, 1, 2),
                      backend="procmpi")                          # 2 processes

All calls return a :class:`~repro.core.pipeline.SolveResult`; on a
``(1, 1, 1)`` topology the backends produce bit-identical fields
(the degenerate distributed run has an empty exchange plan and drives
the identical executor schedule), and on any topology ``simmpi`` and
``procmpi`` are bit-identical to each other (same per-rank body, same
exchange plan — only the transport differs).

Backends
--------
``"shared"``
    One process, ``n`` teams of ``t`` threads (simulated stages) —
    :func:`repro.core.pipeline.run_pipelined`.
``"threads"``
    The same executor, ``run_pipelined(..., threads=True)``: one **real
    OS thread per pipeline stage**, sleeping on condition-variable sync
    counters.  Bit-identical to ``"shared"``; the executor certifies
    the schedule with :func:`repro.analysis.assert_legal`
    unconditionally before any thread starts.
``"simmpi"``
    One thread-backed simulated-MPI rank per subdomain —
    :func:`repro.dist.solver.distributed_jacobi_pipelined`.
``"procmpi"``
    One OS process per subdomain (:mod:`repro.dist.procmpi`), fields
    and halo rings in :mod:`multiprocessing.shared_memory` blocks —
    real rank overlap without an MPI installation.  The ranks are
    launched by the first solve and kept warm for the next ones until
    :func:`repro.dist.drop_warm_pool` or exit.  A real MPI
    deployment implements the same :class:`repro.dist.comm.Comm`
    protocol (see :class:`repro.dist.comm.MPI4PyComm`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .core.parameters import PipelineConfig
from .core.pipeline import SolveResult, run_pipelined
from .grid.grid3d import Grid3D
from .kernels.stencils import StarStencil
from .obs.metrics import trace_metrics
from .obs.tracer import NULL_TRACER, Tracer

__all__ = ["BACKENDS", "solve"]

#: Execution backends understood by :func:`solve`.
BACKENDS = ("shared", "threads", "simmpi", "procmpi")


def _check_topology(topology: Optional[Sequence[int]]) -> Tuple[int, int, int]:
    if topology is None:
        return (1, 1, 1)
    if len(topology) != 3:
        raise ValueError(
            f"topology must be a (Pz, Py, Px) triple, got {topology!r}")
    topo = tuple(int(p) for p in topology)
    if any(p < 1 for p in topo):
        raise ValueError(f"topology extents must be >= 1, got {topo}")
    return topo  # type: ignore[return-value]


def solve(
    grid: Grid3D,
    field: np.ndarray,
    config: PipelineConfig,
    topology: Optional[Sequence[int]] = None,
    backend: str = "shared",
    stencil: Optional[StarStencil] = None,
    engine: Optional[str] = None,
    validate: bool = True,
    trace: bool = False,
) -> SolveResult:
    """Advance ``field`` by ``config.total_updates`` levels on ``backend``.

    Parameters
    ----------
    grid, field, config:
        The problem and the pipelined temporal-blocking parameters, same
        as :func:`~repro.core.pipeline.run_pipelined`.
    topology:
        Process grid ``(Pz, Py, Px)``; defaults to ``(1, 1, 1)``.  The
        shared backend is single-process and rejects anything else.
    backend:
        ``"shared"``, ``"threads"``, ``"simmpi"`` or ``"procmpi"``
        (see module docstring).
    stencil:
        Optional radius-1 star stencil (defaults to the 7-point Jacobi).
    engine:
        Optional kernel-execution engine name (:mod:`repro.engine`);
        overrides ``config.engine``.  Engines are bit-identical, so
        this changes throughput, never the result — every backend
        dispatches the same engine registry per rank.  ``"auto"``
        is the first registered engine of
        :data:`repro.engine.AUTO_ORDER` (``numpy`` when no compiled
        engine is installed).
    validate:
        ``True`` (default) certifies the schedule before touching the
        field: :func:`repro.analysis.assert_legal`, the happens-before
        checker, raises :class:`~repro.analysis.StaticAnalysisError`
        with a witness on an illegal schedule and is memoised per
        geometry per process.  The run itself checks nothing.
        ``False`` skips the certificate; the ``threads`` backend is
        certified by its executor whatever this says.
    trace:
        ``True`` records an observability trace (:mod:`repro.obs`):
        spans for every pass/block/engine-apply and halo-exchange
        phase, merged across ranks onto one timeline, returned as
        ``result.trace`` with the flat summary in ``result.metrics``.
        Tracing never changes the numbers — the result is bit-identical
        with tracing on or off — and when left off the instrumentation
        reduces to a guard-variable check.

    Returns
    -------
    SolveResult
        With the same field layout regardless of backend; communication
        counters are zero for the shared backend.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    if validate not in (True, False):
        raise ValueError(f"validate must be True or False, got {validate!r}")
    topo = _check_topology(topology)
    if backend in ("shared", "threads") and topo != (1, 1, 1):
        raise ValueError(
            f"the {backend} backend is single-process; topology {topo} "
            "needs backend='simmpi' or 'procmpi'")
    if engine is not None and engine != config.engine:
        config = replace(config, engine=engine)
    if validate:
        # Prove the schedule race/deadlock-free before touching the field.
        from .analysis import assert_legal

        assert_legal(config, grid.shape, topo)
    tracer = Tracer(pid=0, label="driver") if trace else NULL_TRACER
    with tracer.span("solve", cat="solve", backend=backend,
                     topo=f"{topo[0]}x{topo[1]}x{topo[2]}"):
        if backend in ("shared", "threads"):
            result = run_pipelined(grid, field, config, stencil=stencil,
                                   tracer=tracer, threads=backend == "threads")
        else:
            # Imported lazily, mirroring the top-level re-exports: the
            # shared backend must work even where the distributed rail
            # is unavailable.
            from .dist.solver import distributed_jacobi_pipelined

            result = distributed_jacobi_pipelined(
                grid, field, topo, config, stencil=stencil,
                transport=backend, tracer=tracer)
    if trace:
        result.trace = tracer.finish()
        result.metrics = trace_metrics(result.trace)
    return result

