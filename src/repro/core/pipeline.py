"""High-level front-end for pipelined temporal blocking.

``run_pipelined`` is the shared-memory entry point: give it a grid, an
initial field and a :class:`~repro.core.parameters.PipelineConfig`, get
back the field advanced by ``passes * n*t*T`` time levels — guaranteed
identical to that many plain Jacobi sweeps (the equivalence the whole
paper rests on, and which our test-suite asserts for every
scheme/sync/storage combination).

Every solver front-end — this one and the distributed ones in
:mod:`repro.dist.solver` — returns the same :class:`SolveResult`, so
callers can switch between the shared-memory and distributed-memory
rails (or go through the dispatching :func:`repro.solve`) without
touching their result handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..grid.grid3d import Grid3D
from ..kernels.jacobi import jacobi7
from ..kernels.stencils import StarStencil
from ..obs.tracer import Trace, Tracer
from .executor import ExecutionStats, PipelineExecutor
from .parameters import PipelineConfig

__all__ = ["SolveResult", "run_pipelined"]


@dataclass
class SolveResult:
    """Outcome of a solve, uniform across execution backends.

    The shared-memory backend fills the communication fields with their
    single-process values (one rank, nothing exchanged); the distributed
    backends report the aggregate traffic of all ranks.
    """

    #: Final interior field (global domain, all backends).
    field: np.ndarray
    #: Time levels the field was advanced by.
    levels_advanced: int
    #: Aggregate executor counters, summed over every rank.
    stats: ExecutionStats
    #: The pipeline configuration every rank ran.
    config: PipelineConfig
    #: Which backend produced this result (one of ``repro.BACKENDS``).
    backend: str = "shared"
    #: Process-grid topology the solve ran on.
    topology: Tuple[int, int, int] = (1, 1, 1)
    #: Number of ranks (product of the topology).
    n_ranks: int = 1
    #: Ghost layers exchanged per superstep (0: no exchange happened).
    halo: int = 0
    #: Total bytes sent by all ranks over the whole solve.
    bytes_exchanged: int = 0
    #: Total messages sent by all ranks over the whole solve.
    messages: int = 0
    #: Flat observability metrics (empty unless the solve was traced).
    metrics: Dict[str, float] = dc_field(default_factory=dict)
    #: Merged span/counter timeline (``None`` unless the solve was traced).
    trace: Optional[Trace] = None

    @property
    def cells_updated(self) -> int:
        """Total cell updates performed (incl. trapezoid extra work)."""
        return self.stats.cells_updated

    def to_json(self) -> Dict[str, Any]:
        """Everything but ``field`` and the traces, JSON-ready;
        :meth:`from_json` rebuilds the result around a field."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("field", "trace")}
        return dict(doc, stats=self.stats.to_json(),
                    config=self.config.to_json())

    @classmethod
    def from_json(cls, doc: Dict[str, Any], field: np.ndarray) -> "SolveResult":
        return cls(**dict(
            doc, field=field, topology=tuple(doc["topology"]),
            stats=ExecutionStats(**doc["stats"]),
            config=PipelineConfig.from_json(doc["config"])))


def run_pipelined(
    grid: Grid3D,
    field: np.ndarray,
    config: PipelineConfig,
    stencil: Optional[StarStencil] = None,
    order: str = "round_robin",
    rng: Optional[np.random.Generator] = None,
    record_trace: bool = False,
    tracer: Optional[Tracer] = None,
    threads: bool = False,
) -> SolveResult:
    """Advance ``field`` by ``config.total_updates`` Jacobi time levels.

    The shared-memory entry point (``threads=True``: an OS thread per
    stage, the ``"threads"`` backend); the distributed front-end in
    :mod:`repro.dist.solver` drives the same executor per rank with
    trapezoidal active regions and halo exchange between passes.
    """
    st = stencil or jacobi7()
    ex = PipelineExecutor(
        grid, field, config, st,
        order=order, rng=rng, record_trace=record_trace,
        tracer=tracer, threads=threads,
    )
    out = ex.run()
    return SolveResult(
        field=out,
        levels_advanced=config.total_updates,
        stats=ex.stats,
        config=config,
        backend="threads" if threads else "shared",
    )
