"""The service's job model: what one solve *is*, content-addressed.

A :class:`SolveJob` is a declarative description of one call to
:func:`repro.solve` — problem (grid + field + stencil), parameters
(config, possibly ``"auto"``), placement (topology + backend) and a
scheduling ``priority``.  Jobs are what the scheduler queues, the cache
keys and the futures resolve.

Content addressing
------------------
:meth:`SolveJob.content_key` is a SHA-256 over everything that
determines the *bits* of the result field:

* the grid geometry (shape, dtype, the Dirichlet boundary constants),
* the exact field bytes,
* the canonicalised pipeline configuration and stencil weights
  (``float.hex`` — no formatting round-trips),
* the **backend semantics class**, not the backend name: on a
  ``(1, 1, 1)`` topology all three backends are bit-identical, and on
  any topology ``simmpi``/``procmpi`` are bit-identical to each other
  (the differential battery of ``tests/test_backend_equivalence`` pins
  both), so jobs differing only in transport share one cache entry,
* the **engine semantics class**, not the engine name, for the same
  reason: every engine of one class is bit-identical (pinned by
  ``tests/test_engine_equivalence``), so jobs differing only in
  ``config.engine`` share one cache entry — ``config.engine`` is
  deliberately excluded from the canonical config encoding,
* a code-version tag (``repro.__version__`` plus a key-schema number),
  so a cache directory can never serve results across releases.

A job whose boundary carries a callable ``func`` is *uncacheable*
(callables have no canonical bytes); the service computes it fresh every
time and never stores it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from ..api import BACKENDS
from ..core.parameters import BarrierSpec, PipelineConfig, RelaxedSpec
from ..grid.grid3d import Grid3D
from ..kernels.jacobi import jacobi7
from ..kernels.stencils import StarStencil

__all__ = ["KEY_SCHEMA", "SolveJob"]

#: Bump when the canonical encoding below changes meaning: old cache
#: entries must never satisfy new keys.  2: the engine-semantics part
#: joined the key (PR 5).  3: the built-in engines moved to the
#: ``vector-v2`` per-cell sequence (``StarStencil.groups``); fields
#: computed under the class it replaced differ in their last bits.
KEY_SCHEMA = 3

Coord = Tuple[int, int, int]


def _canon_float(x: float) -> str:
    return float(x).hex()


def _canon_sync(sync) -> str:
    if isinstance(sync, BarrierSpec):
        return "barrier"
    if isinstance(sync, RelaxedSpec):
        return f"relaxed:{sync.d_l}:{sync.d_u}:{sync.team_delay}"
    raise TypeError(f"unknown sync spec {sync!r}")  # pragma: no cover


def _canon_config(cfg: PipelineConfig) -> str:
    # ``cfg.engine`` is intentionally absent: the engine enters the key
    # through its *semantics class* (see ``content_key``), so engines
    # that are bit-identical share cache entries.
    return ";".join([
        f"teams={cfg.teams}",
        f"t={cfg.threads_per_team}",
        f"T={cfg.updates_per_thread}",
        f"block={cfg.block_size[0]},{cfg.block_size[1]},{cfg.block_size[2]}",
        f"sync={_canon_sync(cfg.sync)}",
        f"storage={cfg.storage}",
        f"passes={cfg.passes}",
    ])


def _canon_stencil(st: StarStencil) -> str:
    # Weights in canonical offset order; the display name is excluded —
    # it cannot change the result bits.
    parts = [f"{off}:{_canon_float(w)}"
             for off, w in sorted(st.weights.items())]
    parts.append(f"center:{_canon_float(st.center_weight)}")
    return "|".join(parts)


def _canon_boundary(grid: Grid3D) -> Optional[str]:
    """Boundary canonical form, or ``None`` when it has no stable bytes."""
    b = grid.boundary
    if b.func is not None:
        return None
    faces = "|".join(f"{name}:{_canon_float(v)}"
                     for name, v in sorted(b.faces.items()))
    return f"default:{_canon_float(b.default)};faces:{faces}"


@dataclass(frozen=True, eq=False)
class SolveJob:
    """One solve request, as queued, keyed and cached by the service.

    Jobs compare by identity (the ndarray field has no useful ``==``);
    *content* equality is exactly what :meth:`content_key` hashes.

    ``config`` may be the literal string ``"auto"``, in which case the
    service resolves it through :func:`repro.autotune` (see
    :mod:`repro.serve.autoconf`) before keying or executing the job —
    :meth:`content_key` on an unresolved job raises.
    """

    grid: Grid3D
    field: np.ndarray
    config: Union[PipelineConfig, str]
    topology: Coord = (1, 1, 1)
    backend: str = "shared"
    stencil: Optional[StarStencil] = None
    priority: int = 0
    _key: Optional[str] = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        topo = tuple(int(p) for p in self.topology)
        if len(topo) != 3 or any(p < 1 for p in topo):
            raise ValueError(
                f"topology must be a (Pz, Py, Px) triple of positive "
                f"extents, got {self.topology!r}")
        object.__setattr__(self, "topology", topo)
        if self.backend == "shared" and topo != (1, 1, 1):
            raise ValueError(
                f"the shared backend is single-process; topology {topo} "
                "needs backend='simmpi' or 'procmpi'")
        if isinstance(self.config, str):
            if self.config != "auto":
                raise ValueError(
                    f"config must be a PipelineConfig or 'auto', "
                    f"got {self.config!r}")
        elif not isinstance(self.config, PipelineConfig):
            raise TypeError(
                f"config must be a PipelineConfig or 'auto', "
                f"got {type(self.config).__name__}")
        if self.field.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.field.shape} != grid shape "
                f"{self.grid.shape}")
        # Snapshot the field: the job may sit in a queue while the
        # caller reuses its buffer, and the content key must keep
        # describing the bytes the solve will actually read — a mutated
        # shared array would poison the cache with bit-wrong entries.
        object.__setattr__(self, "field",
                           np.array(self.field, copy=True))

    # -- derived -----------------------------------------------------------------

    @property
    def resolved(self) -> bool:
        """True once ``config`` is a concrete :class:`PipelineConfig`."""
        return isinstance(self.config, PipelineConfig)

    @property
    def cacheable(self) -> bool:
        """False when the job has no canonical bytes (callable boundary)."""
        return _canon_boundary(self.grid) is not None

    @property
    def n_ranks(self) -> int:
        return self.topology[0] * self.topology[1] * self.topology[2]

    def with_config(self, config: PipelineConfig) -> "SolveJob":
        """The same job with a concrete configuration (auto-tune result)."""
        return replace(self, config=config, _key=None)

    def semantics(self) -> str:
        """The backend *semantics class* entering the content key.

        All backends agree bitwise on ``(1, 1, 1)``; on wider topologies
        the two distributed transports agree with each other.
        """
        if self.topology == (1, 1, 1):
            return "single"
        return f"dist:{self.topology[0]}x{self.topology[1]}x{self.topology[2]}"

    def engine_semantics(self) -> str:
        """The engine *semantics class* entering the content key.

        Engines of one class are bit-identical on every kernel, storage
        and backend (the engine differential battery pins this), so the
        class — never the engine name — keys the cache.  Like
        :meth:`content_key`, only meaningful on resolved jobs.
        """
        from ..engine import engine_semantics

        return engine_semantics(self.config.engine)

    def content_key(self) -> str:
        """Deterministic SHA-256 hex digest of everything result-affecting.

        Raises ``ValueError`` for unresolved (``config="auto"``) jobs and
        for uncacheable ones — callers must check :attr:`cacheable`.
        """
        if self._key is not None:
            return self._key
        if not self.resolved:
            raise ValueError(
                "cannot key an unresolved job; resolve config='auto' first")
        boundary = _canon_boundary(self.grid)
        if boundary is None:
            raise ValueError(
                "job is not cacheable: a callable Dirichlet boundary has "
                "no canonical bytes")
        from .. import __version__

        st = self.stencil or jacobi7()
        h = hashlib.sha256()
        parts: List[str] = [
            f"repro/{__version__}/key{KEY_SCHEMA}",
            f"shape:{self.grid.shape}",
            f"dtype:{np.dtype(self.grid.dtype).str}",
            f"boundary:{boundary}",
            f"config:{_canon_config(self.config)}",
            f"stencil:{_canon_stencil(st)}",
            f"semantics:{self.semantics()}",
            f"engine:{self.engine_semantics()}",
        ]
        h.update("\n".join(parts).encode())
        h.update(b"\nfield:")
        h.update(np.ascontiguousarray(self.field).tobytes())
        digest = h.hexdigest()
        object.__setattr__(self, "_key", digest)
        return digest

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        cfg = (self.config.describe() if self.resolved
               else "auto")
        return (f"job({self.grid.shape}, backend={self.backend}, "
                f"topology={self.topology}, priority={self.priority}, {cfg})")
