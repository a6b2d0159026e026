"""The :class:`Engine` contract: how one stencil update is *executed*.

The paper's central claim (Sect. 1.1/1.4) is that a temporal-blocking
*schedule* — which cells advance to which time level when — is
independent of how the innermost update is executed: a vectorised
cache-slab walk (spatial blocking and the compressed grid's in-place
write are traversal details of it, not separate programs) and
SIMD/JIT-compiled loops all drive the very same schedule, and only
move the achieved bandwidth closer to the hardware limit.  This module
makes that separation first-class: an :class:`Engine` executes the
update ``level-1 -> level`` on a region, and *everything else* (the
executor, the distributed rank bodies, the reference sweeps) dispatches
through it.

The invariant every engine must uphold is the repo's signature move:
**bit-identical results**.  Two engines of the same :attr:`semantics`
class must produce byte-for-byte equal fields for every stencil,
storage scheme and backend — which is what lets the serving layer share
cache entries across engines, exactly as it shares them across
transports (see :mod:`repro.serve.job`).  The differential battery in
``tests/test_engine_equivalence.py`` pins this for every registered
engine.

Two entry points cover the two ways the repo stores fields:

* :meth:`Engine.apply` — storage-mediated, used by the pipelined
  executor (through :meth:`Engine.apply_spans`, the same update with
  the region given as its block-table entries).  ``src``/``dst`` are
  implicit in the storage scheme (for the two-grid layout they are
  separate arrays; for the compressed grid they are shifted positions
  of *one* array), so the engine reads
  through ``storage.read``/``storage.gather`` (Dirichlet values
  included) or straight from ``storage.raw_read_array`` — which
  reaches the Dirichlet ring on every face of both layouts — and
  writes through ``storage.write``, or ``storage.write_view`` or the
  raw array followed by ``commit_write``.  The storage checks nothing:
  the schedule driving an engine is certified before it runs
  (:func:`repro.analysis.assert_legal`).
* :meth:`Engine.apply_padded` — a padded two-array pair, used by the
  reference sweeps, the host micro-benchmarks and the multi-halo
  distributed sweeps.

The built-in class is ``vector-v2``: per cell, the sequence
:attr:`repro.kernels.stencils.StarStencil.groups` spells out — equal
weights summed first, one multiply per distinct weight, products added
in order, no zero seed.  Offsets whose weight is exactly ``0.0`` are not
in that table and must not be read: a zero weight contributes nothing
and must not turn an Inf/NaN neighbour into NaN.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..grid.blocks import spans_box

__all__ = ["Engine", "group_table", "plane_axis_and_step"]


def group_table(stencil, dtype, perm: Sequence[int] = (0, 1, 2)
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:attr:`StarStencil.groups` flattened for a per-cell loop.

    Returns ``(offsets, starts, weights)``: the member offsets as a
    ``(K, 3)`` int64 array in group order (coordinates permuted by
    ``perm``), ``starts`` of length ``G + 1`` — group ``g`` owns rows
    ``starts[g]:starts[g + 1]`` — and the ``G`` group weights cast to the
    field ``dtype``, so the loop's one multiply per group rounds exactly
    like the vectorised engines'.
    """
    groups = stencil.groups
    offsets = np.asarray([[off[p] for p in perm]
                          for _, offs in groups for off in offs],
                         dtype=np.int64).reshape(-1, 3)
    starts = np.cumsum([0] + [len(offs) for _, offs in groups],
                       dtype=np.int64)
    weights = np.asarray([w for w, _ in groups], dtype=dtype)
    return offsets, starts, weights


def plane_axis_and_step(storage, level: int) -> Tuple[int, int]:
    """The traversal axis and direction that make in-place writes legal.

    For a compressed grid: the first shifted dimension, walked in the
    direction the storage offset of ``level`` moves relative to
    ``level-1`` (descending offsets — even passes — need ascending
    planes, and vice versa), so a committed plane only ever overwrites
    positions no later plane still reads.  That holds for every engine
    because stencils are radius 1 by construction
    (:class:`~repro.kernels.stencils.StarStencil`): a plane's write
    destroys only the previous level of the plane one step behind it,
    which no plane still to come reads.  For the two-grid layout any
    order is legal; ascending axis 0 keeps the walk cache-friendly.
    """
    shift_vec = getattr(storage, "shift_vec", None)
    if shift_vec and any(shift_vec):
        axis = next(d for d in range(3) if shift_vec[d])
        descending = (storage.offset_scalar(level)
                      < storage.offset_scalar(level - 1))
        return axis, (1 if descending else -1)
    return 0, 1


class Engine:
    """One way of executing the innermost stencil update.

    Subclasses set the class attributes and implement both ``apply``
    methods.  Engines carry no per-solve state (scratch buffers are per
    call or per thread); one registered instance serves every thread,
    rank and backend.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"numpy"``.
    semantics:
        The *bit-semantics class*.  Engines sharing this string promise
        byte-identical results on identical inputs; it — not the
        engine name — enters the service's content keys, so caches are
        shared within a class and never across classes.
    jit:
        Capability flag: compiles the update loop (optional deps).
    requires:
        Name of the optional dependency gating this engine, or ``None``.
    """

    name: str = "abstract"
    semantics: str = "vector-v2"
    jit: bool = False
    requires = None

    # -- the two execution entry points ---------------------------------------

    def apply(self, stencil, storage, region, level: int) -> None:
        """Execute the update ``level-1 -> level`` on ``region``.

        ``region`` is a :class:`~repro.grid.region.Box` inside the
        storage's domain (empty boxes are a no-op); ``storage`` is a
        scheme from :mod:`repro.core.storage`.  A compressed-grid engine
        writes in the direction the storage offsets move and only after
        all reads of what it overwrites (:func:`plane_axis_and_step`),
        then calls ``commit_write``.
        """
        raise NotImplementedError

    def apply_spans(self, stencil, storage, spans, level: int) -> None:
        """:meth:`apply` on the non-empty region three table spans address.

        What the executor calls: ``spans`` are the per-axis
        :class:`~repro.grid.blocks.AxisSpan` entries of the region, whose
        ready-made slices let a view-based engine skip the ``Box``
        altogether.  The default materialises the ``Box``.
        """
        self.apply(stencil, storage, spans_box(spans), level)

    def apply_padded(self, stencil, src: np.ndarray, dst: np.ndarray,
                     lo: Sequence[int], hi: Sequence[int]) -> None:
        """One sweep over interior cells ``[lo, hi)`` of a padded pair.

        ``src`` has a one-cell ghost ring (shape ``interior + 2`` per
        dim) supplying out-of-region values; ``dst`` receives the
        updated region while every other cell keeps its current value.
        ``src`` and ``dst`` must not alias.
        """
        raise NotImplementedError

    # -- conveniences ----------------------------------------------------------

    @property
    def obs_label(self) -> str:
        """Stable observability key: the engine keyed by semantics class.

        Span args and metric names use this instead of bare ``name`` so
        traces group engines the same way the cache does — by the
        bit-semantics class that actually determines the numbers.
        """
        return f"{self.semantics}/{self.name}"

    def describe(self) -> str:
        """One-line summary for tables and reports."""
        extra = " [jit]" if self.jit else ""
        return f"{self.name}({self.semantics}){extra}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Engine {self.describe()}>"
