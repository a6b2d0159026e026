"""Geometric hazard analysis of the one-cell-shift schedule.

The pipelined schedule is arithmetic on boxes (Sect. 1.3 of the paper):
update ``u`` on traversal block ``k`` writes the block box shifted by
``-(u-1)`` cells along every tiled dimension and reads the same box at
shift ``u-1`` plus the star-stencil offsets at level ``u-1``.  Because
every stage walks the *same* traversal in the *same* order, whether two
operations can touch the same storage is a function of their **block
delta** only — translation-invariant in the interior — so the whole
dependence structure compresses into a small table:

    for each ordered pair of updates (u, w) and each hazard kind,
    the set of traversal deltas ``Δ`` such that op ``(block i+Δ, w)``
    must complete before op ``(block i, u)`` starts.

Three kinds cover everything, derived from the storage position maps
(two-grid: ``(cell, level mod 2)``; compressed: ``cell + off(level)``):

* **RAW** — ``u`` reads level ``u-1`` cells that update ``u-1`` writes.
* **WAR** — writing ``u`` destroys the value a pending reader still
  needs: the previous occupant of the written positions is level
  ``u-2`` of the same cells (two-grid) or level ``u-1`` of the cells
  one shift behind (compressed); its readers run update ``u-1`` resp.
  ``u``.
* **WAW** — writing ``u`` must come *after* the write that produced
  that previous occupant, or a stale value would land on top of a
  newer one.

The reads are the radius-1 star, the only stencil the runtime can run
(:class:`~repro.kernels.stencils.StarStencil` refuses wider offsets).
Deltas whose two ops belong to one stage are checked against program
order right here (a violation no counter window can fix; the one-cell
shift is exactly what keeps radius-1 reads from producing one, and this
check is where that is proven); deltas that cross stages
become *lead constraints* ``c_other - c_self >= Δ + 1`` for the counter
automaton in :mod:`repro.analysis.checker` to test against every
reachable counter assignment.

Everything is computed per dimension on unclipped interior boxes: two
length-``L`` intervals ``k·b + a`` and ``(k+Δ)·b + a'`` overlap iff
``|Δ·b + a' - a| < L``, which turns each (update pair, stencil offset)
into an integer interval of conflicting per-dim deltas.  Domain-edge
clipping only ever *shrinks* regions, so the interior analysis is
complete (no missed hazards) and exact away from the last blocks.

The compressed grid's Dirichlet ring needs no analysis of its own.  A
ring cell is a cell one step past the domain and moves with the level
as an interior cell does: on the leading face its level-``L`` position
is not occupied yet, on the trailing face it takes the level-``L-1``
slot of the last interior plane, which the region's own slab walk reads
before the commit that stores the ring.  That is the interior in-place
argument moved one cell, and the unclipped boxes analysed here already
contain those cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..grid.blocks import BlockDecomposition
from ..grid.region import Box
from ..kernels.stencils import AXIS_OFFSETS
from .findings import Report
from .model import ScheduleSpec

__all__ = [
    "Constraint",
    "ConstraintTable",
    "build_constraints",
    "check_coverage_static",
]

Coord = Tuple[int, int, int]

#: The seven reads of an update: the centre and the six axis neighbours.
READS: Tuple[Coord, ...] = ((0, 0, 0),) + AXIS_OFFSETS


@dataclass(frozen=True)
class Constraint:
    """One cross-stage ordering requirement.

    Op ``(block i + delta, update w)`` of stage ``other`` must complete
    before op ``(block i, update u)`` of stage ``stage`` starts, for
    every traversal block ``i`` where the conflicting block exists.
    """

    stage: int          # the stage whose op is about to execute
    other: int          # the stage owning the op that must be complete
    delta: int          # traversal-index delta of the conflicting block
    kind: str           # "raw" | "war" | "waw"
    u: int              # executing update (pass-local, 1-based)
    w: int              # conflicting update
    cells: str          # human-readable shared-cells witness fragment

    @property
    def lead(self) -> int:
        """Minimum counter gap ``c_other - c_stage`` that discharges it."""
        return self.delta + 1


@dataclass
class ConstraintTable:
    """The compressed dependence structure of one schedule."""

    #: Cross-stage constraints, every delta kept for witness quality.
    constraints: List[Constraint] = field(default_factory=list)
    #: ``lead[(stage, other)]`` = binding (max) lead over all constraints.
    lead: Dict[Tuple[int, int], Constraint] = field(default_factory=dict)

    def add(self, c: Constraint) -> None:
        """Record a constraint and update the binding-lead table."""
        self.constraints.append(c)
        key = (c.stage, c.other)
        cur = self.lead.get(key)
        if cur is None or c.lead > cur.lead:
            self.lead[key] = c

    def required_d_l(self) -> int:
        """Largest adjacent-stage lead — the minimum legal ``d_l``."""
        return max((c.lead for (s, o), c in self.lead.items() if s - o == 1),
                   default=0)


# -- per-dimension interval arithmetic ---------------------------------------


def _delta_range_1d(b: int, L: int, C: int) -> range:
    """Integer ``dk`` with ``-L < dk*b + C < L`` (equal-length overlap)."""
    lo = (-L - C) // b + 1
    hi = -((C - L) // b) - 1
    return range(lo, hi + 1)


def _conflict_deltas(decomp: BlockDecomposition,
                     shift_a: int, off_a: Coord,
                     shift_b: int, off_b: Coord) -> Iterator[Coord]:
    """Block-delta triples where the two shifted box families overlap.

    Family A is ``block(k).shift(-shift_a * v + off_a)``, family B is
    ``block(k + dk).shift(-shift_b * v + off_b)`` with ``v`` the unit
    shift vector; per dimension the interval start difference is
    ``dk*b + (shift_a - shift_b)*v_d + (off_b_d - off_a_d)``.
    """
    tiled = set(decomp.tiled_dims)
    ranges: List[range] = []
    for d in range(3):
        b = decomp.block_size[d]
        if d in tiled:
            C = (shift_a - shift_b) + (off_b[d] - off_a[d])
            ranges.append(_delta_range_1d(b, b, C))
        else:
            L = min(b, decomp.extents[d])
            C = off_b[d] - off_a[d]
            ranges.append(range(0, 1) if -L < C < L else range(0, 0))
        if not ranges[-1]:
            return
    for dz in ranges[0]:
        for dy in ranges[1]:
            for dx in ranges[2]:
                yield (dz, dy, dx)


def _traversal_strides(decomp: BlockDecomposition) -> Coord:
    """Linear traversal-index stride of a +1 step per block dimension."""
    c = decomp.extended_counts
    return (c[1] * c[2], c[2], 1)


def _witness_cells(decomp: BlockDecomposition, spec: ScheduleSpec,
                   shift_a: int, off_a: Coord,
                   shift_b: int, off_b: Coord, dk: Coord) -> str:
    """Concrete overlapping cells at a representative interior block."""
    v = decomp.shift_vec
    b = decomp.block_size
    k = tuple(
        -(-(spec.max_shift + 1) // b[d]) if v[d] else 0
        for d in range(3))
    box_a = decomp.block_box(k).shift(
        tuple(-shift_a * v[d] + off_a[d] for d in range(3)))
    box_b = decomp.block_box(
        tuple(k[d] + dk[d] for d in range(3))).shift(
        tuple(-shift_b * v[d] + off_b[d] for d in range(3)))
    inter = box_a.intersect(box_b)
    if inter.is_empty:  # pragma: no cover - defensive; deltas imply overlap
        return f"blocks {k} and {tuple(k[d] + dk[d] for d in range(3))}"
    return (f"e.g. cells {inter.lo}..{inter.hi} shared by blocks "
            f"{k} and {tuple(k[d] + dk[d] for d in range(3))}")


# -- the relation catalogue ---------------------------------------------------


Relation = Tuple[str, int, int, Sequence[Coord], int, Sequence[Coord]]


def _relations(spec: ScheduleSpec, decomp: BlockDecomposition) -> Iterator[Relation]:
    """Yield ``(kind, u, shift_a, offs_a, w, offs_b)`` hazard relations.

    ``offs_a`` are the offsets applied to the executing op's base box
    (shift ``shift_a = u-1``); the conflicting op ``w`` always uses its
    own write/read geometry as documented per kind below.  ``offs_b``
    is the offset list of op ``w``'s boxes (its region shift is
    ``w-1``).  Order requirement is always: op ``w`` before op ``u``.
    """
    h = spec.updates_per_pass
    center = [(0, 0, 0)]
    # The compressed grid's "one shift behind" cells: the write region
    # moved one cell back along every tiled (shifted) dimension.
    v = decomp.shift_vec
    back = [(-v[0], -v[1], -v[2])]
    for u in range(1, h + 1):
        sa = u - 1
        # RAW: reads of level u-1 vs. the producers of level u-1.
        if u >= 2:
            yield ("raw", u, sa, READS, u - 1, center)
        if spec.storage == "twogrid":
            # WAR: writing u (array u%2) destroys level u-2 of the same
            # cells, still wanted by update u-1 readers.
            if u >= 2:
                yield ("war", u, sa, center, u - 1, READS)
            # WAW: that destroyed value was written by update u-2.
            if u >= 3:
                yield ("waw", u, sa, center, u - 2, center)
        else:  # compressed
            # Writing u at position c - u*v destroys level u-1 of cell
            # c - v (the "one shift behind" cell), read by update u...
            yield ("war", u, sa, back, u, READS)
            # ...and written by update u-1.
            if u >= 2:
                yield ("waw", u, sa, back, u - 1, center)


def build_constraints(spec: ScheduleSpec, decomp: BlockDecomposition,
                      report: Report) -> ConstraintTable:
    """Compute the dependence table; same-stage violations go to ``report``.

    Cross-stage requirements come back as a :class:`ConstraintTable`
    for the automaton; ordering requirements *within* one stage are
    decided here against program order (block ascending, update
    ascending within a block) — a violation means the schedule is
    broken independently of any synchronisation window.
    """
    table = ConstraintTable()
    strides = _traversal_strides(decomp)
    seen_structural = set()
    for kind, u, sa, offs_a, w, offs_b in _relations(spec, decomp):
        sb = w - 1
        stage_u = spec.stage_of_update(u)
        stage_w = spec.stage_of_update(w)
        for oa in offs_a:
            for off_b in offs_b:
                for dk in _conflict_deltas(decomp, sa, oa, sb, off_b):
                    if u == w and dk == (0, 0, 0):
                        continue  # the op itself (engine-internal order)
                    delta = dk[0] * strides[0] + dk[1] * strides[1] + dk[2]
                    if stage_u == stage_w:
                        # Program order: (i+delta, w) precedes (i, u)
                        # iff delta < 0, or same block and w < u.
                        if delta < 0 or (delta == 0 and w < u):
                            continue
                        key = (kind, u, w, delta)
                        if key in seen_structural:
                            continue
                        seen_structural.add(key)
                        cells = _witness_cells(decomp, spec, sa, oa,
                                               sb, off_b, dk)
                        report.add(
                            f"{kind}-hazard", "error",
                            f"stage {stage_u}, updates {w} and {u}",
                            f"intra-stage {kind.upper()} dependency runs "
                            f"against program order: update {u} on block i "
                            f"conflicts with update {w} on block i"
                            f"{delta:+d}, which the same thread executes "
                            "later — no counter window can order ops of "
                            "one thread",
                            f"{cells}; with radius-1 reads and the "
                            "one-cell shift the read/write footprints of "
                            "the two updates overlap ahead of the traversal",
                        )
                        continue
                    table.add(Constraint(
                        stage=stage_u, other=stage_w, delta=delta,
                        kind=kind, u=u, w=w,
                        cells=_witness_cells(decomp, spec, sa, oa,
                                             sb, off_b, dk),
                    ))
    return table


# -- coverage ----------------------------------------------------------------


def check_coverage_static(spec: ScheduleSpec, decomp: BlockDecomposition,
                          report: Report) -> None:
    """Each level's shifted regions must partition the domain exactly.

    A level's regions are the products of its per-axis rows (the
    :meth:`BlockDecomposition.level_rows` the executor runs on), and a
    product of 1-D partitions is a 3-D partition: the check is linear in
    the blocks along each axis.  For consistent inputs it cannot fail; it
    guards the block decomposition itself, and it is the only coverage
    check there is.
    """
    dom = decomp.domain
    for u in range(1, spec.updates_per_pass + 1):
        for d, row in enumerate(decomp.level_rows(u - 1)):
            # The spans tile [lo, hi) iff, sorted, each starts where the
            # one before it ends: their starts + [hi] == [lo] + their ends.
            spans = sorted((s.lo, s.hi) for s in row if s.n)
            if ([lo for lo, _ in spans] + [dom.hi[d]]
                    != [dom.lo[d]] + [hi for _, hi in spans]):
                report.add(
                    "coverage", "error", f"update {u}",
                    f"the shift-{u - 1} block regions do not partition the "
                    f"domain {dom}",
                    f"along axis {d}, [{dom.lo[d]}, {dom.hi[d]}): some cells "
                    "would be updated twice or never at this level",
                )
                return  # one witness level is enough


def decomposition_for(spec: ScheduleSpec, shape: Coord) -> Optional[BlockDecomposition]:
    """The traversal geometry of ``spec`` on a domain, or ``None``.

    Returns ``None`` (after the caller reported config errors) when the
    geometry is unbuildable — the remaining checks need real boxes.
    """
    try:
        return BlockDecomposition(Box.from_shape(shape),
                                  tuple(spec.block_size), spec.max_shift)
    except (ValueError, TypeError):
        return None
