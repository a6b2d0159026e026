"""Block decomposition and traversal for (temporal) blocking schemes.

The pipelined scheme walks the domain block by block in lexicographic
traversal order.  Each pipeline stage ``s`` performs updates
``u = s*T+1 .. (s+1)*T`` on every block, and the update-``u`` region of a
block is the block box shifted by ``-(u-1)`` cells along each *tiled*
dimension (Sect. 1.3: "Shifting the block by one cell in each direction
after an update").  Because of the shift, the traversal must be extended
past the last real block so that the trailing (clipped) regions drain the
high end of the domain; :class:`BlockDecomposition` computes the extension
from the maximum shift.

Every update region is a Cartesian product of three 1-D intervals —
``[k_d*b_d - shift*vec_d, +b_d)``, mirrored or not, clipped to the active
box — so the geometry is held as **separable per-axis rows**
(:func:`axis_row`): for one axis and one shift level, block index ``k_d``
maps to an :class:`AxisSpan` carrying the clipped interval and the three
``slice`` objects (stencil offset -1/0/+1) that address it.  Rows are
derived once per distinct geometry and kept in a bounded process-wide
memo keyed by nothing but their integer inputs, so every decomposition,
pass, rank and served job of the same shape shares them, and
:meth:`BlockDecomposition.region` is three row lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .region import Box

__all__ = ["AxisSpan", "BlockDecomposition", "ROW_MEMO_SIZE", "RowKey",
           "Spans", "axis_row", "block_count", "box_spans", "spans_box"]

#: Rows the process-wide memo holds (least recently used goes first).  A
#: solve touches ``3 * updates_per_pass`` of them per traversal direction
#: and a row is ``O(blocks along its axis)``, so the memo is KiB-sized.
ROW_MEMO_SIZE = 256


def block_count(extent: int, block: int) -> int:
    """Number of blocks of size ``block`` needed to tile ``extent`` cells."""
    if block < 1:
        raise ValueError("block size must be >= 1")
    return -(-extent // block)


class AxisSpan(NamedTuple):
    """One axis of an update region: the clipped interval and its slices.

    The slices address the cells ``[lo, hi)`` displaced by 0/+1/-1 in an
    array whose index 0 holds cell ``domain.lo - 1`` — a one-cell ghost
    ring around the domain, the two-grid layout.  The fields are ordered
    so that ``span[off]`` *is* the slice a stencil offset ``off`` in
    ``{0, +1, -1}`` reads (``-1`` indexes the last field), which leaves
    the engines no index arithmetic per term.  ``n`` is the interval
    length clamped at zero; a fully clipped interval keeps its raw
    ``hi <= lo`` (what :meth:`Box.intersect` returns) and zero-length
    slices.  Slices are meaningful for spans inside the domain only.
    ``zero.start`` is the ring-array index of cell ``lo``, which is all
    an engine needs to address the span's cells as a flat run.
    """

    zero: slice
    plus: slice
    lo: int
    hi: int
    n: int
    minus: slice

    def sub(self, a: int, b: int) -> "AxisSpan":
        """The span of this one's cells ``a .. b`` (relative; slab walks)."""
        return _span(self.minus.start + a, self.lo + a, self.lo + b)


#: The three spans of one region, and one axis' spans by block index.
Spans = Tuple[AxisSpan, AxisSpan, AxisSpan]
Row = Tuple[AxisSpan, ...]
#: The arguments of :func:`axis_row` that build one row.
RowKey = Tuple[int, int, int, int, int, bool, int, int]


def _span(at: int, lo: int, hi: int) -> AxisSpan:
    """Span of cells ``[lo, hi)`` whose ``-1`` neighbour sits at index ``at``."""
    n = max(0, hi - lo)
    if not n:
        at = 0
    return AxisSpan(slice(at + 1, at + 1 + n), slice(at + 2, at + 2 + n),
                    lo, hi, n, slice(at, at + n))


@lru_cache(maxsize=ROW_MEMO_SIZE)
def axis_row(dom_lo: int, dom_hi: int, block: int, count: int, offset: int,
             mirror: bool, act_lo: int, act_hi: int) -> Row:
    """The :class:`AxisSpan` of every block index along one axis.

    Block ``k`` covers ``[dom_lo + k*block - offset, +block)``, reflected
    about the centre of ``[dom_lo, dom_hi)`` under ``mirror`` and clipped
    to ``[act_lo, act_hi)``.  Memoised: the arguments are the whole
    geometry of the row, results are immutable, and the cache is bounded
    (:data:`ROW_MEMO_SIZE`) and safe to share between threads.
    """
    row = []
    for k in range(count):
        lo = dom_lo + k * block - offset
        hi = lo + block
        if mirror:
            lo, hi = dom_lo + dom_hi - hi, dom_lo + dom_hi - lo
        lo, hi = max(lo, act_lo), min(hi, act_hi)
        row.append(_span(lo - dom_lo, lo, hi))
    return tuple(row)


def box_spans(box: Box, domain: Box) -> Spans:
    """Per-axis spans addressing ``box`` in the ring array of ``domain``."""
    (b0, b1, b2), (h0, h1, h2) = box.lo, box.hi
    d0, d1, d2 = domain.lo
    return (_span(b0 - d0, b0, h0), _span(b1 - d1, b1, h1),
            _span(b2 - d2, b2, h2))


def spans_box(spans: Spans) -> Box:
    """The region three per-axis spans address, as a :class:`Box`."""
    sz, sy, sx = spans
    return Box((sz.lo, sy.lo, sx.lo), (sz.hi, sy.hi, sx.hi))


@dataclass(frozen=True)
class BlockDecomposition:
    """Tiling of a 3-D domain into blocks, with shift-aware traversal.

    Parameters
    ----------
    domain:
        The interior box being updated (usually ``grid.domain``; for
        distributed trapezoids, the maximal active region).
    block_size:
        Block extents ``(bz, by, bx)``.  An entry that equals or exceeds
        the domain extent makes that dimension *untiled* (a single block
        spans it and no shift is applied there).
    max_shift:
        The largest region shift the schedule will request, i.e.
        ``n_stages * T - 1`` for a pipeline of that depth.  Determines how
        many drain blocks extend the traversal.

    Attributes
    ----------
    extents:
        Domain edge lengths.
    tiled_dims:
        Dimensions actually cut into more than one block (shifted dims).
    shift_vec:
        Unit shift vector: 1 in each tiled dimension, 0 elsewhere.
    base_counts:
        Blocks per dimension without drain extension.
    extended_counts:
        Blocks per dimension including drain blocks for the max shift.
        Along a tiled dimension the last region at shift ``S`` is
        ``[k*b - S, (k+1)*b - S)``; it still intersects the domain while
        ``k*b - S < n``, so blocks run up to ``ceil((n + S) / b) - 1``.
    n_traversal_blocks:
        Total traversal length (shared by every pipeline stage).
    n_base_blocks:
        Number of real (unshifted) blocks tiling the domain.
    """

    domain: Box
    block_size: Tuple[int, int, int]
    max_shift: int = 0
    # Derived once at construction, so nothing is re-derived per region.
    extents: Tuple[int, int, int] = field(init=False, repr=False, compare=False)
    tiled_dims: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    shift_vec: Tuple[int, int, int] = field(init=False, repr=False, compare=False)
    base_counts: Tuple[int, int, int] = field(init=False, repr=False, compare=False)
    extended_counts: Tuple[int, int, int] = field(init=False, repr=False,
                                                  compare=False)
    n_traversal_blocks: int = field(init=False, repr=False, compare=False)
    n_base_blocks: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.domain.is_empty:
            raise ValueError("cannot decompose an empty domain")
        if any(int(b) < 1 for b in self.block_size):
            raise ValueError(f"block sizes must be >= 1, got {self.block_size}")
        if self.max_shift < 0:
            raise ValueError("max_shift must be >= 0")
        block = tuple(int(b) for b in self.block_size)
        extents = self.domain.shape
        vec = tuple(int(block[d] < extents[d]) for d in range(3))
        base = tuple(block_count(extents[d], block[d]) for d in range(3))
        ext = tuple(block_count(extents[d] + vec[d] * self.max_shift, block[d])
                    for d in range(3))
        for name, value in (
                ("block_size", block), ("extents", extents),
                ("tiled_dims", tuple(d for d in range(3) if vec[d])),
                ("shift_vec", vec), ("base_counts", base),
                ("extended_counts", ext),
                ("n_traversal_blocks", ext[0] * ext[1] * ext[2]),
                ("n_base_blocks", base[0] * base[1] * base[2])):
            object.__setattr__(self, name, value)

    # -- block boxes ------------------------------------------------------------

    def block_index(self, traversal_idx: int) -> Tuple[int, int, int]:
        """Map a linear traversal index to a block index triple (z-major)."""
        if not (0 <= traversal_idx < self.n_traversal_blocks):
            raise IndexError(f"traversal index {traversal_idx} out of range")
        _, c1, c2 = self.extended_counts
        rest, k2 = divmod(traversal_idx, c2)
        k0, k1 = divmod(rest, c1)
        return (k0, k1, k2)

    def block_box(self, k: Sequence[int]) -> Box:
        """The *unshifted* box of block ``k`` (not clipped to the domain).

        Drain blocks lie partially or fully above the domain; clipping
        happens after the shift, in :meth:`region`.
        """
        lo = tuple(self.domain.lo[d] + k[d] * self.block_size[d] for d in range(3))
        hi = tuple(lo[d] + self.block_size[d] for d in range(3))
        return Box(lo, hi)  # type: ignore[arg-type]

    def level_keys(self, shift: int, active: Optional[Box] = None,
                   mirror: bool = False) -> Tuple[RowKey, RowKey, RowKey]:
        """The :func:`axis_row` arguments of one shift level's three rows:
        plain integers, so they key further memos of the same geometry."""
        if shift < 0 or shift > self.max_shift:
            raise ValueError(f"shift {shift} outside [0, {self.max_shift}]")
        dom = self.domain
        act = dom if active is None else active
        (d0, d1, d2), (e0, e1, e2) = dom.lo, dom.hi
        (a0, a1, a2), (h0, h1, h2) = act.lo, act.hi
        b0, b1, b2 = self.block_size
        c0, c1, c2 = self.extended_counts
        v0, v1, v2 = self.shift_vec
        return ((d0, e0, b0, c0, shift * v0, mirror and v0 == 1, a0, h0),
                (d1, e1, b1, c1, shift * v1, mirror and v1 == 1, a1, h1),
                (d2, e2, b2, c2, shift * v2, mirror and v2 == 1, a2, h2))

    def level_rows(self, shift: int, active: Optional[Box] = None,
                   mirror: bool = False) -> Tuple[Row, Row, Row]:
        """The three :func:`axis_row` tables of one shift level.

        Block ``(k0, k1, k2)``'s update region at ``shift`` is the product
        ``rows[0][k0] x rows[1][k1] x rows[2][k2]``; it is empty iff any
        of the three spans has ``n == 0``.
        """
        kz, ky, kx = self.level_keys(shift, active, mirror)
        return axis_row(*kz), axis_row(*ky), axis_row(*kx)

    def region(self, traversal_idx: int, shift: int,
               active: Optional[Box] = None, mirror: bool = False) -> Box:
        """Update region: block box shifted by ``-shift`` along tiled dims.

        The result is clipped to ``active`` (defaults to the domain).  This
        is the geometric core of the scheme; everything else — coverage,
        two-buffer legality, no-boundary-copies — follows from it and is
        machine-checked by the executor.  It is three lookups in the
        memoised per-axis rows (:meth:`level_rows`), the same tables the
        executor iterates.

        ``mirror=True`` reflects the region about the domain centre along
        the tiled dimensions.  This realises the paper's "reverse loops
        (running from large to small indices) on all even sweeps" for the
        compressed grid: traversal index 0 then starts at the *high* end
        and regions shift upward, matching the unwinding storage offsets.
        """
        rz, ry, rx = self.level_rows(shift, active, mirror)
        k0, k1, k2 = self.block_index(traversal_idx)
        return spans_box((rz[k0], ry[k1], rx[k2]))

    def level_regions(self, shift: int, active: Optional[Box] = None,
                      mirror: bool = False) -> List[Box]:
        """All (non-empty) regions of one shift level, for partition checks."""
        out = []
        for idx in range(self.n_traversal_blocks):
            r = self.region(idx, shift, active, mirror)
            if not r.is_empty:
                out.append(r)
        return out

    # -- sizes for cost models -----------------------------------------------------

    def block_bytes(self, itemsize: int = 8, arrays: int = 1) -> int:
        """Nominal bytes of one (full) block for one or more field arrays."""
        b = self.block_size
        return b[0] * b[1] * b[2] * itemsize * arrays
