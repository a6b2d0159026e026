"""Cache-aware tiled traversal (the paper's spatial blocking, Sect. 1.1).

The baseline code of the paper walks the domain in blocks "of about
600x20x20" so three read planes plus the write plane fit in cache;
spatial blocking is *pure traversal reordering* and never changes
results.  This engine brings that traversal to every layer: the region
is tiled with :class:`~repro.grid.blocks.BlockDecomposition` (the same
machinery the temporal schedule uses for its block walk), each tile is
gathered and evaluated with the exact per-cell operation sequence of
the numpy engine, and the region commits in one fused write — which
keeps the update atomic with respect to the storage scheme, so the
compressed grid's shifted positions stay legal under any tiling.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..grid.blocks import BlockDecomposition
from .base import Engine
from .numpy_engine import accumulate_padded

__all__ = ["BlockedEngine", "DEFAULT_TILE"]

#: Default tile extents ``(tz, ty, tx)`` — a long contiguous x run with
#: thin z/y slabs, the shape the paper found decisive for cache reuse.
DEFAULT_TILE: Tuple[int, int, int] = (8, 32, 256)


class BlockedEngine(Engine):
    """Tiled reads, one fused write per region; bit-identical by design."""

    name = "blocked"
    semantics = "vector-v1"
    tiled = True

    def __init__(self, tile: Sequence[int] = DEFAULT_TILE) -> None:
        t = tuple(int(b) for b in tile)
        if len(t) != 3 or any(b < 1 for b in t):
            raise ValueError(f"bad tile {tile!r}")
        self.tile: Tuple[int, int, int] = t  # type: ignore[assignment]

    def _tiles(self, region):
        """Non-empty tile boxes covering ``region`` in traversal order."""
        decomp = BlockDecomposition(region, self.tile)
        for idx in decomp.iter_traversal():
            box = decomp.region(idx, 0)
            if not box.is_empty:
                yield box

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        values = np.empty(region.shape, dtype=storage.grid.dtype)
        for tile in self._tiles(region):
            center = storage.read(tile, level - 1)
            neighbors = [storage.gather(tile, off, level - 1)
                         for off in stencil.offsets]
            rel = tuple(slice(tile.lo[d] - region.lo[d],
                              tile.hi[d] - region.lo[d]) for d in range(3))
            values[rel] = stencil.apply(center, neighbors)
        storage.write(region, level, values)

    def apply_padded(self, stencil, src: np.ndarray, dst: np.ndarray,
                     lo: Sequence[int], hi: Sequence[int]) -> None:
        z0, y0, x0 = lo
        z1, y1, x1 = hi
        if z1 <= z0 or y1 <= y0 or x1 <= x0:
            return
        tz, ty, tx = self.tile
        # dst is a separate array, so per-tile writes need no buffering.
        for zt in range(z0, z1, tz):
            for yt in range(y0, y1, ty):
                for xt in range(x0, x1, tx):
                    accumulate_padded(
                        stencil, src, dst, (zt, yt, xt),
                        (min(zt + tz, z1), min(yt + ty, y1), min(xt + tx, x1)))
