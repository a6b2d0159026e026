"""Grid substrate: regions, 3-D domains, block decomposition.

This package provides the geometric foundation shared by every execution
engine in the reproduction: immutable box algebra (:mod:`.region`), the
domain/boundary description (:mod:`.grid3d`) and the shift-aware block
decomposition (:mod:`.blocks`).  Distributed-memory domain decomposition
lives in :mod:`repro.dist.decomp` on top of these.
"""

from .region import Box, boxes_partition
from .grid3d import DirichletBoundary, Grid3D, random_field
from .blocks import BlockDecomposition, block_count

__all__ = [
    "Box",
    "boxes_partition",
    "DirichletBoundary",
    "Grid3D",
    "random_field",
    "BlockDecomposition",
    "block_count",
]
