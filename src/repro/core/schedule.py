"""The block decomposition a configuration implies.

Legality of a schedule — coverage, the Eq. 3 window, the minimum block
distance — is decided in one place, :mod:`repro.analysis`, before
anything runs.  What stays here is :func:`make_decomposition`, the
traversal geometry the executor and the DES build from a configuration.
"""

from __future__ import annotations

from ..grid.blocks import BlockDecomposition
from ..grid.region import Box
from .parameters import PipelineConfig

__all__ = ["make_decomposition"]


def make_decomposition(domain: Box, config: PipelineConfig) -> BlockDecomposition:
    """Build the block decomposition implied by a pipeline configuration."""
    return BlockDecomposition(domain, config.block_size, config.max_shift)
