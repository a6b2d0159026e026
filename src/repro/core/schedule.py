"""The block decomposition a configuration implies, and the skew oracle.

Legality of a schedule — coverage, the Eq. 3 window, the minimum block
distance — is decided in one place, :mod:`repro.analysis`, before
anything runs.  What stays here:

* :func:`make_decomposition` — the traversal geometry the executor and
  the DES build from a configuration;
* :func:`check_skew` — a test oracle on a *running* schedule: after any
  prefix of a legal execution the time-level surface has spatial slope
  at most one along shifted dimensions (the property that makes the
  two-buffer window sufficient).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..grid.blocks import BlockDecomposition
from ..grid.region import Box
from .parameters import PipelineConfig

__all__ = [
    "make_decomposition",
    "check_skew",
    "ScheduleError",
]


class ScheduleError(ValueError):
    """The time-level surface of a running schedule broke the skew bound."""


def make_decomposition(domain: Box, config: PipelineConfig) -> BlockDecomposition:
    """Build the block decomposition implied by a pipeline configuration."""
    return BlockDecomposition(domain, config.block_size, config.max_shift)


def check_skew(levels: np.ndarray, shift_vec: Tuple[int, int, int],
               max_skew: int = 1) -> None:
    """Verify the time-level surface has bounded slope along shifted dims.

    ``levels`` holds each cell's current time level at any instant of a
    legal execution (a test records it around the engine).  Along each
    shifted dimension, adjacent cells may differ by at most ``max_skew``
    levels; along unshifted dimensions they must be *equal* away from
    active-region boundaries — we only check the shifted dims here
    because trapezoid clipping legitimately creates steps along all dims
    near the rim.
    """
    for d in range(3):
        if not shift_vec[d]:
            continue
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[d] = slice(0, -1)
        hi[d] = slice(1, None)
        diff = np.abs(levels[tuple(hi)].astype(np.int64)
                      - levels[tuple(lo)].astype(np.int64))
        worst = int(diff.max()) if diff.size else 0
        if worst > max_skew:
            raise ScheduleError(
                f"time-level skew {worst} along dim {d} exceeds bound "
                f"{max_skew}; the one-cell-shift discipline is broken"
            )
