"""STREAM COPY calibration on the host.

Eq. 2 of the paper converts STREAM COPY bandwidth into the expected
baseline Jacobi performance: ``P0 = Ms / 16 bytes`` LUP/s.
:func:`host_stream_copy` measures the NumPy copy bandwidth of this host,
which the host-rail perf scenarios and the wall-clock benchmark use as
their own ``Ms``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = ["StreamResult", "host_stream_copy"]


@dataclass(frozen=True)
class StreamResult:
    """Bandwidth measurement, bytes per second."""

    threads: int
    bandwidth: float
    per_thread: float

    def gbs(self) -> float:
        """Bandwidth in decimal GB/s for reports."""
        return self.bandwidth / 1e9


def host_stream_copy(n_mb: int = 256, repeats: int = 3) -> StreamResult:
    """Measure NumPy copy bandwidth on the host (2 arrays, read+write).

    Counted STREAM-style: ``2 * nbytes`` moved per copy (one load stream,
    one store stream; NumPy assignment performs no RFO-avoiding NT stores,
    but we report the classical 2-stream figure the paper's Ms uses).
    """
    n = int(n_mb) * 1024 * 1024 // 8
    src = np.ones(n, dtype=np.float64)
    dst = np.empty_like(src)
    best = 0.0
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        dt = time.perf_counter() - t0
        if dt > 0:
            best = max(best, 2.0 * src.nbytes / dt)
    return StreamResult(threads=1, bandwidth=best, per_thread=best)
