"""The monotonic clock of the live monitor.

:func:`monotime` is **the** monotonic clock of the serving layer.  The
``no-naked-perf-counter`` lint rule bans direct ``time.perf_counter()``
timing everywhere under ``repro.serve`` and ``repro.obs`` (ad-hoc timing
is how unsampled, unexported latencies accumulate); this module and
:mod:`repro.obs.tracer` are the allowlisted clock primitives all other
code must route through.
"""

from __future__ import annotations

import time

__all__ = ["monotime"]


def monotime() -> float:
    """Seconds on the process-local monotonic clock.

    The single sanctioned ``time.perf_counter`` call site of the
    serving/observability layers (with the Tracer's span clock); see the
    ``no-naked-perf-counter`` lint rule.
    """
    return time.perf_counter()
