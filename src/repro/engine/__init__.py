"""repro.engine — the pluggable kernel-execution layer.

The temporal-blocking *schedule* (which cell advances when, driven
by :mod:`repro.core`) is independent of how the innermost stencil
update is *executed*; this package makes the execution strategy a
first-class, registry-dispatched choice — Sect. 1.1/1.4's point that
the same schedule can be driven arbitrarily close to the hardware
limit by changing only the inner kernel.

Built-in engines (all bit-identical, semantics class ``vector-v2``):

=============== =============================================================
``numpy``       View-only, cache-slab vectorised accumulate (the default):
                spatial blocking (Sect. 1.1) and the compressed grid's
                direction-aware in-place write (Sect. 1.3) in one walk.
``numba``       Optional ``njit(parallel=True)`` per-cell group-sum loops;
                registers only when :mod:`numba` is installed.
``numba-deep``  Optional whole-block-traversal JIT: gather, Dirichlet
                patch and destination write in one compiled region, for
                both storage schemes (also numba-gated).
=============== =============================================================

Select an engine per solve (``repro.solve(..., engine="numba")``) or
per configuration (``PipelineConfig(engine="numba-deep")``); every rail —
shared, ``simmpi``, ``procmpi``, the serving layer and the perf
harness — dispatches through the same registry, so the choice follows
the configuration everywhere.
"""

from .base import Engine, group_table
from .numba_deep import NumbaDeepEngine
from .numba_engine import HAVE_NUMBA, NumbaEngine, jit_cache_stats
from .numpy_engine import NumpyEngine
from .registry import (
    DEFAULT_ENGINE,
    KNOWN_ENGINES,
    available_engines,
    check_engine,
    engine_semantics,
    get_engine,
    register_engine,
    unregister_engine,
)

__all__ = [
    "Engine",
    "NumpyEngine",
    "NumbaEngine",
    "NumbaDeepEngine",
    "HAVE_NUMBA",
    "jit_cache_stats",
    "DEFAULT_ENGINE",
    "KNOWN_ENGINES",
    "group_table",
    "available_engines",
    "check_engine",
    "engine_semantics",
    "get_engine",
    "register_engine",
    "unregister_engine",
]

register_engine(NumpyEngine())
if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    register_engine(NumbaEngine())
    register_engine(NumbaDeepEngine())
