"""Engine registry: names -> :class:`~repro.engine.base.Engine` instances.

The registry is the dispatch point every layer shares: the pipelined
executor, the distributed rank bodies, the reference sweeps, the
serving layer's content keys and the perf harness all resolve engine
*names* here.  Built-in engines register at import; optional engines
(numba) register only when their dependency imports, so a clean
environment never sees them — but still gets a helpful error naming
the missing dependency instead of a bare ``KeyError``.

``"auto"`` is accepted wherever an engine name is: it names the first
registered engine of :data:`AUTO_ORDER` in the default engine's
semantics class, resolved when it is looked up (so
:class:`~repro.core.parameters.PipelineConfig` stores the concrete
name).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .base import Engine

__all__ = [
    "AUTO_ORDER",
    "DEFAULT_ENGINE",
    "KNOWN_ENGINES",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
    "engine_semantics",
    "check_engine",
]

#: The engine used when nothing is requested (today's vectorised gather).
DEFAULT_ENGINE = "numpy"

#: Every engine name this release knows about, available or not.  Names
#: outside this set are rejected with the list of valid choices; names
#: inside it that are *not* registered are optional engines whose
#: dependency is missing (see :data:`_OPTIONAL`).
KNOWN_ENGINES: Tuple[str, ...] = ("numpy", "numba", "numba-deep")

#: What ``engine="auto"`` means: the first of these that is registered
#: in the default engine's semantics class, so the choice can move
#: throughput but never result bits or a serve cache key.  The order is
#: a fixed rule and has not been measured against numpy on one host.
AUTO_ORDER: Tuple[str, ...] = ("numba-deep", "numba", "numpy")

#: Optional engines and the dependency that gates each.
_OPTIONAL: Dict[str, str] = {"numba": "numba", "numba-deep": "numba"}

_REGISTRY: Dict[str, Engine] = {}


def register_engine(engine: Engine, replace: bool = False) -> Engine:
    """Add ``engine`` under its :attr:`~Engine.name`; names are unique.

    Registration is per *process*.  The ``procmpi`` backend resolves
    engine names inside its rank processes, so a custom engine used on
    that backend must be registered at import time from a module the
    ranks also import (exactly like the spawn-pickling rule for rank
    functions, see the README) — a parent-only registration validates
    in :class:`PipelineConfig` but fails inside the spawned rank.
    Built-in engines register on ``import repro`` in every process.
    """
    if not engine.name or engine.name in ("abstract", "auto"):
        raise ValueError("engine must set a concrete name "
                         "('auto' names the AUTO_ORDER rule)")
    if engine.name in _REGISTRY and not replace:
        raise ValueError(f"engine {engine.name!r} already registered")
    _REGISTRY[engine.name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove an engine (mainly for tests registering stubs)."""
    _REGISTRY.pop(name, None)


def check_engine(name: str) -> str:
    """Validate an engine *name*; returns it with ``"auto"`` resolved.

    Used by :class:`~repro.core.parameters.PipelineConfig` for
    fail-fast construction: unknown names and known-but-unavailable
    optional engines both raise with an actionable message.
    """
    return get_engine(name).name


def get_engine(name: str) -> Engine:
    """Resolve a registered engine by name, with a helpful error."""
    if name == "auto":
        semantics = get_engine(DEFAULT_ENGINE).semantics
        name = next((n for n in AUTO_ORDER if n in _REGISTRY
                     and _REGISTRY[n].semantics == semantics),
                    DEFAULT_ENGINE)
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if name in _OPTIONAL and name in KNOWN_ENGINES:
        raise ValueError(
            f"engine {name!r} is not available: the optional dependency "
            f"{_OPTIONAL[name]!r} is not installed (engines available "
            f"here: {available_engines()})")
    raise ValueError(
        f"unknown engine {name!r}; choose from "
        f"{available_engines() + ('auto',)}")


def available_engines() -> Tuple[str, ...]:
    """Names of the engines registered in this process.

    Built-ins first in their canonical order, then custom registrations
    in registration order — a deterministic sequence, which the
    differential tests and the perf axes iterate.
    """
    builtin = [n for n in KNOWN_ENGINES if n in _REGISTRY]
    custom = [n for n in _REGISTRY if n not in KNOWN_ENGINES]
    return tuple(builtin + custom)


def engine_semantics(name: str) -> str:
    """The bit-semantics class of ``name`` (see :mod:`repro.serve.job`)."""
    return get_engine(name).semantics
