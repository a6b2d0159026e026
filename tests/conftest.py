"""The suite's independent oracle: an engine built on ``StarStencil.apply``.

The straight version the vectorised path is compared against: gathered
copies in, ``StarStencil.apply``, one write out — no inner routine shared
with :mod:`repro.engine`.  It doubles as the registered non-default
candidate wherever a test needs a second engine on a numba-free host.
"""

import pytest

from repro.engine import (HAVE_NUMBA, Engine, NumbaDeepEngine, get_engine,
                          register_engine, unregister_engine)


class OracleEngine(Engine):
    semantics = "vector-v2"

    def __init__(self, name):
        self.name = name

    def apply(self, stencil, storage, region, level):
        if region.is_empty:
            return
        gathered = [storage.gather(region, off, level - 1)
                    for off in stencil.offsets]
        storage.write(region, level, stencil.apply(
            storage.read(region, level - 1), gathered))

    def apply_padded(self, stencil, src, dst, lo, hi):
        def cells(off=(0, 0, 0)):
            return tuple(slice(1 + lo[d] + off[d], 1 + hi[d] + off[d])
                         for d in range(3))
        if all(h > l for l, h in zip(lo, hi)):
            dst[cells()] = stencil.apply(
                src[cells()], [src[cells(off)] for off in stencil.offsets])


@pytest.fixture
def oracle_engine():
    """``register(name)``: the oracle is a registered engine under
    ``name`` until the requesting test ends."""
    names = []

    def register(name):
        register_engine(OracleEngine(name))
        names.append(name)

    yield register
    for name in names:
        unregister_engine(name)


@pytest.fixture
def deep_engine():
    """The numba-deep engine, runnable with or without numba.

    With numba installed the registered engine is used as-is.  Without
    it, the engine class is instantiated around its *interpreted* loop
    body (``prange`` is plain ``range`` there) and registered for the
    test's duration: the per-cell operation sequence is the same either
    way, so this certifies the fused traversal — plane ordering,
    permuted axes, ring reads, destination writes — in a clean
    environment.
    """
    if HAVE_NUMBA:
        yield get_engine("numba-deep")
        return
    eng = object.__new__(NumbaDeepEngine)
    register_engine(eng)
    try:
        yield eng
    finally:
        unregister_engine("numba-deep")
