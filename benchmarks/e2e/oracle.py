"""Correctness oracle: every operation is checked, outside the timed region.

An operation fails if it raised, if its field is not ``array_equal`` to
the first result obtained for the same input (backends, cache hits and
repeats are bit-identical by contract), or if that first result is not
``allclose(rtol=0, atol=1e-12)`` to ``repro.reference_sweeps``.  A fast
wrong field is the failure mode of every transformation the roadmap
proposes, so nothing is sampled: all operations are counted.
"""

from __future__ import annotations

from typing import Dict, Hashable

import numpy as np

ATOL = 1e-12


class Oracle:
    """Counts attempted and failed operations, keyed by input."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._first: Dict[Hashable, np.ndarray] = {}
        # Operations that matched the first result: right iff it is.
        self._matched: Dict[Hashable, int] = {}

    def prime(self, key: Hashable, field: np.ndarray) -> None:
        """Register a set-up result (e.g. a cold solve) without counting it."""
        self._first[key] = np.array(field, copy=True)
        self._matched[key] = 0

    def raised(self) -> None:
        """An operation that raised is a failed operation, not a crash."""
        self.attempted += 1
        self.failed += 1

    def observe(self, key: Hashable, field: np.ndarray) -> None:
        self.attempted += 1
        first = self._first.get(key)
        if first is None:
            self._first[key] = np.array(field, copy=True)
            self._matched[key] = 1
        elif first.shape == field.shape and np.array_equal(first, field):
            self._matched[key] += 1
        else:
            self.failed += 1

    def settle(self, key: Hashable, reference: np.ndarray) -> None:
        """Judge ``key``'s first result against the reference and drop it."""
        first = self._first.pop(key)
        matched = self._matched.pop(key)
        if not (first.shape == reference.shape
                and np.allclose(first, reference, rtol=0.0, atol=ATOL)):
            self.failed += matched

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` has a first result still awaiting its reference."""
        return key in self._first
