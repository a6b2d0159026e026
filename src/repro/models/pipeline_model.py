"""Eqs. 4/5: the single-cache diagnostic performance model (Sect. 1.4).

Assumptions (quoted from the paper): the shared cache holds ``(t-1)*d_u``
blocks; the blocksize makes the cache supply one load and one store per
update; all data from memory streams through the shared cache; upper
cache levels are infinitely fast.  Then the ``t*T`` block updates of a
team sweep take::

    Tb = 16 B / Ms,1 * (1 + (t*T - 1) * Ms,1 / Mc)          (Eq. 4)

and the speedup over the standard Jacobi is::

    T0/Tb = (Ms,1 / Ms) * t*T / (1 + (t*T - 1) * Ms,1/Mc)   (Eq. 5)

with the large-``t*T`` limit ``Mc/Ms``.  On Nehalem (Ms/Ms,1 ≈ 2,
Mc/Ms,1 ≈ 8, t = 4) the speedup is ``16T / (7 + 4T)`` → 1.45 at T = 1.
The model is *diagnostic*: the paper shows it matches at T = 1 and fails
for larger T once execution decouples from memory bandwidth, which our
simulator reproduces (see ``tests/test_figures.py``, model_validation).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.topology import MachineSpec

__all__ = ["PipelineModel", "nehalem_speedup_formula"]


@dataclass(frozen=True)
class PipelineModel:
    """The paper's Eq. 4/5 model for one cache group.

    Parameters mirror Sect. 1.4: ``ms`` is the saturated socket bandwidth
    ``Ms``, ``ms1`` the single-thread bandwidth ``Ms,1`` and ``mc`` the
    multi-threaded shared-cache bandwidth ``Mc`` (bytes/s each).
    """

    ms: float
    ms1: float
    mc: float

    def __post_init__(self) -> None:
        if min(self.ms, self.ms1, self.mc) <= 0:
            raise ValueError("bandwidths must be positive")
        if self.ms1 > self.ms:
            raise ValueError("Ms,1 cannot exceed Ms")

    @staticmethod
    def from_machine(machine: MachineSpec) -> "PipelineModel":
        """Extract the three bandwidths from a machine spec."""
        return PipelineModel(ms=machine.mem_bw_socket,
                             ms1=machine.mem_bw_single,
                             mc=machine.shared_cache.bandwidth)

    def speedup(self, t: int, T: int) -> float:
        """Eq. 5: predicted speedup of pipelined blocking over standard."""
        if t < 1 or T < 1:
            raise ValueError("t and T must be >= 1")
        tT = t * T
        return (self.ms1 / self.ms) * tT / (1.0 + (tT - 1) * self.ms1 / self.mc)


def nehalem_speedup_formula(T: int) -> float:
    """The paper's closed form for Nehalem at t = 4: ``16T / (7 + 4T)``.

    Derived from Eq. 5 with ``Ms/Ms,1 = 2`` and ``Mc/Ms,1 = 8``; equals
    1.4545… at T = 1, as quoted ("or 1.45 at T = 1").
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    return 16.0 * T / (7.0 + 4.0 * T)
