"""Latency/bandwidth (Hockney) network model for the cluster rail.

Sect. 2.1 sets "the parameters for a QDR-InfiniBand network here, with an
asymptotic (large-message) unidirectional bandwidth of 3.2 GB/s and a
latency of 1.8 µs".  The paper further notes (Sect. 2.2) that copying
halo data between boundary cells and message buffers "causes about the
same overhead as the actual data transfer", which the ``copy_factor``
models, and that the MPI library supported no asynchronous transfers —
communication never overlaps computation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkModel", "qdr_infiniband"]


@dataclass(frozen=True)
class NetworkModel:
    """Hockney model ``t(m) = latency + m / bandwidth`` plus buffer copies.

    Parameters
    ----------
    latency:
        Per-message startup in seconds.
    bandwidth:
        Asymptotic unidirectional bandwidth in bytes/s.
    copy_factor:
        Extra time per byte for packing/unpacking message buffers,
        expressed as a multiple of the wire byte time (1.0 = copying costs
        as much as the transfer, the paper's profiling result; 0 disables).
    """

    latency: float = 1.8e-6
    bandwidth: float = 3.2e9
    copy_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0 or self.copy_factor < 0:
            raise ValueError("invalid network parameters")

    def message_time(self, nbytes: float) -> float:
        """Time to move one message of ``nbytes`` (incl. buffer copies)."""
        if nbytes < 0:
            raise ValueError("negative message size")
        wire = nbytes / self.bandwidth
        return self.latency + wire * (1.0 + self.copy_factor)

    def exchange_time(self, nbytes_per_direction: float,
                      messages: int = 2) -> float:
        """Time for a (bidirectional) face exchange of ``messages`` messages.

        The paper's code has no overlap, so both directions serialise on
        the NIC: two messages of ``nbytes`` each.
        """
        return messages * self.message_time(nbytes_per_direction)


def qdr_infiniband(copy_factor: float = 0.0) -> NetworkModel:
    """The paper's QDR-IB parameters (3.2 GB/s, 1.8 µs)."""
    return NetworkModel(latency=1.8e-6, bandwidth=3.2e9,
                        copy_factor=copy_factor)
