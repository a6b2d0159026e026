"""Machine substrate: topology, shared-cache model, STREAM calibration.

This is the simulated replacement for the paper's physical Nehalem EP
test bed (see DESIGN.md §2 for the substitution argument).  The
quantities exposed here — ``Ms``, ``Ms,1``, ``Mc``, cache group size,
barrier and coherence costs — are exactly the inputs of the paper's
performance model (Sect. 1.4) and of the discrete-event simulator in
:mod:`repro.sim`.
"""

from .topology import CacheLevel, MachineSpec, GB, MB, KB, US
from .cache import EvictedBlock, SharedCacheModel
from .stream import StreamResult, host_stream_copy
from .presets import nehalem_ep

__all__ = [
    "CacheLevel",
    "MachineSpec",
    "GB",
    "MB",
    "KB",
    "US",
    "EvictedBlock",
    "SharedCacheModel",
    "StreamResult",
    "host_stream_copy",
    "nehalem_ep",
]
