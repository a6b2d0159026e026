"""Performance rail: discrete-event simulation of the blocking schemes.

``simulate_pipelined`` runs the paper's schedule against the machine
model; ``standard_jacobi_mlups`` models the streaming baseline.  Both
return MLUP/s figures that ``repro.perf.figures`` assembles into the
paper's plots (Fig. 3, Fig. 6 single-node inputs).
"""

from .engine import Engine, Event
from .resources import Flow, FlowResource, waterfill_rates
from .costmodel import BlockTraffic, CodeBalance
from .des_pipeline import NodeSimReport, PipelinedNodeSim, simulate_pipelined
from .baseline_sim import BaselineReport, standard_jacobi_mlups

__all__ = [
    "Engine",
    "Event",
    "Flow",
    "FlowResource",
    "waterfill_rates",
    "CodeBalance",
    "BlockTraffic",
    "NodeSimReport",
    "PipelinedNodeSim",
    "simulate_pipelined",
    "BaselineReport",
    "standard_jacobi_mlups",
]
