"""Analytic models from the paper: Eqs. 4/5, Hockney, Fig. 5.

These are deliberately separate from the simulator so that the figure
scenarios can hold *model vs simulation vs paper* side by side — including where
the paper itself shows the model failing (T >= 2 in Fig. 3).
"""

from .pipeline_model import PipelineModel, nehalem_speedup_formula
from .network import NetworkModel, qdr_infiniband
from .halo_model import HaloModel, HaloPoint, fig5_parameters

__all__ = [
    "PipelineModel",
    "nehalem_speedup_formula",
    "NetworkModel",
    "qdr_infiniband",
    "HaloModel",
    "HaloPoint",
    "fig5_parameters",
]
