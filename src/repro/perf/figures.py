"""Per-figure data-series generators (the experiment index of EXPERIMENTS.md).

Each function returns plain data structures.  The scenario registry
(:mod:`repro.perf.scenarios`) wraps each one, under its own name, per
suite scale (``fig3_left@quick`` etc.), ``python -m repro.perf report``
prints the resulting records, and ``tests/test_figures.py`` holds the
paper-shape bands over the same scenarios.

All pipelined performance numbers come from the calibrated DES on the
Nehalem EP model; the ``paper`` suite simulates 300^3 (same block
geometry as the paper's 600^3, quarter the wall-clock) — MLUP/s rates
are size-stable above ~250^3, which ``tests/test_sim_pipeline.py``
asserts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.parameters import BarrierSpec, PipelineConfig, RelaxedSpec, SyncSpec
from ..machine.presets import nehalem_ep
from ..models.halo_model import HaloModel, fig5_parameters
from ..models.pipeline_model import PipelineModel, nehalem_speedup_formula
from ..sim.baseline_sim import standard_jacobi_mlups
from ..sim.costmodel import CodeBalance
from ..sim.des_pipeline import simulate_pipelined

__all__ = [
    "fig3_left",
    "fig3_right",
    "fig5",
    "fig6",
    "model_validation",
    "ablation_team_delay",
    "ablation_block_size",
    "ablation_nt_stores",
]

BLOCK = (20, 20, 120)  # the paper's pipelined optimum (b_x ≈ 120)


def pipeline_cfg(teams: int, sync: SyncSpec, T: int = 2,
                 block: Tuple[int, int, int] = BLOCK,
                 storage: str = "compressed") -> PipelineConfig:
    """The paper's pipelined setup: t=4 threads per team (full socket)."""
    return PipelineConfig(teams=teams, threads_per_team=4,
                          updates_per_thread=T, block_size=block,
                          sync=sync, storage=storage)


def fig3_left(shape: Sequence[int]) -> Dict[str, Dict[str, float]]:
    """Fig. 3 (left): socket & node MLUP/s for the measured variants.

    Returns ``{"socket": {variant: mlups}, "node": {...}}`` including the
    Eq. 5 model markers for T=1 and T=2.
    """
    m = nehalem_ep()
    out: Dict[str, Dict[str, float]] = {}
    for label, teams in (("socket", 1), ("node", 2)):
        std = standard_jacobi_mlups(m, threads=4 * teams).mlups
        vals = {"standard Jacobi": std}
        variants = [
            ("pipeline w/ barrier", BarrierSpec(), 2),
            ("pipeline relaxed d_u=1 (lockstep)", RelaxedSpec(1, 1), 2),
            ("pipeline relaxed d_u=4", RelaxedSpec(1, 4), 2),
            ("pipeline relaxed T=1", RelaxedSpec(1, 4), 1),
        ]
        for name, sync, T in variants:
            vals[name] = simulate_pipelined(
                m, pipeline_cfg(teams, sync, T), shape).mlups
        model = PipelineModel.from_machine(m)
        vals["model T=1"] = nehalem_speedup_formula(1) * std
        vals["model T=2"] = nehalem_speedup_formula(2) * std
        vals["model T=1 (exact Eq.5)"] = model.speedup(4, 1) * std
        out[label] = vals
    return out


def fig3_right(shape: Sequence[int], loosenesses: Sequence[int],
               ) -> Dict[str, List[Tuple[int, float]]]:
    """Fig. 3 (right): performance vs pipeline looseness ``d_u - d_l``."""
    m = nehalem_ep()
    out: Dict[str, List[Tuple[int, float]]] = {}
    for label, teams in (("socket", 1), ("node", 2)):
        series = []
        for loose in loosenesses:
            sync = RelaxedSpec(1, 1 + loose)
            rep = simulate_pipelined(m, pipeline_cfg(teams, sync), shape)
            series.append((loose, rep.mlups / 1e3))  # GLUP/s like the paper
        out[label] = series
    return out


FIG5_L = (2, 3, 5, 8, 12, 20, 32, 50, 80, 128, 200, 320)  # Fig. 5's x axis


def fig5(h_values: Sequence[int],
         ) -> Dict[str, Dict[int, List[Tuple[int, float]]]]:
    """Fig. 5: multi-layer halo advantage and efficiency inset over the
    subdomain sizes :data:`FIG5_L`, in the paper's own accounting
    (message growth from ghost expansion neglected)."""
    base = fig5_parameters()
    hm = HaloModel(node_lups=base.node_lups, network=base.network,
                   expanded_messages=False)
    advantage = {h: hm.advantage_series(FIG5_L, h) for h in h_values}
    inset = {h: hm.efficiency_series(FIG5_L, h) for h in (2, 32)}
    return {"advantage": advantage, "efficiency": inset}


def fig6(node_counts: Sequence[int],
         ) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """Fig. 6: strong and weak scaling for the four measured variants."""
    # Imported lazily: fig6 is the only series that needs the distributed
    # rail, and the other generators should not hard-fail if repro.dist
    # (or a future real-MPI dep) is unavailable.
    from ..dist.cluster_sim import ClusterModel, fig6_variants

    cm = ClusterModel(nehalem_ep())
    out: Dict[str, Dict[str, List[Tuple[int, float]]]] = {
        "strong": {}, "weak": {}}
    for v in fig6_variants():
        for scaling in ("strong", "weak"):
            pts = cm.series(v, node_counts, scaling=scaling)
            out[scaling][v.name] = [(p.nodes, p.glups) for p in pts]
    ideal_std = cm.ideal(fig6_variants()[0], node_counts)
    ideal_pipe = cm.ideal(fig6_variants()[3], node_counts)
    out["strong"]["ideal standard"] = list(zip(node_counts, ideal_std))
    out["strong"]["ideal pipelined"] = list(zip(node_counts, ideal_pipe))
    return out


def model_validation(shape: Sequence[int], T_values: Sequence[int],
                     ) -> List[Dict[str, float]]:
    """E3: Eq. 5 prediction vs simulation per T (model fails at T >= 2)."""
    m = nehalem_ep()
    std = standard_jacobi_mlups(m, threads=4).mlups
    model = PipelineModel.from_machine(m)
    rows = []
    for T in T_values:
        sim = simulate_pipelined(m, pipeline_cfg(1, RelaxedSpec(1, 4), T),
                                 shape).mlups
        rows.append({
            "T": float(T),
            "model_speedup": model.speedup(4, T),
            "formula_16T": nehalem_speedup_formula(T),
            "model_mlups": model.speedup(4, T) * std,
            "sim_mlups": sim,
            "sim_speedup": sim / std,
        })
    return rows


def ablation_team_delay(shape: Sequence[int], delays: Sequence[int],
                        ) -> List[Tuple[int, float]]:
    """E7: team delay ``d_t`` sweep (paper: ≈3 % improvement at d_t=8)."""
    m = nehalem_ep()
    out = []
    for dt in delays:
        cfg = pipeline_cfg(2, RelaxedSpec(1, 4, team_delay=dt))
        out.append((dt, simulate_pipelined(m, cfg, shape).mlups))
    return out


def ablation_block_size(shape: Sequence[int], bx_values: Sequence[int],
                        ) -> List[Tuple[int, float, int]]:
    """E8: inner block length sweep; returns (b_x, mlups, reloads).

    Large blocks with loose pipelines overflow the shared cache —
    "d_u and the blocksize are strongly coupled".
    """
    m = nehalem_ep()
    out = []
    for bx in bx_values:
        cfg = pipeline_cfg(1, RelaxedSpec(1, 4), block=(20, 20, bx))
        rep = simulate_pipelined(m, cfg, shape)
        out.append((bx, rep.mlups, rep.reloads))
    return out


def ablation_nt_stores(shape: Sequence[int]) -> Dict[str, float]:
    """E9: NT stores & storage scheme under temporal blocking.

    NT stores leak every update's stores to memory ("unnecessary and even
    counterproductive"); the compressed grid halves the cache footprint.
    """
    m = nehalem_ep()
    out = {}
    for label, storage, nt in (("compressed", "compressed", False),
                               ("two-grid", "twogrid", False),
                               ("two-grid + NT stores", "twogrid", True)):
        cfg = pipeline_cfg(1, RelaxedSpec(1, 4), storage=storage)
        bal = CodeBalance.pipelined(storage, nt_stores=nt)
        out[label] = simulate_pipelined(m, cfg, shape, balance=bal).mlups
    return out
