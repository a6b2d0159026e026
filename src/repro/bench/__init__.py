"""Benchmark harness: per-figure data generators + ASCII reporting."""

from ..text import banner, format_series, format_table, ratio
from .figures import (
    DEFAULT_SIM_SHAPE,
    ablation_block_size,
    ablation_nt_stores,
    ablation_team_delay,
    fig3_left,
    fig3_right,
    fig5_series,
    fig6_series,
    model_validation,
    pipeline_cfg,
)

__all__ = [
    "banner",
    "format_table",
    "format_series",
    "ratio",
    "DEFAULT_SIM_SHAPE",
    "fig3_left",
    "fig3_right",
    "fig5_series",
    "fig6_series",
    "model_validation",
    "ablation_team_delay",
    "ablation_block_size",
    "ablation_nt_stores",
    "pipeline_cfg",
]
