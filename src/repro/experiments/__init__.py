"""Experiment drivers reproducing the paper's tables and figures."""

from .figures import (
    FigureResult,
    fig1_2dbc_shapes,
    fig4_g2dbc_cost,
    fig5_lu_p23,
    fig6_lu_p39,
    fig7a_strong_scaling_lu,
    fig7b_strong_scaling_cholesky,
    fig9_gcrm_size_effect,
    fig10_symmetric_cost,
    fig11_cholesky_p31,
    fig12_cholesky_p35,
    performance_figure,
    table1a_lu_patterns,
    table1b_cholesky_patterns,
)
from .campaign import (
    CampaignCell,
    CampaignRow,
    format_campaign,
    plan_campaign,
    run_campaign,
)
from .harness import run_factorization

__all__ = [
    "CampaignCell",
    "CampaignRow",
    "FigureResult",
    "format_campaign",
    "performance_figure",
    "plan_campaign",
    "run_campaign",
    "run_factorization",
    "fig1_2dbc_shapes",
    "fig4_g2dbc_cost",
    "fig5_lu_p23",
    "fig6_lu_p39",
    "fig7a_strong_scaling_lu",
    "fig7b_strong_scaling_cholesky",
    "fig9_gcrm_size_effect",
    "fig10_symmetric_cost",
    "fig11_cholesky_p31",
    "fig12_cholesky_p35",
    "table1a_lu_patterns",
    "table1b_cholesky_patterns",
]
