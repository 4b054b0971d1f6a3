"""Reporting helpers: per-rank breakdowns, parameter sweeps, text tables."""

from .breakdown import (
    RankBreakdown,
    breakdown_chart,
    breakdown_table,
    per_rank_breakdown,
    record_breakdown_table,
)
from .reporting import format_bar_chart, format_grid, format_table, mebibytes, seconds
from .sweep import ConfigPoint, ScalingPoint, mpi_omp_configurations

__all__ = [
    "RankBreakdown",
    "breakdown_chart",
    "breakdown_table",
    "per_rank_breakdown",
    "record_breakdown_table",
    "format_bar_chart",
    "format_grid",
    "format_table",
    "mebibytes",
    "seconds",
    "ConfigPoint",
    "ScalingPoint",
    "mpi_omp_configurations",
]
