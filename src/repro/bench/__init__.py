"""Benchmark harness: the paper's experiment drivers, ablations and rendering."""

from .ablations import (
    ScalingPoint,
    lawa_scaling,
    materialization_cost,
    render_scaling,
    sort_strategies,
    window_bound,
)
from .figures import PAPER_SIZES, fig7, fig8, fig9a, fig9b, fig10, fig11, sample_relation
from .report import render_series, save_series_csv
from .runner import Measurement, SeriesResult, SweepRunner, time_setop
from .tables import PAPER_TABLE_IV, table2, table4

__all__ = [
    "Measurement",
    "PAPER_SIZES",
    "PAPER_TABLE_IV",
    "ScalingPoint",
    "SeriesResult",
    "SweepRunner",
    "fig10",
    "fig11",
    "fig7",
    "fig8",
    "fig9a",
    "fig9b",
    "lawa_scaling",
    "materialization_cost",
    "render_scaling",
    "render_series",
    "sample_relation",
    "save_series_csv",
    "sort_strategies",
    "table2",
    "table4",
    "time_setop",
    "window_bound",
]
