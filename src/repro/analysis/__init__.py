"""Analysis utilities: complexity fits, statistics, experiment tables."""

from .complexity import (
    BOUNDS,
    FitResult,
    bound_value,
    fit_constant,
    is_sublinear_in,
    ratio_series,
)
from .experiments import ConstructionMeasurement, run_construction_measurement
from .reporting import ExperimentTable, format_cell, format_table
from .stats import Summary, mean, median, percentile, stdev, summarize

__all__ = [
    "BOUNDS",
    "ConstructionMeasurement",
    "ExperimentTable",
    "FitResult",
    "Summary",
    "bound_value",
    "fit_constant",
    "format_cell",
    "format_table",
    "is_sublinear_in",
    "mean",
    "median",
    "percentile",
    "ratio_series",
    "run_construction_measurement",
    "stdev",
    "summarize",
]
