"""Measurement analysis: power-law fits, claim values, tables."""

from .scaling import (
    PowerLawFit,
    fit_power_law,
    power_law_r2,
    power_law_slope,
    smallest_step,
    worst,
)
from .tables import format_records, format_table

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "format_records",
    "format_table",
    "power_law_r2",
    "power_law_slope",
    "smallest_step",
    "worst",
]
