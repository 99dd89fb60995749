"""Theorem 3: (1+ε)-Apx-RPaths for weighted directed graphs
(Section 7 — rounding, interval pipelining, scaled landmark BFS)."""

from .rounding import (
    Scale,
    epsilon_as_fraction,
    scale_ladder,
    scale_length,
    subdivided_hops,
)
from .approximators import ShortDetourTables, build_short_detour_tables
from .intervals import (
    combine_short_detours,
    distant_detours,
    interval_partition,
    nearby_detours,
)
from .short_detour_approx import short_detour_lengths_weighted
from .apx_rpaths import ApxRPathsReport, solve_apx_rpaths

__all__ = [
    "ApxRPathsReport",
    "Scale",
    "ShortDetourTables",
    "build_short_detour_tables",
    "combine_short_detours",
    "distant_detours",
    "epsilon_as_fraction",
    "interval_partition",
    "nearby_detours",
    "scale_ladder",
    "scale_length",
    "short_detour_lengths_weighted",
    "solve_apx_rpaths",
    "subdivided_hops",
]
