"""Extensions beyond the paper's core results: the neighbouring
undirected case ([HS01]/[MMG89] structure, [MR24b] round profile)."""

from .undirected import (
    UndirectedReport,
    branch_labels,
    crossing_edge_replacement_lengths,
    is_symmetric,
    ladder_instance,
    random_undirected_instance,
    solve_rpaths_undirected,
    symmetrize,
    undirected_replacement_lengths,
)

__all__ = [
    "UndirectedReport",
    "branch_labels",
    "crossing_edge_replacement_lengths",
    "is_symmetric",
    "ladder_instance",
    "random_undirected_instance",
    "solve_rpaths_undirected",
    "symmetrize",
    "undirected_replacement_lengths",
]
