"""repro — reproduction of "Optimal Distributed Replacement Paths"
(Chang, Chen, Dey, Mishra, Nguyen, Sanchez; PODC 2025).

Public API quick reference
--------------------------
``solve_rpaths(instance)``
    Theorem 1: exact RPaths on unweighted directed graphs in
    Õ(n^{2/3} + D) CONGEST rounds (measured, not assumed).
``solve_apx_rpaths(instance, epsilon)``
    Theorem 3: (1+ε)-approximate RPaths on weighted directed graphs.
``solve_two_sisp(instance)``
    Definition 2.3: the second simple shortest path length.
``graphs.*``
    Instance generators for every experimental regime.
``baselines.*``
    Centralized oracle, the trivial h_st × SSSP algorithm, and the
    MR24b-style algorithm the paper improves on.
``lowerbound.*``
    The Section 6 constructions and the disjointness → 2-SiSP reduction,
    executable end-to-end.
``runtime.*``
    The experiment engine: declarative scenario registry, parallel
    cell executor, and the content-addressed result cache behind
    ``python -m repro suite``.

See DESIGN.md for the full system inventory, the runtime quickstart,
and where each paper claim is checked.
"""

from .congest.words import INF, is_unreachable
from .congest.metrics import RoundLedger
from .congest.network import CongestNetwork
from .graphs.instance import RPathsInstance, instance_from_edges
from .core.rpaths import RPathsReport, default_zeta, solve_rpaths
from .core.two_sisp import TwoSispReport, solve_two_sisp

__version__ = "1.0.0"

__all__ = [
    "CongestNetwork",
    "INF",
    "RPathsInstance",
    "RPathsReport",
    "RoundLedger",
    "TwoSispReport",
    "default_zeta",
    "instance_from_edges",
    "is_unreachable",
    "solve_apx_rpaths",
    "solve_rpaths",
    "solve_two_sisp",
]


def solve_apx_rpaths(instance, epsilon=0.25, **kwargs):
    """Theorem 3 entry point (lazy import to keep startup light)."""
    from .approx.apx_rpaths import solve_apx_rpaths as _solve
    return _solve(instance, epsilon=epsilon, **kwargs)
