"""One (instance, algorithm) measurement — the runtime's inner loop.

The scenario catalog and ``repro compare`` funnel through
:func:`measure_algorithm`, and ``repro solve --check`` through its
oracle rule :func:`lengths_match`, so every harness counts rounds,
words, congestion, and oracle correctness the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..congest.words import INF
from ..graphs.instance import RPathsInstance

#: Algorithms the runtime knows how to drive.
ALGORITHMS = ("theorem1", "mr24b", "trivial", "apx", "two-sisp",
              "undirected")


@dataclass
class Measurement:
    """Ledger numbers plus the oracle verdict for one execution."""

    algorithm: str
    instance_name: str
    n: int
    m: int
    hop_count: int
    rounds: int
    messages: int
    words: int
    max_link_words: int
    violations: int
    correct: bool
    wall_time: float
    lengths: List[float] = field(default_factory=list, repr=False)
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def rounds_per_sec(self) -> float:
        """Fabric throughput of this execution (0.0 when untimed)."""
        if self.wall_time <= 0:
            return 0.0
        return self.rounds / self.wall_time

    def metrics(self) -> Dict[str, object]:
        """Flat JSON-safe metrics mapping (CellResult.metrics shape)."""
        out: Dict[str, object] = {
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m,
            "hop_count": self.hop_count,
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
            "max_link_words": self.max_link_words,
            "violations": self.violations,
            "correct": self.correct,
        }
        out.update(self.extras)
        return out


def lengths_match(lengths: Sequence[float], truth: Sequence[int],
                  epsilon: Optional[float] = None) -> bool:
    """The oracle verdict: ``lengths`` equal ``truth`` edge by edge, or
    with ``epsilon`` lie in ``[t, (1 + epsilon) t]``.

    A list of another length never matches (zip alone would pass a
    truncated one vacuously).
    """
    if len(lengths) != len(truth):
        return False
    if epsilon is None:
        return all((t >= INF and (x >= INF or x == float("inf"))) or
                   (t < INF and x == t)
                   for x, t in zip(lengths, truth))
    return all((t >= INF and x == float("inf")) or
               (t < INF and t - 1e-9 <= x <= (1 + epsilon) * t + 1e-9)
               for x, t in zip(lengths, truth))


def worst_ratio(lengths: Sequence[float], truth: Sequence[int]) -> float:
    """Worst finite computed/true ratio (1.0 when nothing is finite)."""
    worst = 1.0
    for got, want in zip(lengths, truth):
        if want < INF and got != float("inf"):
            worst = max(worst, got / want)
    return worst


def measure_algorithm(
    instance: RPathsInstance,
    algorithm: str,
    seed: int = 0,
    epsilon: Optional[float] = None,
    truth: Optional[Sequence[int]] = None,
    **solver_kwargs: object,
) -> Measurement:
    """Run ``algorithm`` on ``instance`` and package the measurement.

    ``truth`` (centralized replacement lengths) may be supplied to avoid
    recomputing the oracle when several algorithms share an instance.
    """
    from ..baselines.centralized import replacement_lengths, two_sisp_length

    start = time.perf_counter()
    extras: Dict[str, object] = {}
    if algorithm == "theorem1":
        from ..core.rpaths import solve_rpaths
        report = solve_rpaths(instance, seed=seed, **solver_kwargs)
        lengths = list(report.lengths)
        extras["landmark_count"] = report.landmark_count
        extras["short_rounds"] = report.phase_rounds("short-detour(P4.1)")
        extras["long_rounds"] = report.phase_rounds("long-detour(P5.1)")
    elif algorithm == "mr24b":
        from ..baselines.mr24 import solve_rpaths_mr24
        report = solve_rpaths_mr24(instance, seed=seed, **solver_kwargs)
        lengths = list(report.lengths)
    elif algorithm == "trivial":
        from ..baselines.naive_distributed import solve_rpaths_naive
        report = solve_rpaths_naive(instance, **solver_kwargs)
        lengths = list(report.lengths)
    elif algorithm == "apx":
        from ..approx.apx_rpaths import solve_apx_rpaths
        if epsilon is None:
            raise ValueError("algorithm 'apx' needs epsilon")
        report = solve_apx_rpaths(
            instance, epsilon=epsilon, seed=seed, **solver_kwargs)
        lengths = list(report.lengths)
        extras["epsilon"] = epsilon
        extras["scale_count"] = report.scale_count
    elif algorithm == "two-sisp":
        from ..core.two_sisp import solve_two_sisp
        report = solve_two_sisp(instance, seed=seed, **solver_kwargs)
        lengths = list(report.rpaths.lengths)
        extras["two_sisp_length"] = (
            report.length if report.exists else "inf")
        extras["two_sisp_exists"] = report.exists
    elif algorithm == "undirected":
        from ..extensions.undirected import solve_rpaths_undirected
        report = solve_rpaths_undirected(instance, **solver_kwargs)
        lengths = list(report.lengths)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"expected one of {ALGORITHMS}")
    wall = time.perf_counter() - start

    if algorithm == "undirected":
        from ..extensions.undirected import undirected_replacement_lengths
        truth = (list(truth) if truth is not None
                 else undirected_replacement_lengths(instance))
    elif truth is None:
        truth = replacement_lengths(instance)
    correct = lengths_match(
        lengths, truth, float(epsilon) if algorithm == "apx" else None)
    if algorithm == "apx":
        extras["worst_ratio"] = round(worst_ratio(lengths, truth), 6)
    if algorithm == "two-sisp":
        want = two_sisp_length(instance)
        got = report.length if report.exists else INF
        correct = correct and (got == min(want, INF)
                               or (got >= INF and want >= INF))

    ledger = (report.rpaths.ledger if algorithm == "two-sisp"
              else report.ledger)
    return Measurement(
        algorithm=algorithm,
        instance_name=instance.name,
        n=instance.n,
        m=instance.m,
        hop_count=instance.hop_count,
        rounds=ledger.rounds,
        messages=ledger.messages,
        words=ledger.words,
        max_link_words=ledger.max_link_words,
        violations=ledger.violations,
        correct=correct,
        wall_time=wall,
        lengths=lengths,
        extras=extras,
    )
