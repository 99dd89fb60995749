"""Lemma 6.9 — reducing set disjointness to 2-SiSP, run end-to-end.

Given Alice's x ∈ {0,1}^{k²} and Bob's y ∈ {0,1}^{k²}:

1. view y as the matrix M and x as the exit gates, build
   G(k, d, p, φ, M, x);
2. run *our own distributed 2-SiSP solver* (Theorem 1 + Corollary 6.2)
   on the instance;
3. output disj(x, y) = 0 iff the second simple shortest path has length
   exactly L_opt(k, d, p).

A correct 2-SiSP algorithm therefore decides disjointness, which is what
Proposition 6.1 converts (via Lemmas 6.4–6.7) into the Ω̃(n^{2/3}) round
lower bound.  Running the reduction through the simulator both validates
the construction and exhibits the information flow the simulation lemma
bounds (see :mod:`~repro.lowerbound.cut_analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..congest.network import DEFAULT_FABRIC
from ..core.two_sisp import solve_two_sisp
from .disjointness import disjointness
from .hard_instance import (
    build_hard_instance,
    expected_optimal_length,
)


@dataclass
class ReductionReport:
    """Outcome of one disjointness-via-2-SiSP run."""

    k: int
    d: int
    p: int
    expected: int           # disj(x, y) computed directly
    decided: int            # disj(x, y) decoded from 2-SiSP
    two_sisp_length: int
    optimal_length: int
    rounds: int
    n: int
    #: Ledger totals of the 2-SiSP run, beside its ``rounds``.
    messages: int
    words: int
    max_link_words: int
    violations: int

    @property
    def correct(self) -> bool:
        return self.expected == self.decided


def bits_to_matrix(y: Sequence[int], k: int) -> List[List[int]]:
    """Bob's lexicographic map y → M (row-major, matching φ)."""
    if len(y) != k * k:
        raise ValueError("y must have k² bits")
    return [[int(y[a * k + b]) for b in range(k)] for a in range(k)]


def decide_disjointness_via_two_sisp(
    x: Sequence[int],
    y: Sequence[int],
    k: int,
    d: int = 2,
    p: int = 1,
    seed: int = 0,
    landmarks: Optional[Sequence[int]] = None,
    use_oracle_knowledge: bool = False,
    fabric: str = DEFAULT_FABRIC,
) -> ReductionReport:
    """Run the full Lemma 6.9 pipeline through the CONGEST simulator."""
    matrix = bits_to_matrix(y, k)
    hard = build_hard_instance(k, d, p, matrix, list(x))
    if landmarks is None:
        # Deterministic exactness for the decision: landmark every
        # vertex (the reduction argues about *correct* algorithms).
        landmarks = list(range(hard.n))
    result = solve_two_sisp(
        hard.instance, seed=seed, landmarks=landmarks,
        use_oracle_knowledge=use_oracle_knowledge, fabric=fabric)
    optimal = expected_optimal_length(k, d, p)
    decided = 0 if result.length == optimal else 1
    ledger = result.rpaths.ledger
    return ReductionReport(
        k=k, d=d, p=p,
        expected=disjointness(x, y),
        decided=decided,
        two_sisp_length=result.length,
        optimal_length=optimal,
        rounds=result.rounds,
        n=hard.n,
        messages=ledger.messages,
        words=ledger.words,
        max_link_words=ledger.max_link_words,
        violations=ledger.violations,
    )
