"""Theorem 1 — the Õ(n^{2/3} + D)-round RPaths solver.

``solve_rpaths`` runs, on a fresh CONGEST network for the instance:

1. Lemma 2.5 knowledge acquisition (Õ(√n + D) rounds);
2. Proposition 4.1, short detours (O(ζ) deterministic rounds);
3. Proposition 5.1, long detours (Õ(n^{2/3} + D) randomized rounds);
4. the pointwise minimum of the two outputs (local).

With ζ = n^{2/3} (the default), the total is Õ(n^{2/3} + D) rounds, and
the answer is exact w.h.p. — tests compare against the centralized
oracle on every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..congest.metrics import RoundLedger
from ..congest.network import DEFAULT_FABRIC, resolve_fabric
from ..congest.spanning_tree import build_spanning_tree
from ..congest.words import INF
from ..graphs.instance import RPathsInstance
from .knowledge import acquire_path_knowledge, oracle_knowledge
from .landmarks import landmark_set
from .long_detour import long_detour_lengths
from .short_detour import short_detour_lengths


def default_zeta(n: int) -> int:
    """The paper's threshold ζ = n^{2/3} (Section 2)."""
    return max(1, math.ceil(n ** (2.0 / 3.0)))


@dataclass
class RPathsReport:
    """Output of a distributed RPaths execution.

    ``lengths[i]`` is the computed |st ⋄ (v_i, v_{i+1})| (INF when no
    replacement path exists).  The ledger exposes per-phase round
    breakdowns; convenience properties surface the headline numbers.
    """

    instance_name: str
    lengths: List[int]
    ledger: RoundLedger
    zeta: int
    landmark_count: int = 0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.ledger.rounds

    @property
    def messages(self) -> int:
        return self.ledger.messages

    @property
    def max_link_words(self) -> int:
        return self.ledger.max_link_words

    def phase_rounds(self, name: str) -> int:
        return self.ledger[name].rounds if name in self.ledger else 0


def solve_rpaths(
    instance: RPathsInstance,
    zeta: Optional[int] = None,
    seed: int = 0,
    landmarks: Optional[Sequence[int]] = None,
    landmark_c: float = 2.0,
    use_oracle_knowledge: bool = False,
    bandwidth_words: Optional[int] = None,
    fabric: str = DEFAULT_FABRIC,
) -> RPathsReport:
    """Theorem 1: solve unweighted directed RPaths on the instance.

    Parameters
    ----------
    zeta:
        Short/long detour threshold; defaults to n^{2/3}.
    landmarks:
        Explicit landmark set overriding Definition 5.2 sampling (tests
        use the full vertex set for deterministic exactness).
    use_oracle_knowledge:
        Skip the Lemma 2.5 phase and grant its output for free — used by
        unit tests to isolate later stages; end-to-end runs leave this
        False.
    fabric:
        Exchange engine (default ``"vector"``; see ``FABRICS``); the
        fabric equivalence tests run the full solver on each.
    """
    if instance.weighted:
        raise ValueError(
            "Theorem 1 targets unweighted graphs; use approx.apx_rpaths "
            "for weighted instances (Theorem 3)")
    fabric = resolve_fabric(fabric)
    if zeta is None:
        zeta = default_zeta(instance.n)

    with telemetry.span("solve/rpaths", instance=instance.name,
                        n=instance.n, fabric=fabric,
                        zeta=zeta) as sp:
        net = instance.build_network(bandwidth_words=bandwidth_words,
                                     fabric=fabric)
        sp.set_ledger(net.ledger)
        tree = build_spanning_tree(net)
        if use_oracle_knowledge:
            knowledge = oracle_knowledge(instance)
        else:
            knowledge = acquire_path_knowledge(
                instance, net, tree=tree, seed=seed)

        short = short_detour_lengths(instance, net, knowledge, zeta)
        landmarks = landmark_set(instance.n, zeta, landmarks,
                                 c=landmark_c, seed=seed + 1)
        long_ = long_detour_lengths(
            instance, net, tree, knowledge, zeta, landmarks=landmarks)

        lengths = [min(a, b) for a, b in zip(short, long_)]
    report = RPathsReport(
        instance_name=instance.name,
        lengths=[x if x < INF else INF for x in lengths],
        ledger=net.ledger,
        zeta=zeta,
        landmark_count=len(landmarks),
        extras={"short": short, "long": long_},
    )
    return report
