"""Definition 2.3 / Corollary 6.2 — the 2-SiSP problem.

The second simple shortest path length is min_e |st ⋄ e| over the edges
of P.  Given an RPaths execution, an O(D)-round convergecast-min over a
spanning tree (plus a downcast so *all* vertices of P learn the value,
as Definition 2.3 requires) finishes the job — exactly the "additional
O(D) rounds" the reduction in Corollary 6.2 charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .. import telemetry
from ..congest.broadcast import global_min
from ..congest.network import DEFAULT_FABRIC, resolve_fabric
from ..congest.spanning_tree import (
    SpanningTree,
    build_spanning_tree,
    replay_spanning_tree_charges,
)
from ..congest.words import INF
from ..graphs.instance import RPathsInstance
from .rpaths import RPathsReport, solve_rpaths


@dataclass
class TwoSispReport:
    """Result of a distributed 2-SiSP execution."""

    length: int
    rpaths: RPathsReport

    @property
    def rounds(self) -> int:
        return self.rpaths.rounds

    @property
    def exists(self) -> bool:
        return self.length < INF


def solve_two_sisp(
    instance: RPathsInstance,
    zeta: Optional[int] = None,
    seed: int = 0,
    landmarks: Optional[Sequence[int]] = None,
    landmark_c: float = 2.0,
    use_oracle_knowledge: bool = False,
    fabric: str = DEFAULT_FABRIC,
) -> TwoSispReport:
    """Solve 2-SiSP: RPaths (Theorem 1) + an O(D) aggregation.

    The aggregation genuinely runs on the same ledger, so the reported
    round count covers the full Corollary 6.2 pipeline.
    """
    fabric = resolve_fabric(fabric)
    with telemetry.span("solve/two-sisp", instance=instance.name,
                        n=instance.n, fabric=fabric) as sp:
        report = solve_rpaths(
            instance, zeta=zeta, seed=seed, landmarks=landmarks,
            landmark_c=landmark_c,
            use_oracle_knowledge=use_oracle_knowledge,
            fabric=fabric)
        sp.set_ledger(report.ledger, fresh=True)
        # Re-create the network topology on the same ledger for the
        # final aggregation (solve_rpaths owns its network; the O(D)
        # tree setup is what the corollary's reduction pays).  The
        # solver already built the BFS tree of this very topology, so
        # reuse it and replay the identical flood charges instead of
        # re-running the construction.
        net = instance.build_network(fabric=fabric)
        net.ledger = report.ledger
        tree = report.extras.get("tree")
        if isinstance(tree, SpanningTree) and len(tree.parent) == net.n:
            replay_spanning_tree_charges(net, tree, phase="2sisp-tree")
        else:  # pragma: no cover - defensive (reports carry a tree)
            tree = build_spanning_tree(net, phase="2sisp-tree")
        values = {
            instance.path[i]: report.lengths[i]
            for i in range(instance.hop_count)
        }
        with net.ledger.phase("2sisp-aggregate(C6.2)"):
            best = global_min(net, tree, values, identity=INF)
    return TwoSispReport(length=min(best, INF), rpaths=report)
