"""The trivial O(h_st · T_SSSP) algorithm (Section 1.1 remark).

For each edge e of P in turn, run a fresh SSSP from s in G \\ e and let
t record its distance.  The paper notes this beats the Õ(n^{2/3}+D)
algorithm when h_st is small — our Table 1 / h_st benchmarks reproduce
exactly that crossover.

The per-edge SSSP here is a plain distributed BFS (unweighted graphs),
so the round cost is h_st × (BFS depth of G \\ e), sequentialised —
faithful to the trivial algorithm's schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..congest.bfs import bfs_distances
from ..congest.broadcast import broadcast_messages
from ..congest.metrics import RoundLedger
from ..congest.network import DEFAULT_FABRIC, resolve_fabric
from ..congest.spanning_tree import build_spanning_tree
from ..congest.words import clamp_inf
from ..graphs.instance import RPathsInstance


@dataclass
class NaiveReport:
    """Output of the trivial h_st × SSSP execution."""

    instance_name: str
    lengths: List[int]
    ledger: RoundLedger

    @property
    def rounds(self) -> int:
        return self.ledger.rounds


def solve_rpaths_naive(instance: RPathsInstance,
                       fabric: str = DEFAULT_FABRIC) -> NaiveReport:
    """Run the trivial algorithm; exact output, h_st-proportional rounds."""
    fabric = resolve_fabric(fabric)
    if instance.weighted:
        raise ValueError("the trivial baseline here targets unweighted "
                         "instances (the Section 1.1 remark's regime)")
    net = instance.build_network(fabric=fabric)
    tree = build_spanning_tree(net)
    lengths: List[int] = []
    with net.ledger.phase("naive(h_st x SSSP)"):
        for idx, edge in enumerate(instance.path_edges()):
            dist = bfs_distances(
                net, instance.s, direction="out",
                avoid_edges=frozenset([edge]),
                phase=f"sssp-avoiding-{idx}")
            # t announces the result to the first endpoint of the failed
            # edge via the tree (the output must live at v_i).
            broadcast_messages(
                net, tree,
                {instance.t: [("repl", idx, clamp_inf(dist[instance.t]))]},
                phase=f"report-{idx}")
            lengths.append(clamp_inf(dist[instance.t]))
    return NaiveReport(
        instance_name=instance.name,
        lengths=lengths,
        ledger=net.ledger,
    )
