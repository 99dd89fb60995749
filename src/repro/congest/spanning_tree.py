"""Distributed construction of a BFS spanning tree.

The paper (and [Pel00]) uses a breadth-first spanning tree of the
communication graph as the backbone for broadcast (Lemma 2.4) and
convergecast.  Building it costs O(D) rounds: a flood from the root where
each vertex adopts the first sender it hears as its parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .dispatch import dispatch
from .errors import CongestError
from .network import CongestNetwork
from .words import words_of


@dataclass
class SpanningTree:
    """A rooted spanning tree of the communication graph.

    Attributes
    ----------
    root:
        The root vertex (the elected leader; vertex 0 by convention).
    parent:
        ``parent[v]`` is v's tree parent; ``parent[root] == root``.
    children:
        ``children[v]`` lists v's tree children (sorted).
    depth:
        ``depth[v]`` is the hop distance from the root.
    _tour:
        The Euler tour the vector broadcasts cache (not compared).
    """

    root: int
    parent: List[int]
    children: List[List[int]]
    depth: List[int]
    _tour: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def height(self) -> int:
        return max(self.depth)

    def tree_neighbors(self, v: int) -> List[int]:
        """Tree-adjacent vertices of ``v`` (parent plus children)."""
        if v == self.root:
            return list(self.children[v])
        return [self.parent[v]] + list(self.children[v])

    def verify(self) -> None:
        """Raise if the structure is not a spanning tree."""
        n = len(self.parent)
        seen = 0
        for v in range(n):
            if v == self.root:
                if self.parent[v] != v or self.depth[v] != 0:
                    raise CongestError("malformed root")
                seen += 1
                continue
            p = self.parent[v]
            if p < 0:
                raise CongestError(f"vertex {v} is not in the tree")
            if self.depth[v] != self.depth[p] + 1:
                raise CongestError(f"depth invariant broken at {v}")
            if v not in self.children[p]:
                raise CongestError(f"child link missing for {v}")
            seen += 1
        if seen != n:
            raise CongestError("tree does not span all vertices")


def build_spanning_tree(
    net: CongestNetwork,
    root: int = 0,
    phase: Optional[str] = None,
) -> SpanningTree:
    """Build a BFS spanning tree by flooding from ``root``.

    Rounds: the eccentricity of ``root`` plus one confirmation round per
    level (children announce themselves to their chosen parent), so O(D)
    in total.
    """
    name = phase if phase is not None else "spanning-tree"
    parent, depth = dispatch("spanning_tree", net, root=root, name=name)
    if min(parent) < 0:
        raise CongestError(
            "communication graph is disconnected; no spanning tree")
    children: List[List[int]] = [[] for _ in range(net.n)]
    for v in range(net.n):
        if v != root:
            children[parent[v]].append(v)
    tree = SpanningTree(root=root, parent=parent,
                        children=children, depth=depth)
    tree.verify()
    return tree


def _flood_message(net: CongestNetwork, root: int,
                   name: str) -> Tuple[List[int], List[int]]:
    """The offer/confirm flood rounds (the registry's fallback lane).

    Opens phase ``name`` and returns ``(parent, depth)`` with ``-1``
    marking unreached vertices; :func:`build_spanning_tree` raises the
    disconnection error and assembles/verifies the tree, identically
    for both lanes.
    """
    nbr_lists = net.topology.nbr_lists
    exchange = net.exchange
    with net.ledger.phase(name):
        parent = [-1] * net.n
        depth = [-1] * net.n
        parent[root] = root
        depth[root] = 0
        frontier = [root]
        offer = ("offer",)
        adopt = ("adopt",)
        while frontier:
            # Level announcement: frontier vertices offer parenthood.
            outbox = {}
            for u in frontier:
                offers = [(v, offer) for v in nbr_lists[u]
                          if parent[v] < 0]
                if offers:
                    outbox[u] = offers
            if not outbox:
                break
            inbox = exchange(outbox)
            # Adoption: each newly reached vertex picks the smallest
            # offering neighbor and confirms (one more round).
            adopted = {}
            for v in sorted(inbox):
                if parent[v] >= 0:
                    continue
                chosen = min(s for s, _ in inbox[v])
                parent[v] = chosen
                adopted[v] = chosen
            if adopted:
                confirm = {v: [(p, adopt)] for v, p in adopted.items()}
                confirm_inbox = exchange(confirm)
                for p, arrivals in confirm_inbox.items():
                    for child, _ in arrivals:
                        depth[child] = depth[p] + 1
            frontier = sorted(adopted)
        return parent, depth


def replay_spanning_tree_charges(
    net: CongestNetwork,
    tree: SpanningTree,
    phase: Optional[str] = None,
) -> None:
    """Charge the ledger exactly as rebuilding ``tree`` on ``net`` would.

    The BFS flood is deterministic on a frozen topology, so its
    per-round charges are a pure function of the topology and the BFS
    layering: level ℓ costs one offers round (one 1-word message per
    (depth-ℓ vertex, depth-(ℓ+1) neighbor) link — every not-yet-reached
    neighbor of a frontier vertex sits exactly one level deeper) and
    one confirmation round (one 1-word message per level-(ℓ+1) vertex).
    Callers that already hold the tree for this topology (Corollary
    6.2's 2-SiSP aggregation reuses the solver's tree) replay the
    charges instead of re-flooding, keeping ledgers bit-identical to a
    rebuild at none of the cost: the phase holds aggregates only, so
    the 2·height rounds are one bulk charge.  Assumes a non-strict
    network (the 1-word control messages cannot overload any real
    budget).
    """
    name = phase if phase is not None else "spanning-tree"
    nbr_lists = net.topology.nbr_lists
    depth = tree.depth
    sent = net.n - 1 + sum(depth[v] == depth[u] + 1
                           for u in range(net.n) for v in nbr_lists[u])
    size = words_of(("offer",))
    with net.ledger.phase(name):
        net.ledger.charge_rounds(2 * tree.height, sent, sent * size, size,
                                 sent if size > net.bandwidth_words else 0)
