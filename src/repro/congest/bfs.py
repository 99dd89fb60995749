"""Distributed breadth-first search primitives.

All functions here move real messages through
:meth:`~repro.congest.network.CongestNetwork.exchange`, so their round
cost is measured by the network's ledger, exactly as the CONGEST model
charges it.

Conventions
-----------
* ``direction="out"`` computes distances *from* the source following edge
  directions; ``direction="in"`` computes distances from every vertex *to*
  the source (a BFS along reversed edges, as used pervasively by the
  paper, e.g. the backward hop-constrained BFS of Lemma 4.2).
  :func:`bfs_tree` runs forward only.
* ``avoid_edges`` (:func:`bfs_distances` only) removes directed edges
  from consideration (the paper's ``G \\ P`` and ``G \\ e`` graphs) while
  the communication links remain — a failed or excluded edge can still
  carry messages in CONGEST.
* Unreachable vertices get distance :data:`~repro.congest.words.INF`.

Each function takes only the options a solver, a baseline or a
benchmark sets.  The hop-bounded BFS runs are
:func:`~repro.congest.multisource.multi_source_hop_bfs` and the pruned
BFS of :mod:`repro.core.hop_bfs`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .network import CongestNetwork
from .words import INF

EdgeSet = FrozenSet[Tuple[int, int]]

_EMPTY: EdgeSet = frozenset()


def _downstream_lists(net: CongestNetwork, direction: str,
                      avoid_edges: EdgeSet) -> List[List[int]]:
    """Per-vertex downstream adjacency, filtered once for the whole run.

    ``avoid_edges`` is fixed for the duration of a BFS, so hoisting the
    membership tests out of the round loop makes outbox construction a
    straight scan over prebuilt lists (batch-friendly: the fabric sees
    exactly the same messages, built with zero per-round set probes).
    """
    topo = net.topology
    if direction == "out":
        if not avoid_edges:
            return topo.out_lists
        return [[v for v in targets if (u, v) not in avoid_edges]
                for u, targets in enumerate(topo.out_lists)]
    if direction == "in":
        if not avoid_edges:
            return topo.in_lists
        return [[x for x in sources if (x, u) not in avoid_edges]
                for u, sources in enumerate(topo.in_lists)]
    raise ValueError(f"unknown direction {direction!r}")


def bfs_distances(
    net: CongestNetwork,
    source: int,
    direction: str = "out",
    avoid_edges: EdgeSet = _EMPTY,
    phase: Optional[str] = None,
) -> List[int]:
    """Single-source BFS; returns the hop-distance of every vertex.

    Rounds consumed: the depth explored.  One word per link per round —
    congestion-free by construction.
    """
    name = phase if phase is not None else f"bfs[{source}]"
    downstream = _downstream_lists(net, direction, avoid_edges)
    exchange = net.exchange
    with net.ledger.phase(name):
        dist = [INF] * net.n
        dist[source] = 0
        frontier = [source]
        depth = 0
        while frontier:
            outbox = {}
            for u in frontier:
                hops = downstream[u]
                if hops:
                    du = dist[u]
                    outbox[u] = [(v, du) for v in hops]
            if not outbox:
                break
            inbox = exchange(outbox)
            depth += 1
            frontier = []
            for v in inbox:
                if dist[v] >= INF:
                    dist[v] = depth
                    frontier.append(v)
        return dist


def bfs_tree(
    net: CongestNetwork,
    source: int,
    phase: Optional[str] = None,
) -> Tuple[List[int], List[int]]:
    """Forward BFS returning ``(dist, parent)``; parent[source] == source.

    Ties are broken toward the smallest sender identifier, matching the
    deterministic tie-breaking the paper's deterministic subroutines need.
    """
    name = phase if phase is not None else f"bfs-tree[{source}]"
    downstream = net.topology.out_lists
    exchange = net.exchange
    with net.ledger.phase(name):
        dist = [INF] * net.n
        parent = [-1] * net.n
        dist[source] = 0
        parent[source] = source
        frontier = [source]
        depth = 0
        while frontier:
            outbox = {}
            for u in frontier:
                hops = downstream[u]
                if hops:
                    outbox[u] = [(v, 0) for v in hops]
            if not outbox:
                break
            inbox = exchange(outbox)
            depth += 1
            frontier = []
            for v in sorted(inbox):
                if dist[v] >= INF:
                    dist[v] = depth
                    parent[v] = min(s for s, _ in inbox[v])
                    frontier.append(v)
        return dist, parent


def sssp_distances_weighted(
    net: CongestNetwork,
    source: int,
    direction: str = "out",
    phase: Optional[str] = None,
) -> List[int]:
    """Exact weighted SSSP by time-expanded BFS (one weight unit per round).

    A message crossing an edge of weight ``w`` is delayed ``w`` rounds, so
    after ``r`` rounds every vertex at weighted distance ≤ r is settled.
    This is the folklore O(weighted-diameter)-round exact algorithm; it is
    used by baselines and oracles, not by the paper's solvers (which use
    rounding, Section 7).

    Rounds consumed: the largest finite distance found.
    """
    name = phase if phase is not None else f"sssp[{source}]"
    weight = net.topology.weight
    downstream = [
        [(v, weight(u, v) if direction == "out" else weight(v, u))
         for v in hops]
        for u, hops in enumerate(_downstream_lists(net, direction, _EMPTY))
    ]
    exchange = net.exchange
    with net.ledger.phase(name):
        dist = [INF] * net.n
        dist[source] = 0
        # pending[r] = list of (vertex, dist) settling messages that become
        # visible to neighbors at round r.
        pending: Dict[int, List[int]] = {0: [source]}
        clock = 0
        horizon = 0
        while pending:
            settlers = pending.pop(clock, [])
            outbox = {}
            for u in settlers:
                du = dist[u]
                if du != clock:
                    continue  # superseded by a shorter path
                sends = [(v, (du, w)) for v, w in downstream[u]
                         if du + w < dist[v]]
                if sends:
                    outbox[u] = sends
            if outbox:
                inbox = exchange(outbox)
            else:
                inbox = {}
                if pending:
                    net.idle_round()
            clock += 1
            for v, arrivals in inbox.items():
                for _, (du, w) in arrivals:
                    candidate = du + w
                    if candidate < dist[v]:
                        dist[v] = candidate
                        arrival_round = candidate
                        pending.setdefault(arrival_round, []).append(v)
                        horizon = max(horizon, arrival_round)
            if not pending and clock <= horizon:
                break
        return dist
