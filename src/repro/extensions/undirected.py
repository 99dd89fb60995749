"""Extension: RPaths on *undirected* graphs — the Table 1 neighbours.

The paper's landscape (Section 1 and the conclusions) contrasts its
directed Θ̃(n^{2/3}+D) bound with the undirected case, where Manoharan
and Ramachandran [MR24b] give an O(T_SSSP + h_st)-round algorithm that
nearly matches the Ω̃(√n + D) lower bound.  This module builds that
neighbouring system:

* the classical **crossing-edge structure** of Hershberger–Suri [HS01]
  and Malik–Mittal–Gupta [MMG89]: removing the i-th path edge from the
  shortest-path tree rooted at s splits V into L_i (s's side: vertices
  whose tree path branches off P at position ≤ i) and R_i; the
  replacement length is

      repl(i) = min over edges {x, y} with branch(x) ≤ i < branch(y)
                of  d_s(x) + w(x, y) + d_t(y);

* a **centralized** evaluator of that formula (tested against the
  per-edge-deletion oracle), and

* a **distributed** O(T_SSSP + h_st + D)-round algorithm matching the
  [MR24b] round profile: two SSSP computations, an O(D) branch-label
  downcast, one candidate exchange across every edge, and the
  pipelined staggered convergecast (h_st waves, O(h_st + D) rounds)
  followed by a Lemma 2.4 broadcast of the h_st results.

Undirected graphs are represented as symmetric digraphs (both
orientations present with equal weight); deleting the undirected edge
{v_i, v_{i+1}} removes both orientations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..congest.bfs import bfs_tree, sssp_distances_weighted
from ..congest.broadcast import (
    broadcast_messages,
    staggered_convergecast_min,
)
from ..congest.errors import InvalidInstanceError
from ..congest.metrics import RoundLedger
from ..congest.network import DEFAULT_FABRIC, resolve_fabric
from ..congest.spanning_tree import build_spanning_tree
from ..congest.words import INF, clamp_inf
from ..graphs.instance import RPathsInstance


def symmetrize(edges, weights=None) -> List[Tuple[int, int, int]]:
    """Both orientations of every undirected edge, deduplicated."""
    out: Dict[Tuple[int, int], int] = {}
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = (weights or {}).get((u, v),
                                    (weights or {}).get((v, u), 1))
        else:
            u, v, w = edge
        out[(u, v)] = w
        out[(v, u)] = w
    return [(u, v, w) for (u, v), w in sorted(out.items())]


def is_symmetric(instance: RPathsInstance) -> bool:
    """Whether every directed edge has an equal-weight reverse twin."""
    weights = instance.edge_weight_map()
    return all(weights.get((v, u)) == w for (u, v), w in weights.items())


def require_undirected(instance: RPathsInstance) -> None:
    if not is_symmetric(instance):
        raise InvalidInstanceError(
            "undirected RPaths needs a symmetric instance "
            "(build with symmetrize())")


def undirected_edge_pair(u: int, v: int):
    return frozenset([(u, v), (v, u)])


# -- centralized oracle and crossing-edge evaluator -----------------------


def undirected_replacement_lengths(
    instance: RPathsInstance,
) -> List[int]:
    """Ground truth: delete *both* orientations of each P-edge."""
    require_undirected(instance)
    out = []
    for u, v in instance.path_edges():
        dist = instance.dijkstra(
            instance.s, avoid_edges=undirected_edge_pair(u, v))
        out.append(clamp_inf(dist[instance.t]))
    return out


def _sssp_with_parents(instance: RPathsInstance, source: int,
                       ) -> Tuple[List[int], List[int]]:
    import heapq
    adj = instance.adjacency()
    dist = [INF] * instance.n
    parent = [-1] * instance.n
    dist[source] = 0
    parent[source] = source
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] or (nd == dist[v] and u < parent[v]):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def branch_labels(instance: RPathsInstance,
                  parent: List[int]) -> List[int]:
    """branch(v): position of the last P-vertex on v's tree path from s.

    The shortest-path tree is made P-respecting by the parent
    tie-breaking (P-vertices prefer their P predecessor: validation
    guarantees P prefixes are shortest, and the tie-break by smaller
    parent id is overridden here explicitly for P vertices).
    """
    labels = [-1] * instance.n
    for i, v in enumerate(instance.path):
        labels[v] = i
    for v in range(instance.n):
        if parent[v] >= 0 and labels[v] < 0:
            # iterative walk to the nearest labelled ancestor (avoids
            # recursion limits on long tree chains)
            chain = []
            cursor = v
            while labels[cursor] < 0:
                chain.append(cursor)
                cursor = parent[cursor]
            base = labels[cursor]
            for u in chain:
                labels[u] = base
    return labels


def crossing_edge_replacement_lengths(
    instance: RPathsInstance,
) -> List[int]:
    """The Hershberger–Suri formula, evaluated centrally."""
    require_undirected(instance)
    h = instance.hop_count
    dist_s, parent_s = _sssp_with_parents(instance, instance.s)
    dist_t, _ = _sssp_with_parents(instance, instance.t)
    branch = branch_labels(instance, parent_s)
    p_edges = instance.path_edge_set()

    out = [INF] * h
    for u, v, w in instance.edges:
        if (u, v) in p_edges or (v, u) in p_edges:
            continue
        a, b = branch[u], branch[v]
        if a >= b:
            continue
        if dist_s[u] >= INF or dist_t[v] >= INF:
            continue
        value = dist_s[u] + w + dist_t[v]
        for i in range(a, b):
            if value < out[i]:
                out[i] = value
    return [clamp_inf(x) for x in out]


# -- the distributed algorithm ([MR24b]'s undirected round profile) --------


@dataclass
class UndirectedReport:
    """Output of the distributed undirected RPaths execution."""

    instance_name: str
    lengths: List[int]
    ledger: RoundLedger

    @property
    def rounds(self) -> int:
        return self.ledger.rounds


def solve_rpaths_undirected(
    instance: RPathsInstance,
    fabric: str = DEFAULT_FABRIC,
) -> UndirectedReport:
    """Distributed undirected RPaths in O(T_SSSP + h_st + D) rounds.

    Unweighted instances use BFS for the two SSSPs (T_SSSP = O(D));
    weighted ones use the exact time-expanded SSSP (T_SSSP = weighted
    eccentricity — the folklore algorithm; [MR24b]'s sophisticated
    T_SSSP is out of scope, the *additive h_st* structure is the point).
    """
    fabric = resolve_fabric(fabric)
    require_undirected(instance)
    h = instance.hop_count
    position = {v: i for i, v in enumerate(instance.path)}
    net = instance.build_network(fabric=fabric)
    tree = build_spanning_tree(net)

    with net.ledger.phase("undirected-rpaths"):
        # -- two SSSP computations (from s, and to t).
        if instance.weighted:
            dist_s = sssp_distances_weighted(net, instance.s,
                                             phase="sssp-from-s")
            dist_t = sssp_distances_weighted(net, instance.t,
                                             direction="in",
                                             phase="sssp-to-t")
            # Parent pointers for the s-tree: each vertex picks the
            # neighbour certifying its distance (one exchange).
            parent_s = _distributed_parents(net, instance, dist_s)
        else:
            dist_s, parent_s = bfs_tree(net, instance.s,
                                        phase="bfs-from-s")
            dist_t = sssp_distances_weighted(net, instance.t,
                                             direction="in",
                                             phase="bfs-to-t")
            parent_s = _path_respecting_parents(
                instance, dist_s, parent_s)

        # -- branch labels flood down the s-tree: O(depth) rounds.
        branch = _distributed_branch_labels(
            net, instance, parent_s, position)

        # -- candidate exchange: both endpoints of every edge swap
        # (branch, d_t) — one round, one small message per link.
        outbox: Dict[int, list] = {}
        for u, v, w in instance.edges:
            outbox.setdefault(u, []).append(
                (v, ("cand", branch[u], dist_t[u])))
        with net.ledger.phase("candidate-exchange"):
            inbox = net.exchange(outbox)
        info: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for v, arrivals in inbox.items():
            for sender, (_, b, dt) in arrivals:
                info.setdefault(v, {})[sender] = (b, dt)

        # Each vertex x derives local candidates (interval, value) from
        # its incident non-P edges.
        p_edges = instance.path_edge_set()
        local: List[List[Tuple[int, int, int]]] = [
            [] for _ in range(instance.n)
        ]
        weights = instance.edge_weight_map()
        for u, v, w in instance.edges:
            if (u, v) in p_edges or (v, u) in p_edges:
                continue
            b_v, dt_v = info.get(u, {}).get(v, (None, None))
            if b_v is None:
                continue
            a = branch[u]
            if a < b_v and dist_s[u] < INF and dt_v < INF:
                local[u].append((a, b_v, dist_s[u] + w + dt_v))

        # -- h_st pipelined min-aggregations (one per failed edge).
        def local_min(vertex: int, wave: int) -> int:
            best = INF
            for a, b, value in local[vertex]:
                if a <= wave < b and value < best:
                    best = value
            return best

        results = staggered_convergecast_min(
            net, tree, local_min, count=h, identity=INF,
            phase="interval-aggregation")

        # -- disseminate the h_st results (Lemma 2.4: O(h_st + D)).
        broadcast_messages(
            net, tree,
            {tree.root: [("repl", i, clamp_inf(results[i]))
                         for i in range(h)]},
            phase="result-broadcast")

    return UndirectedReport(
        instance_name=instance.name,
        lengths=[clamp_inf(x) for x in results],
        ledger=net.ledger,
    )


def _path_respecting_parents(instance, dist_s, parent_s):
    """Force each P vertex's tree parent to be its P predecessor.

    Valid because P prefixes are shortest (instance validation), so the
    swap preserves the shortest-path-tree property while making branch
    labels well-defined.
    """
    parent = list(parent_s)
    for i in range(1, len(instance.path)):
        parent[instance.path[i]] = instance.path[i - 1]
    return parent


def _distributed_parents(net, instance, dist_s):
    """One exchange: every vertex learns a neighbour certifying its
    distance (ties broken toward P predecessors, then smaller id)."""
    weights = instance.edge_weight_map()
    outbox = {}
    for u, v, w in instance.edges:
        outbox.setdefault(u, []).append((v, ("dist", dist_s[u])))
    with net.ledger.phase("parent-exchange"):
        inbox = net.exchange(outbox)
    parent = [-1] * instance.n
    parent[instance.s] = instance.s
    for v, arrivals in inbox.items():
        if v == instance.s:
            continue
        best = None
        for sender, (_, d_u) in arrivals:
            w = weights[(sender, v)]
            if d_u < INF and d_u + w == dist_s[v]:
                if best is None or sender < best:
                    best = sender
        if best is not None:
            parent[v] = best
    return _path_respecting_parents(instance, dist_s, parent)


def _distributed_branch_labels(net, instance, parent, position):
    """Flood branch labels down the s-tree (O(depth) rounds)."""
    n = instance.n
    children: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0 and parent[v] != v:
            children[parent[v]].append(v)
    labels = [-1] * n
    for v, i in position.items():
        labels[v] = i
    with net.ledger.phase("branch-downcast"):
        frontier = [instance.s]
        while frontier:
            outbox: Dict[int, list] = {}
            nxt = []
            for u in frontier:
                for v in children[u]:
                    outbox.setdefault(u, []).append(
                        (v, ("branch", labels[u])))
                    nxt.append(v)
            if outbox:
                inbox = net.exchange(outbox)
                for v, arrivals in inbox.items():
                    if labels[v] < 0:
                        labels[v] = arrivals[0][1][1]
            frontier = nxt
    return labels


# -- generators --------------------------------------------------------------


def random_undirected_instance(
    n: int,
    avg_degree: float = 4.0,
    seed: int = 0,
    weighted: bool = False,
    max_weight: int = 9,
    name: str = "",
) -> RPathsInstance:
    """Random connected undirected instance with an extracted shortest
    path of maximal eccentricity from vertex 0."""
    rng = random.Random(seed)
    edges: Set[Tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    target = int(avg_degree * n / 2)
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    weights = None
    if weighted:
        weights = {e: rng.randint(1, max_weight) for e in edges}
    sym = symmetrize(edges, weights)
    instance = RPathsInstance(
        n=n, edges=sym, path=[0, 1], weighted=weighted,
        name=name or f"undirected(n={n},seed={seed})")
    dist = instance.dijkstra(0)
    t = max(range(n), key=lambda v: (dist[v] if dist[v] < INF else -1, v))
    _, parent = _sssp_with_parents(instance, 0)
    path = [t]
    while path[-1] != 0:
        path.append(parent[path[-1]])
    path.reverse()
    instance.path = path
    instance.validate()
    return instance


def ladder_instance(rungs: int) -> RPathsInstance:
    """A ``rungs``-hop path beside a rail: h_st and D grow together.

    Path 0..rungs runs beside a rail of ``rungs - 1`` vertices, and rung
    ``i`` joins path vertex ``i`` to rail vertex ``rungs + 1 + i``, so
    detours run along the rail.  The family that shows the undirected
    O(T_SSSP + h_st + D) round profile.
    """
    edges = symmetrize(
        [(i, i + 1) for i in range(rungs)]
        + [(i + rungs + 1, i + rungs + 2) for i in range(rungs - 2)]
        + [(i, i + rungs + 1) for i in range(rungs - 1)])
    instance = RPathsInstance(
        n=2 * rungs, edges=edges, path=list(range(rungs + 1)),
        name=f"ladder({rungs})")
    instance.validate()
    return instance
