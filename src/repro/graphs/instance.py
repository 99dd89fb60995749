"""Problem instances for the replacement-paths problems.

An :class:`RPathsInstance` bundles a directed graph with the source ``s``,
target ``t``, and the given s-t shortest path ``P`` — the exact input the
paper's Definitions 2.1–2.3 assume.  Validation enforces the paper's
preconditions: ``P`` is a genuine shortest path, weights are positive
integers (poly(n)-bounded in spirit), and the communication graph is
connected (otherwise D is undefined).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..congest.errors import InvalidInstanceError
from ..congest.network import DEFAULT_FABRIC, CongestNetwork
from ..congest.words import INF

Edge = Tuple[int, int]


@dataclass
class RPathsInstance:
    """A replacement-paths problem instance.

    Attributes
    ----------
    n:
        Number of vertices (``0..n-1``).
    edges:
        Directed weighted edges ``(u, v, w)``; ``w == 1`` everywhere for
        unweighted instances.
    path:
        The given s-t shortest path as a vertex sequence
        ``(s = v_0, ..., v_{h_st} = t)``.
    weighted:
        Whether the instance should be treated as weighted (Theorem 3)
        or unweighted (Theorem 1).
    name:
        Optional label used in experiment reports.
    topology_version:
        Monotone epoch counter for dynamic graphs.  Every applied
        mutation batch (:func:`repro.dynamic.stream.apply_mutations`)
        yields a *new* instance with the same name and
        ``topology_version + 1``; the serve tier keys spilled oracle
        snapshots by (name, version), so state built against a
        superseded topology can never be mistaken for fresh.
    """

    n: int
    edges: List[Tuple[int, int, int]]
    path: List[int]
    weighted: bool = False
    name: str = ""
    topology_version: int = 0
    _adj: Optional[List[List[Tuple[int, int]]]] = field(
        default=None, repr=False, compare=False)
    _radj: Optional[List[List[Tuple[int, int]]]] = field(
        default=None, repr=False, compare=False)
    _topology: Optional[object] = field(
        default=None, repr=False, compare=False)
    _path_prefix: Optional[List[int]] = field(
        default=None, repr=False, compare=False)

    # -- basic accessors -----------------------------------------------------

    @property
    def s(self) -> int:
        return self.path[0]

    @property
    def t(self) -> int:
        return self.path[-1]

    @property
    def hop_count(self) -> int:
        """h_st — the number of edges of P."""
        return len(self.path) - 1

    @property
    def m(self) -> int:
        return len(self.edges)

    def path_edges(self) -> List[Edge]:
        """The edges (v_i, v_{i+1}) of P, in order."""
        return [(self.path[i], self.path[i + 1])
                for i in range(self.hop_count)]

    def path_edge_set(self) -> FrozenSet[Edge]:
        return frozenset(self.path_edges())

    def adjacency(self) -> List[List[Tuple[int, int]]]:
        """Out-adjacency ``adj[u] = [(v, w), ...]`` (cached)."""
        if self._adj is None:
            adj: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                adj[u].append((v, w))
            self._adj = adj
        return self._adj

    def reverse_adjacency(self) -> List[List[Tuple[int, int]]]:
        """In-adjacency ``radj[v] = [(u, w), ...]`` (cached)."""
        if self._radj is None:
            radj: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                radj[v].append((u, w))
            self._radj = radj
        return self._radj

    def edge_weight_map(self) -> Dict[Edge, int]:
        return {(u, v): w for u, v, w in self.edges}

    def path_prefix_weights(self) -> List[int]:
        """``pre[i]`` = weighted length of P[s, v_i]; pre[0] == 0.

        Cached, and resolved through the cached out-adjacency rather
        than a throwaway O(m) edge-weight dict — at scale-out sizes
        the map dwarfed the path it priced.
        """
        if self._path_prefix is None:
            adj = self.adjacency()
            pre = [0]
            for u, v in self.path_edges():
                w = next(wt for head, wt in adj[u] if head == v)
                pre.append(pre[-1] + w)
            self._path_prefix = pre
        return list(self._path_prefix)

    @property
    def path_length(self) -> int:
        """|P| — weighted length of the given path."""
        return self.path_prefix_weights()[-1]

    def max_weight(self) -> int:
        return max((w for _, _, w in self.edges), default=1)

    @property
    def versioned_key(self) -> str:
        """``name@topology_version`` — the serving-tier cache identity."""
        return f"{self.name}@{self.topology_version}"

    # -- centralized shortest paths (oracle machinery) -----------------------

    def dijkstra(self, source: int, reverse: bool = False,
                 avoid_edges: FrozenSet[Edge] = frozenset()) -> List[int]:
        """Centralized SSSP used for validation and ground truth.

        With ``reverse=True`` computes distances *to* ``source``.
        Unweighted instances use plain BFS for speed.
        """
        adj = self.reverse_adjacency() if reverse else self.adjacency()

        def excluded(u: int, v: int) -> bool:
            return ((v, u) in avoid_edges) if reverse else (
                (u, v) in avoid_edges)

        dist = [INF] * self.n
        dist[source] = 0
        if not self.weighted:
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v, _ in adj[u]:
                    if excluded(u, v):
                        continue
                    if dist[v] >= INF:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            return dist
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                if excluded(u, v):
                    continue
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def shortest_path_to(self, target: int,
                         source: Optional[int] = None) -> List[int]:
        """One shortest source→target path (parent-tracking SSSP).

        Deterministic: among equal-length paths the lowest-numbered
        predecessor wins, so re-deriving P after a mutation batch is a
        pure function of the edge list.  Raises
        :class:`InvalidInstanceError` when the target is unreachable.
        """
        source = self.s if source is None else source
        adj = self.adjacency()
        dist = [INF] * self.n
        parent = [-1] * self.n
        dist[source] = 0
        if not self.weighted:
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v, _ in sorted(adj[u]):
                    if dist[v] >= INF:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        queue.append(v)
        else:
            heap = [(0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in sorted(adj[u]):
                    nd = d + w
                    if nd < dist[v] or (nd == dist[v]
                                        and parent[v] > u >= 0):
                        dist[v] = nd
                        parent[v] = u
                        heapq.heappush(heap, (nd, v))
        if dist[target] >= INF:
            raise InvalidInstanceError(
                f"vertex {target} unreachable from {source}")
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        return list(reversed(path))

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`InvalidInstanceError` on any broken precondition."""
        if self.n <= 1:
            raise InvalidInstanceError("instance needs at least two vertices")
        if len(self.path) < 2:
            raise InvalidInstanceError("path must contain at least one edge")
        if len(set(self.path)) != len(self.path):
            raise InvalidInstanceError("path visits a vertex twice")
        weights = self.edge_weight_map()
        if len(weights) != len(self.edges):
            raise InvalidInstanceError("duplicate directed edge in edge list")
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidInstanceError(f"edge ({u},{v}) out of range")
            if u == v:
                raise InvalidInstanceError(f"self-loop at {u}")
            if w <= 0 or (not self.weighted and w != 1):
                raise InvalidInstanceError(
                    f"edge ({u},{v}) weight {w} invalid for this instance")
        for u, v in self.path_edges():
            if (u, v) not in weights:
                raise InvalidInstanceError(
                    f"path edge ({u},{v}) is not a graph edge")
        dist = self.dijkstra(self.s)
        if dist[self.t] >= INF:
            raise InvalidInstanceError("t unreachable from s")
        pre = self.path_prefix_weights()
        if pre[-1] != dist[self.t]:
            raise InvalidInstanceError(
                f"P has length {pre[-1]} but dist(s,t) = {dist[self.t]}; "
                "P is not a shortest path")
        for i, v in enumerate(self.path):
            if pre[i] != dist[v]:
                raise InvalidInstanceError(
                    f"P's prefix to {v} is not a shortest path")
        net = self.build_network()
        if not net.is_connected():
            raise InvalidInstanceError("communication graph is disconnected")

    # -- simulator glue ------------------------------------------------------

    def build_network(self, bandwidth_words: Optional[int] = None,
                      strict: bool = False,
                      fabric: str = DEFAULT_FABRIC) -> CongestNetwork:
        """Instantiate a fresh CONGEST network for this instance.

        The frozen :class:`~repro.congest.topology.CSRTopology` is built
        once per instance and shared by every network (fresh ledgers,
        shared adjacency), so repeated solver runs stop paying graph
        re-parsing.  ``fabric`` selects the exchange engine (see
        :data:`~repro.congest.network.FABRICS`); the lazily-built NumPy
        array views that ``fabric="vector"`` kernels gather over live on
        the shared topology, so they too are built once per instance.
        """
        if self._topology is None:
            from ..congest.topology import CSRTopology
            self._topology = CSRTopology(self.n, self.edges)
        kwargs = {}
        if bandwidth_words is not None:
            kwargs["bandwidth_words"] = bandwidth_words
        return CongestNetwork(self.n, self.edges, strict=strict,
                              fabric=fabric, topology=self._topology,
                              **kwargs)


def instance_from_edges(
    edges: Sequence[Tuple[int, int]],
    path: Sequence[int],
    n: Optional[int] = None,
    weights: Optional[Dict[Edge, int]] = None,
    weighted: bool = False,
    name: str = "",
    validate: bool = True,
) -> RPathsInstance:
    """Convenience constructor from unweighted edge pairs."""
    if n is None:
        n = 1 + max(max(u, v) for u, v in edges)
    weighted_edges = [
        (u, v, (weights or {}).get((u, v), 1)) for u, v in edges
    ]
    instance = RPathsInstance(
        n=n, edges=weighted_edges, path=list(path),
        weighted=weighted, name=name)
    if validate:
        instance.validate()
    return instance
