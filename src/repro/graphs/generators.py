"""Instance generators for the experiments.

The paper's bounds involve three instance parameters — n, the diameter D,
and the hop length h_st of the given path — and the interesting regimes
pull them apart.  Each generator here targets one regime:

* :func:`random_instance` — sparse random digraphs: small D, small h_st
  (the regime where the trivial h_st × SSSP baseline shines, see the
  Section 1.1 remark);
* :func:`path_with_chords_instance` — h_st = Θ(n): the regime where the
  MR24b upper bound's √(n·h_st) term and the trivial baseline blow up,
  but Theorem 1 stays at Õ(n^{2/3} + D);
* :func:`layered_instance` — leveled DAGs where *every* s-t path has the
  same hop count, so replacement paths are plentiful and exercised;
* :func:`grid_instance` — directed grids with systematic two-hop detours;
* :func:`double_path_instance` — the minimal two-parallel-paths family
  (also the Ω(D) lower-bound shape from the proof of Theorem 2);
* :func:`expander_instance` — near-regular random digraphs with
  logarithmic diameter and dense detour structure;
* :func:`power_law_instance` — preferential-attachment digraphs whose
  hubs concentrate congestion.

All generators take an explicit ``seed`` and return validated
:class:`~repro.graphs.instance.RPathsInstance` objects.  Stochastic
generators additionally accept a shared ``rng`` (``random.Random``), so
a scenario spec can thread one reproducible stream through several
builds; no generator ever touches the global ``random`` state.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from ..congest.errors import InvalidInstanceError
from ..congest.words import INF
from .instance import RPathsInstance

Edge = Tuple[int, int]


def _resolve_rng(seed: int, rng: Optional[random.Random]) -> random.Random:
    """The single randomness funnel: an explicit stream wins, else a
    fresh ``random.Random(seed)`` — never the global module state."""
    return rng if rng is not None else random.Random(seed)


def _shortest_path_via_parents(instance: RPathsInstance, s: int,
                               t: int) -> List[int]:
    """Centralized shortest s-t path extraction (generator machinery)."""
    import heapq
    adj = instance.adjacency()
    dist = [INF] * instance.n
    parent = [-1] * instance.n
    dist[s] = 0
    heap = [(0, s)]
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
    if dist[t] >= INF:
        raise InvalidInstanceError("no s-t path to extract")
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _connect_support(n: int, edges: Set[Edge], rng: random.Random) -> None:
    """Add directed edges until the undirected support is connected.

    New edges attach each later component representative to a random
    earlier vertex; orientations are random, which never changes
    undirected connectivity.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for u, v in edges:
        union(u, v)
    for v in range(1, n):
        if find(v) != find(0):
            u = rng.randrange(v)
            edge = (u, v) if rng.random() < 0.5 else (v, u)
            if edge in edges or (edge[1], edge[0]) in edges:
                edge = (u, v) if edge == (v, u) else (v, u)
            edges.add(edge)
            union(u, v)


def _finalize_random_instance(
    n: int,
    edges: Set[Edge],
    rng: random.Random,
    weighted: bool,
    max_weight: int,
    name: str,
) -> RPathsInstance:
    """Weight the edge set, pick a far (s, t) pair, extract P, validate.

    Shared tail of every random-ish family: s is scanned over a prefix
    of vertices for good forward reach (a fixed source can be a sink in
    a sparse random digraph), then t is the farthest reachable vertex.
    """
    weights: Dict[Edge, int] = {}
    if weighted:
        weights = {e: rng.randint(1, max_weight) for e in sorted(edges)}
    instance = RPathsInstance(
        n=n,
        edges=[(u, v, weights.get((u, v), 1)) for u, v in sorted(edges)],
        path=[0, 1],  # placeholder until extraction below
        weighted=weighted,
        name=name,
    )
    best_pair = None
    for s in range(min(n, 25)):
        dist = instance.dijkstra(s)
        candidates = [v for v in range(n) if 0 < dist[v] < INF]
        if not candidates:
            continue
        t = max(candidates, key=lambda v: (dist[v], v))
        if best_pair is None or dist[t] > best_pair[2]:
            best_pair = (s, t, dist[t])
    if best_pair is None:
        raise InvalidInstanceError("no source has reachable vertices")
    s, t, _ = best_pair
    instance.path = _shortest_path_via_parents(instance, s, t)
    instance.validate()
    return instance


def random_instance(
    n: int,
    avg_degree: float = 4.0,
    seed: int = 0,
    weighted: bool = False,
    max_weight: int = 16,
    name: str = "",
    rng: Optional[random.Random] = None,
) -> RPathsInstance:
    """Sparse Erdős–Rényi-style digraph with an extracted shortest path.

    s is vertex 0; t is a finite-distance vertex of maximal distance, so
    h_st is the (small, O(log n)-ish) directed eccentricity.
    """
    target_m = max(n, int(avg_degree * n / 2))
    if target_m > n * (n - 1):
        raise ValueError(
            f"random_instance(n={n}, avg_degree={avg_degree}) needs "
            f"{target_m} distinct edges; only {n * (n - 1)} exist")
    rng = _resolve_rng(seed, rng)
    edges: Set[Edge] = set()
    while len(edges) < target_m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((u, v))
    _connect_support(n, edges, rng)
    return _finalize_random_instance(
        n, edges, rng, weighted, max_weight,
        name or f"random(n={n},seed={seed})")


def expander_instance(
    n: int,
    degree: int = 4,
    seed: int = 0,
    weighted: bool = False,
    max_weight: int = 16,
    name: str = "",
    rng: Optional[random.Random] = None,
) -> RPathsInstance:
    """Near-regular expander-style digraph: ``degree`` random
    out-neighbours per vertex via random cyclic shifts.

    Each of the ``degree`` rounds adds one random permutation's cycle
    edges (u -> π(u)), so in- and out-degrees stay balanced and the
    diameter is logarithmic with high probability — the small-D,
    detour-rich regime where Theorem 1's additive D term vanishes.
    """
    if n < 3:
        raise ValueError("expander needs at least three vertices")
    if degree < 2:
        raise ValueError("expander needs degree >= 2")
    rng = _resolve_rng(seed, rng)
    edges: Set[Edge] = set()
    for _ in range(degree):
        perm = list(range(n))
        rng.shuffle(perm)
        for u in range(n):
            v = perm[u]
            if u != v:
                edges.add((u, v))
    _connect_support(n, edges, rng)
    return _finalize_random_instance(
        n, edges, rng, weighted, max_weight,
        name or f"expander(n={n},d={degree},seed={seed})")


def power_law_instance(
    n: int,
    attach: int = 2,
    seed: int = 0,
    weighted: bool = False,
    max_weight: int = 16,
    name: str = "",
    rng: Optional[random.Random] = None,
) -> RPathsInstance:
    """Preferential-attachment digraph (Barabási–Albert flavoured).

    Vertex v attaches to ``attach`` earlier vertices sampled
    proportionally to their current degree, with random edge
    orientation.  The resulting hubs concentrate link load, which
    stresses the congestion accounting rather than the round count.
    """
    if n < 3 or attach < 1:
        raise ValueError("need n >= 3 and attach >= 1")
    rng = _resolve_rng(seed, rng)
    edges: Set[Edge] = set()
    # Degree-weighted sampling via a repeated-endpoint urn.
    urn: List[int] = [0, 1]
    edges.add((0, 1))
    for v in range(2, n):
        targets: Set[int] = set()
        want = min(attach, v)
        while len(targets) < want:
            targets.add(urn[rng.randrange(len(urn))])
        for u in targets:
            edge = (u, v) if rng.random() < 0.5 else (v, u)
            if edge not in edges:
                edges.add(edge)
            urn.append(u)
            urn.append(v)
    _connect_support(n, edges, rng)
    return _finalize_random_instance(
        n, edges, rng, weighted, max_weight,
        name or f"powerlaw(n={n},a={attach},seed={seed})")


def path_with_chords_instance(
    hops: int,
    detour_every: int = 4,
    detour_extra: int = 2,
    detour_span: int = 3,
    seed: int = 0,
    weighted: bool = False,
    max_weight: int = 8,
    overlay_hub: bool = False,
    name: str = "",
    rng: Optional[random.Random] = None,
) -> RPathsInstance:
    """A long planted path P (h_st = ``hops``) with detour gadgets.

    Every ``detour_every`` positions, a detour of ``span + extra`` hops
    bypasses ``span`` consecutive path edges through fresh vertices, so
    replacement paths exist for most edges and P remains strictly
    shortest (detours are longer than what they skip).  This is the
    h_st = Θ(n) regime that separates Theorem 1 from the baselines.

    ``overlay_hub=True`` adds one extra vertex with a directed edge *to*
    every other vertex: the communication diameter collapses to 2 while
    the directed reachability from s is untouched (the hub has no
    incoming edges), exactly the trick the paper's lower-bound graphs
    use (step 7 of Section 6.3) to decouple D from h_st.
    """
    if hops < 2:
        raise ValueError("need at least two path hops")
    rng = _resolve_rng(seed, rng)
    path = list(range(hops + 1))
    edges: Set[Edge] = set(zip(path, path[1:]))
    n = hops + 1
    detours: List[Tuple[int, int, List[int]]] = []
    for start in range(0, hops - 1, detour_every):
        span = min(detour_span, hops - start)
        if span < 1:
            continue
        extra = detour_extra + rng.randrange(2)
        inner = span + extra - 1  # detour hop count = inner + 1
        fresh = list(range(n, n + inner))
        n += inner
        chain = [path[start]] + fresh + [path[start + span]]
        for a, b in zip(chain, chain[1:]):
            edges.add((a, b))
        detours.append((start, start + span, fresh))
    weights: Dict[Edge, int] = {}
    if weighted:
        # Path edges get weight w; detour chains must stay strictly longer
        # than what they bypass, so give detour edges weights that sum
        # above the bypassed subpath.
        for u, v in sorted(edges):
            weights[(u, v)] = rng.randint(1, max_weight)
        pre = [0]
        for u, v in zip(path, path[1:]):
            pre.append(pre[-1] + weights[(u, v)])
        for start, end, fresh in detours:
            chain = [path[start]] + fresh + [path[end]]
            skipped = pre[end] - pre[start]
            hops_in_chain = len(chain) - 1
            base = skipped // hops_in_chain + 1
            for a, b in zip(chain, chain[1:]):
                weights[(a, b)] = base + rng.randrange(2)
    if overlay_hub:
        hub = n
        n += 1
        for v in range(hub):
            edges.add((hub, v))
            if weighted:
                weights[(hub, v)] = 1
    instance = RPathsInstance(
        n=n,
        edges=[(u, v, weights.get((u, v), 1)) for u, v in sorted(edges)],
        path=path,
        weighted=weighted,
        name=name or f"chords(h={hops},seed={seed})",
    )
    instance.validate()
    return instance


def layered_instance(
    layers: int,
    width: int,
    forward_prob: float = 0.5,
    seed: int = 0,
    weighted: bool = False,
    max_weight: int = 8,
    name: str = "",
    rng: Optional[random.Random] = None,
) -> RPathsInstance:
    """A leveled DAG: ``layers`` levels of ``width`` vertices.

    Vertex (ℓ, i) has index ℓ*width + i, with s and t in dedicated first
    and last single-vertex levels.  Every edge goes one level forward, so
    in the unweighted case *every* s-t path is shortest and replacement
    paths abound.  The planted chain (level ℓ, slot 0) is P.
    """
    if layers < 2 or width < 1:
        raise ValueError("need at least two layers and width >= 1")
    rng = _resolve_rng(seed, rng)

    def vid(level: int, slot: int) -> int:
        return 1 + (level * width + slot)

    s = 0
    t = 1 + layers * width
    n = t + 1
    edges: Set[Edge] = set()
    for slot in range(width):
        edges.add((s, vid(0, slot)))
        edges.add((vid(layers - 1, slot), t))
    for level in range(layers - 1):
        for i in range(width):
            # Per-slot chain edges guarantee every vertex is wired into
            # the communication graph (slot 0's chain is the planted P).
            edges.add((vid(level, i), vid(level + 1, i)))
            for j in range(width):
                if rng.random() < forward_prob:
                    edges.add((vid(level, i), vid(level + 1, j)))
    path = [s] + [vid(level, 0) for level in range(layers)] + [t]
    weights: Dict[Edge, int] = {}
    if weighted:
        for e in sorted(edges):
            weights[e] = rng.randint(2, max_weight)
        # Make the planted chain strictly cheapest level-by-level.
        for u, v in zip(path, path[1:]):
            weights[(u, v)] = 1
    instance = RPathsInstance(
        n=n,
        edges=[(u, v, weights.get((u, v), 1)) for u, v in sorted(edges)],
        path=path,
        weighted=weighted,
        name=name or f"layered(L={layers},w={width},seed={seed})",
    )
    instance.validate()
    return instance


def grid_instance(rows: int, cols: int, name: str = "") -> RPathsInstance:
    """Directed grid: rightward edges in every row, both vertical
    directions in every column.

    P is the top row; the replacement path for any top-row edge drops one
    row, moves right, and climbs back (+2 hops), giving a fully
    deterministic ground truth that tests lean on.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2x2 vertices")

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: Set[Edge] = set()
    for r in range(rows):
        for c in range(cols - 1):
            edges.add((vid(r, c), vid(r, c + 1)))
    for c in range(cols):
        for r in range(rows - 1):
            edges.add((vid(r, c), vid(r + 1, c)))
            edges.add((vid(r + 1, c), vid(r, c)))
    path = [vid(0, c) for c in range(cols)]
    instance = RPathsInstance(
        n=rows * cols,
        edges=[(u, v, 1) for u, v in sorted(edges)],
        path=path,
        weighted=False,
        name=name or f"grid({rows}x{cols})",
    )
    instance.validate()
    return instance


def double_path_instance(
    hops: int,
    extra: int = 1,
    name: str = "",
) -> RPathsInstance:
    """Two parallel s-t paths: P with ``hops`` edges and a disjoint
    alternative with ``hops + extra`` edges.

    Every edge of P has the same replacement length ``hops + extra``.
    This is the shape of the Ω(D) lower-bound construction in the proof
    of Theorem 2.
    """
    if hops < 1 or extra < 1:
        raise ValueError("hops and extra must be positive")
    path = list(range(hops + 1))
    s, t = path[0], path[-1]
    n = hops + 1
    alt = [s] + list(range(n, n + hops + extra - 1)) + [t]
    n += hops + extra - 1
    edges: Set[Edge] = set(zip(path, path[1:])) | set(zip(alt, alt[1:]))
    instance = RPathsInstance(
        n=n,
        edges=[(u, v, 1) for u, v in sorted(edges)],
        path=path,
        weighted=False,
        name=name or f"double-path(h={hops},extra={extra})",
    )
    instance.validate()
    return instance
