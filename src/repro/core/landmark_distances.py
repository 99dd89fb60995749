"""Lemmas 5.4 and 5.6 — distances through the landmark set.

Both lemmas are powered by two hop-bounded k-source BFS runs in G \\ P
(Lemma 5.5) plus one broadcast:

* a *forward* BFS from every landmark gives, at each vertex v, the
  hop-bounded distance l_j → v — in particular each landmark l_k learns
  the hop-bounded pair distance l_j → l_k;
* the landmarks broadcast the |L|² pair distances (Lemma 2.4), after
  which every vertex locally computes the min-plus closure, recovering
  the exact dist_{G\\P}(l_j, l_k) w.h.p. (Lemma 5.4 — long l_j → l_k
  paths decompose into ≤ h-hop landmark-to-landmark segments by
  Lemma 5.3);
* a *backward* BFS from every landmark gives, at each vertex v, the
  hop-bounded distance v → l_j, which combined with the closure yields
  the exact dist_{G\\P}(v, l_j) w.h.p. (Lemma 5.6).

The weighted (1+ε) variant (Proposition 7.11) runs its own pipeline,
:func:`~repro.approx.long_detour_approx.compute_landmark_distances_weighted`,
which reuses only :func:`landmark_closure` and
:class:`LandmarkDistances` from this module.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

from ..congest.broadcast import broadcast_messages
from ..congest.dispatch import dispatch
from ..congest.multisource import multi_source_hop_bfs
from ..congest.network import CongestNetwork
from ..congest.spanning_tree import SpanningTree
from ..congest.words import INF, clamp_inf

EdgeSet = FrozenSet[Tuple[int, int]]

#: Converts a hop count in the (possibly subdivided) BFS graph back to a
#: length in G.  Identity for the unweighted case.
HopsToLength = Callable[[int], int]


def _identity(h: int) -> int:
    return h


def landmark_closure(
    pair_hops: List[List[int]],
    hops_to_length: HopsToLength = _identity,
) -> List[List[int]]:
    """Min-plus closure of the hop-bounded landmark pair distances.

    Pure local computation (every vertex holds the same broadcast data);
    Floyd–Warshall over the |L| × |L| matrix.
    """
    k = len(pair_hops)
    dist = [[clamp_inf(hops_to_length(pair_hops[a][b])
                       if pair_hops[a][b] < INF else INF)
             for b in range(k)] for a in range(k)]
    for a in range(k):
        dist[a][a] = 0
    for mid in range(k):
        row_mid = dist[mid]
        for a in range(k):
            via = dist[a][mid]
            if via >= INF:
                continue
            row_a = dist[a]
            for b in range(k):
                candidate = via + row_mid[b]
                if candidate < row_a[b]:
                    row_a[b] = candidate
    return dist


class LandmarkDistances:
    """All landmark-related distances of Section 5, post-broadcast.

    Attributes
    ----------
    landmarks:
        The landmark list; ranks index all matrices.
    closure:
        ``closure[a][b]`` = dist_{G\\P}(l_a, l_b) (exact w.h.p.).
    from_landmark:
        ``from_landmark[a][v]`` = dist_{G\\P}(l_a, v) (exact w.h.p.).
    to_landmark:
        ``to_landmark[a][v]`` = dist_{G\\P}(v, l_a) (exact w.h.p.).
    """

    def __init__(self, landmarks: Sequence[int],
                 closure: List[List[int]],
                 from_landmark: List[List[int]],
                 to_landmark: List[List[int]]) -> None:
        self.landmarks = list(landmarks)
        self.closure = closure
        self.from_landmark = from_landmark
        self.to_landmark = to_landmark

    @property
    def count(self) -> int:
        return len(self.landmarks)


def compute_landmark_distances(
    net: CongestNetwork,
    tree: SpanningTree,
    landmarks: Sequence[int],
    hop_limit: int,
    avoid_edges: EdgeSet,
    phase: str = "landmark-distances(L5.4/5.6)",
) -> LandmarkDistances:
    """Run the Lemma 5.4 + Lemma 5.6 pipeline.

    Rounds: two k-source h-hop BFS runs (O(|L| + h) each, Lemma 5.5) plus
    one broadcast of |L|² words (O(|L|² + D), Lemma 2.4).
    """
    k = len(landmarks)
    with net.ledger.phase(phase):
        if k == 0:
            return LandmarkDistances([], [], [], [])

        forward_hops = multi_source_hop_bfs(
            net, landmarks, hop_limit, direction="out",
            avoid_edges=avoid_edges, phase="kBFS-forward(L5.5)")
        backward_hops = multi_source_hop_bfs(
            net, landmarks, hop_limit, direction="in",
            avoid_edges=avoid_edges, phase="kBFS-backward(L5.5)")

        # Each landmark l_b broadcasts its hop distance *from* every l_a
        # (which it learned as a vertex in the forward BFS).
        messages: Dict[int, list] = {
            l_b: [("pair", a, b, forward_hops[a][l_b]) for a in range(k)]
            for b, l_b in enumerate(landmarks)
        }
        pairs = broadcast_messages(net, tree, messages,
                                   phase="pair-broadcast(L2.4)")
        pair_hops = [[INF] * k for _ in range(k)]
        for _, payload in pairs:
            _, a, b, hops = payload
            pair_hops[a][b] = hops

        closure = landmark_closure(pair_hops)

        # Local completion (Lemma 5.6 and its forward mirror): every
        # vertex stitches its hop-bounded distances with the closure.
        # Unweighted hops are lengths, and each is <= hop_limit or INF,
        # so the hop tables are the completion's length rows as they
        # are.  On the vector fabric the min-plus completion runs as
        # int64 matrix sweeps (identical values; this is ledger-free
        # local computation, so only value equality is at stake).
        from_landmark, to_landmark = dispatch(
            "landmark_completion", net, closure=closure,
            from_len=forward_hops, to_len=backward_hops)
        return LandmarkDistances(
            landmarks, closure, from_landmark, to_landmark)


def _completion_message(
    net: CongestNetwork,
    closure: List[List[int]],
    from_len: List[List[int]],
    to_len: List[List[int]],
) -> Tuple[List[List[int]], List[List[int]]]:
    """The scalar min-plus completion (the registry's fallback lane)."""
    k = len(closure)
    n = net.n
    closure_t = [[closure[mid][a] for mid in range(k)]
                 for a in range(k)]
    from_landmark = [[INF] * n for _ in range(k)]
    to_landmark = [[INF] * n for _ in range(k)]
    for a in range(k):
        row = closure[a]
        col = closure_t[a]
        direct_f = from_len[a]
        direct_t = to_len[a]
        out_f = from_landmark[a]
        out_t = to_landmark[a]
        for v in range(n):
            best_f = direct_f[v]
            best_t = direct_t[v]
            for mid in range(k):
                candidate = row[mid] + from_len[mid][v]
                if candidate < best_f:
                    best_f = candidate
                candidate = to_len[mid][v] + col[mid]
                if candidate < best_t:
                    best_t = candidate
            out_f[v] = clamp_inf(best_f)
            out_t[v] = clamp_inf(best_t)
    return from_landmark, to_landmark
