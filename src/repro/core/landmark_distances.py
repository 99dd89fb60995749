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

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..congest.broadcast import broadcast_messages
from ..congest.dispatch import dispatch
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

    The two vertex tables are ``(k, n)`` int64 arrays when the vector
    fabric completed them, and lists of rows on the message lanes.
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

        # The vector lane's (k, n) int64 tables go to the completion as
        # they are; the message lanes return lists of rows.
        forward_hops = dispatch(
            "multisource", net, sources=landmarks, hop_limit=hop_limit,
            direction="out", avoid_edges=avoid_edges, delay=None,
            name="kBFS-forward(L5.5)")
        backward_hops = dispatch(
            "multisource", net, sources=landmarks, hop_limit=hop_limit,
            direction="in", avoid_edges=avoid_edges, delay=None,
            name="kBFS-backward(L5.5)")

        # Each landmark l_b broadcasts its hop distance *from* every l_a
        # (which it learned as a vertex in the forward BFS), as a Python
        # int: words_of prices no NumPy scalar.
        rows = list(forward_hops)
        messages: Dict[int, list] = {
            l_b: [("pair", a, b, int(row[l_b])) for a, row in enumerate(rows)]
            for b, l_b in enumerate(landmarks)
        }
        pairs = broadcast_messages(net, tree, messages,
                                   phase="pair-broadcast(L2.4)")
        pair_hops = [[INF] * k for _ in range(k)]
        for _, payload in pairs:
            _, a, b, hops = payload
            pair_hops[a][b] = hops

        # Local closure and completion (Lemma 5.4, then Lemma 5.6 and
        # its forward mirror): every vertex closes the broadcast pair
        # hops and stitches its hop-bounded distances with the closure.
        # Unweighted hops are lengths, and each is <= hop_limit or INF,
        # so the hop tables are the completion's length rows as they
        # are, and a row with no entry at the hop limit is already
        # exact (the completion's per-row test).  On the vector fabric
        # the closure is k vectorized relaxations and the completed
        # tables stay (k, n) int64 arrays (ledger-free local
        # computation, so only value equality is at stake).
        closure, from_landmark, to_landmark = dispatch(
            "landmark_completion", net, pair_hops=pair_hops,
            from_len=forward_hops, to_len=backward_hops,
            hop_limit=hop_limit)
        return LandmarkDistances(
            landmarks, closure, from_landmark, to_landmark)


def _join_rows(
    table: List[List[int]],
    pivots: List[List[int]],
    hop_limit: Optional[int],
) -> List[List[int]]:
    """One completed table: row a is min over mid of ``pivots[a][mid] +
    table[mid][v]``, clamped at INF (``pivots[a][a] == 0`` keeps the
    direct entry).  With a ``hop_limit``, a row with no finite entry at
    or above it is complete and comes back clamped as it went in."""
    out = []
    for a, row in enumerate(table):
        best = list(row)
        if hop_limit is None or any(hop_limit <= x < INF for x in row):
            via = pivots[a]
            for mid, mid_row in enumerate(table):
                d = via[mid]
                for v, x in enumerate(mid_row):
                    if d + x < best[v]:
                        best[v] = d + x
        out.append([clamp_inf(x) for x in best])
    return out


def _completion_message(
    net: CongestNetwork,
    pair_hops: List[List[int]],
    from_len: List[List[int]],
    to_len: List[List[int]],
    hop_limit: Optional[int] = None,
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """The scalar closure and min-plus completion (the registry's
    fallback lane).

    With a ``hop_limit`` (the unit-step kBFS tables of Lemma 5.5), only
    the rows holding a finite entry at or above it join the closure, in
    O(|L|·n) steps each; every other row is already exact and is
    copied, so a table of complete rows costs O(|L|·n) in all.  Without
    one (Theorem 3's weighted completion, whose entries are lengths,
    not hops) every row joins.
    """
    closure = landmark_closure(pair_hops)
    closure_t = [list(column) for column in zip(*closure)]
    return (closure, _join_rows(from_len, closure, hop_limit),
            _join_rows(to_len, closure_t, hop_limit))
