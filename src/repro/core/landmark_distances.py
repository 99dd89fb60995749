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

The weighted (1+ε) variant (Proposition 7.11) is the same pipeline
with (1+ε)-approximate h-hop k-source distances in place of the BFS:
:func:`compute_landmark_distances` takes Theorem 3's scale ladder,
runs one forward and one backward BFS per scale d on the rounding
graph G_d (Section 7.1), and keeps each entry's least exact length
h·μ_d.  DESIGN.md records why Section 7.1's rounding stands in for
the algorithm the paper cites there.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple,
)

from ..congest.broadcast import broadcast_messages
from ..congest.dispatch import dispatch
from ..congest.multisource import multi_source_hop_bfs
from ..congest.network import CongestNetwork
from ..congest.spanning_tree import SpanningTree
from ..congest.words import INF, clamp_inf

if TYPE_CHECKING:
    from ..approx.rounding import Scale

EdgeSet = FrozenSet[Tuple[int, int]]

#: (direction, phase word) of the forward and backward k-source BFS.
_SENSES = (("out", "forward"), ("in", "backward"))


def landmark_closure(pair_hops: List[List[int]]) -> List[List[int]]:
    """Min-plus closure of the hop-bounded landmark pair distances.

    Pure local computation (every vertex holds the same broadcast data);
    Floyd–Warshall over the |L| × |L| matrix.
    """
    k = len(pair_hops)
    dist = [[clamp_inf(x) for x in row] for row in pair_hops]
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
    hop_limit: Optional[int],
    avoid_edges: EdgeSet,
    phase: str = "landmark-distances(L5.4/5.6)",
    scales: Optional[Sequence[Scale]] = None,
) -> LandmarkDistances:
    """Run the Lemma 5.4 + Lemma 5.6 pipeline.

    Theorem 1 runs one unit-step k-source BFS each way, to ``hop_limit``
    hops.  With Theorem 3's ``scales`` the BFS runs once per scale d,
    on G_d, with that scale's delays and hop budget, and each entry
    keeps its least exact length h·μ_d; such lengths need
    ``hop_limit=None`` (a row below one scale's hop budget proves
    nothing, so every row joins the completion).

    Rounds: two k-source h-hop BFS runs per scale (O(|L| + h) each,
    Lemma 5.5) plus one broadcast of |L|² words (O(|L|² + D), Lemma
    2.4).
    """
    k = len(landmarks)
    with net.ledger.phase(phase):
        if k == 0:
            return LandmarkDistances([], [], [], [])

        if scales is None:
            # The vector lane's (k, n) int64 tables go to the
            # completion as they are; the message lanes return lists
            # of rows.
            forward, backward = (
                dispatch("multisource", net, sources=landmarks,
                         hop_limit=hop_limit, direction=direction,
                         avoid_edges=avoid_edges, delay=None,
                         name=f"kBFS-{sense}(L5.5)")
                for direction, sense in _SENSES)
        else:
            # Exact Fraction lengths (two words each) merged over the
            # scales, not unit hops.
            forward, backward = _least_lengths(
                net, landmarks, avoid_edges, scales)

        # Each landmark l_b broadcasts its distance *from* every l_a
        # (which it learned as a vertex in the forward BFS).
        at_landmarks = _columns(forward, landmarks)
        messages: Dict[int, list] = {
            l_b: [("pair", a, b, row[b])
                  for a, row in enumerate(at_landmarks)]
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
        # distances and stitches its own with the closure.  Unweighted
        # hops are lengths, and each is <= hop_limit or INF, so the hop
        # tables are the completion's length rows as they are, and a
        # row with no entry at the hop limit is already exact (the
        # completion's per-row test).  On the vector fabric the
        # closure is k vectorized relaxations and the completed tables
        # stay (k, n) int64 arrays; Theorem 3's Fractions take the
        # message lane (ledger-free local computation, so only value
        # equality is at stake).
        closure, from_landmark, to_landmark = dispatch(
            "landmark_completion", net, pair_hops=pair_hops,
            from_len=forward, to_len=backward, hop_limit=hop_limit)
        return LandmarkDistances(
            landmarks, closure, from_landmark, to_landmark)


def _columns(table, columns: Sequence[int]) -> List[List[object]]:
    """``table[a][c]`` for every row a and every c in ``columns``, as
    Python values: words_of prices no NumPy scalar, so the vector
    lane's ``(k, n)`` array is listed at those columns only."""
    if hasattr(table, "tolist"):
        return table[:, list(columns)].tolist()
    return [[row[c] for c in columns] for row in table]


def _least_lengths(
    net: CongestNetwork,
    landmarks: Sequence[int],
    avoid_edges: EdgeSet,
    scales: Sequence[Scale],
) -> List[List[List[object]]]:
    """Proposition 7.11's (1+ε) h-hop k-source distances, forward and
    backward: per scale d, a forward then a backward k-source BFS on
    G_d with d's delays and hop budget.  Each entry of the two
    ``(k, n)`` tables keeps its least exact length h·μ_d (a Fraction)
    below INF, else INF."""
    tables = [[[INF] * net.n for _ in landmarks] for _ in _SENSES]
    for scale in scales:
        mu = scale.mu
        for merged, (direction, sense) in zip(tables, _SENSES):
            hops = multi_source_hop_bfs(
                net, landmarks, scale.hop_budget, direction=direction,
                avoid_edges=avoid_edges, delay=scale.delay,
                phase=f"kBFS-{sense}(L5.5,d={scale.d})")
            for out, row in zip(merged, hops):
                for v, h in enumerate(row):
                    if h < INF:
                        length = h * mu
                        if length < out[v]:
                            out[v] = length
    return tables


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
